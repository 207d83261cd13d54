package ecpt

import (
	"fmt"
	"slices"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/memsim"
)

// This file forks a sequential-mode set: a second, independent set
// over the same translations, built without re-inserting a single page
// or copying one up front. The ways and the CWT pages — nearly all of a
// populated set's memory — are shared copy-on-write by the same page
// store concurrent mode uses (internal/cow, view.go): both sides mark
// every store shared, so either side's first write to a way or CWT
// takes a page directory of its own, and each side copies a page the
// first time it writes it. The CWT's page index is shared too, and
// cloned by whichever side first creates a page. Everything else a
// mutation touches (generation headers, migration state, cuckoo RNG) is
// copied outright.

// Fork returns an independent copy of the set whose tables allocate
// from alloc, a fork of the set's own allocator. Mapping, unmapping and
// growing either set never shows in the other. A set in concurrent mode
// cannot be forked: its published views and deferred reclamation
// belong to one epoch domain.
func (s *Set[V, P]) Fork(alloc *memsim.Allocator[P]) (*Set[V, P], error) {
	f := &Set[V, P]{alloc: alloc}
	for _, size := range addr.Sizes() {
		t, err := s.tables[size].fork(alloc)
		if err != nil {
			return nil, err
		}
		f.tables[size] = t
	}
	return f, nil
}

// fork is Set.Fork for one table (and its CWT).
func (t *Table[P]) fork(alloc *memsim.Allocator[P]) (*Table[P], error) {
	if t.dom != nil {
		return nil, fmt.Errorf("ecpt: cannot fork the %s table in concurrent mode", t.size.LevelName())
	}
	rng := *t.rng
	f := &Table[P]{
		size:        t.size,
		cfg:         t.cfg,
		alloc:       alloc,
		cur:         t.cur.share(),
		old:         t.old.share(),
		migratePtr:  slices.Clone(t.migratePtr),
		occupied:    t.occupied,
		entries:     t.entries,
		generations: t.generations,
		hashSpace:   t.hashSpace,
		rng:         &rng,
		stats:       t.stats,
	}
	// As in New: a slot of a live generation, now the fork's own.
	f.cursor.g = f.cur
	if t.cwt != nil {
		f.cwt = t.cwt.fork(alloc)
	}
	return f, nil
}

// fork shares the CWT's index and pages with a copy that allocates
// from alloc: neither side copies a page until it writes it.
func (c *CWT[P]) fork(alloc *memsim.Allocator[P]) *CWT[P] {
	c.indexShared = true
	return &CWT[P]{
		size:        c.size,
		alloc:       alloc,
		index:       c.index,
		pages:       c.pages.Share(),
		nEntries:    c.nEntries,
		indexShared: true,
	}
}
