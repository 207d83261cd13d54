package ecpt

import (
	"fmt"
	"slices"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/memsim"
)

// This file forks a sequential-mode set: a second, independent set
// over the same translations, built without re-inserting a single page.
// The ways — nearly all of a populated set's memory — are shared
// copy-on-write by the same per-page machinery concurrent mode uses
// (view.go): both sides mark every way shared, so either side's first
// write to a way gives that side a page directory of its own, and each
// side copies a 4KB table page the first time it writes it. Neither
// side owns any page the fork shares. Everything else a mutation
// touches (generation headers, migration state, cuckoo RNG, CWT pages)
// is copied outright.

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
		pending:     slices.Clone(t.pending),
	}
	// As in New: a slot of a live generation, now the fork's own.
	f.cursor.g = f.cur
	if t.cwt != nil {
		f.cwt = t.cwt.fork(alloc)
	}
	return f, nil
}

// share returns a second header over g's ways, marking every way
// shared in both, so neither header owns a page the other can reach
// and whichever side writes a page copies it. A nil generation (no
// resize in flight) shares as nil.
func (g *generation[P]) share() *generation[P] {
	if g == nil {
		return nil
	}
	if g.shared == nil {
		g.shared = make([]bool, len(g.keys))
	}
	for w := range g.shared {
		g.shared[w] = true
	}
	return g.cowHeader()
}

// fork copies the CWT page by page; the copy allocates from alloc.
// CWT pages are small next to the way arrays, so they are not shared.
func (c *CWT[P]) fork(alloc *memsim.Allocator[P]) *CWT[P] {
	f := &CWT[P]{
		size:     c.size,
		alloc:    alloc,
		pages:    make(map[uint64]*cwtPage[P], len(c.pages)),
		nEntries: c.nEntries,
	}
	//nestedlint:ignore detrange: order-independent, each page is copied into its own slot
	for idx, pg := range c.pages {
		cp := *pg
		f.pages[idx] = &cp
	}
	return f
}
