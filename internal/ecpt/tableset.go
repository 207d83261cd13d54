package ecpt

import (
	"fmt"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/trace"
)

// SetConfig configures a full ECPT set: one elastic cuckoo table per
// page size plus which sizes keep a CWT. The paper's evaluation keeps
// PUD- and PMD-CWTs everywhere but omits the PTE-CWT on the guest side
// (§4.2) while the host side has one (the Step-1/Step-3 hCWC caching
// techniques rely on it).
type SetConfig struct {
	PerSize [addr.NumPageSizes]Config
	WithCWT [addr.NumPageSizes]bool
}

// DefaultSetConfig returns Table 2's initial table sizes. host selects
// the host-side CWT layout (with a PTE-CWT) versus the guest one.
func DefaultSetConfig(host bool) SetConfig {
	return ScaledSetConfig(host, 1)
}

// ScaledSetConfig divides Table 2's initial table sizes by scale, for
// use with workloads whose footprints are scaled down by the same
// factor: the initial-size-to-footprint ratio determines how much
// elastic resizing a run exercises, and preserving it keeps cache
// behaviour of table probes faithful. Elasticity grows the tables
// on demand either way.
func ScaledSetConfig(host bool, scale uint64) SetConfig {
	div := func(n int) int {
		n /= int(scale)
		if n < 64 {
			n = 64
		}
		return n
	}
	var sc SetConfig
	sc.PerSize[addr.Page4K] = DefaultConfig(div(16384))
	sc.PerSize[addr.Page2M] = DefaultConfig(div(16384))
	sc.PerSize[addr.Page1G] = DefaultConfig(div(8192))
	sc.WithCWT[addr.Page2M] = true
	sc.WithCWT[addr.Page1G] = true
	sc.WithCWT[addr.Page4K] = host
	return sc
}

// Set is the process-private (or hypervisor-private) collection of
// ECPTs: the gECPTs of a guest (Set[addr.GVA, addr.GPA]) or the
// hECPTs of the host (Set[addr.GPA, addr.HPA]). V is the space being
// translated, P the space translated into (which is also where the
// tables themselves live).
type Set[V, P addr.Addr] struct {
	tables [addr.NumPageSizes]*Table[P]
	alloc  *memsim.Allocator[P]
}

// NewSet builds the per-size tables from cfg. hashSpace separates hash
// functions between unrelated sets; seed drives cuckoo tie-breaking.
func NewSet[V, P addr.Addr](cfg SetConfig, alloc *memsim.Allocator[P], hashSpace int, seed uint64) (*Set[V, P], error) {
	s := &Set[V, P]{alloc: alloc}
	for _, size := range addr.Sizes() {
		var cwt *CWT[P]
		if cfg.WithCWT[size] {
			cwt = NewCWT(size, alloc)
		}
		t, err := New(size, cfg.PerSize[size], alloc, cwt, hashSpace*8+int(size), seed+uint64(size))
		if err != nil {
			return nil, fmt.Errorf("ecpt: building %s table: %w", size.LevelName(), err)
		}
		s.tables[size] = t
	}
	return s, nil
}

// Table returns the ECPT for one page size.
//
//nestedlint:hotpath
func (s *Set[V, P]) Table(size addr.PageSize) *Table[P] { return s.tables[size] }

// SetRecorder attaches a trace recorder to every table's structural
// events (elastic resizes, line migration).
func (s *Set[V, P]) SetRecorder(r *trace.Recorder) {
	for _, size := range addr.Sizes() {
		s.tables[size].SetRecorder(r)
	}
}

// EnterConcurrent switches every table of the set into concurrent
// mode: reads (probes, CWT queries, SnapshotLookup) serve immutable
// epoch-versioned views while mutations stay private to the single
// writing goroutine until Publish. Dead generations are reclaimed
// through dom's grace periods. See view.go for the protocol.
//
//nestedlint:writer the mode switch happens before any reader exists
func (s *Set[V, P]) EnterConcurrent(dom *EpochDomain) {
	for _, size := range addr.Sizes() {
		s.tables[size].EnterConcurrent(dom)
	}
}

// Publish makes all mutations since the last Publish visible to
// concurrent readers, one table (and its CWT) at a time. Writer-side.
//
//nestedlint:writer fans Publish out to every table
func (s *Set[V, P]) Publish() {
	for _, size := range addr.Sizes() {
		s.tables[size].Publish()
	}
}

// Map installs a translation at the given size and maintains the
// hierarchical has-smaller bits in the larger sizes' CWTs so walkers
// know they must descend. A map that cannot finish writes nothing and
// returns Table.Insert's error; the CWT page each has-smaller bit may
// need is part of what the insert checks fits.
//
//nestedlint:writer mutates staged generations and CWTs
func (s *Set[V, P]) Map(va V, size addr.PageSize, frame P) error {
	pages := 0
	for _, larger := range addr.Sizes() {
		if larger > size && s.tables[larger].CWT() != nil {
			pages++
		}
	}
	if err := s.tables[size].insert(addr.VPN(va, size), frame, pages); err != nil {
		return err
	}
	for _, larger := range addr.Sizes() {
		if larger <= size {
			continue
		}
		if cwt := s.tables[larger].CWT(); cwt != nil {
			cwt.MarkSmaller(addr.VPN(va, larger))
		}
	}
	return nil
}

// Unmap removes the translation for va at the given size, reporting
// whether it existed. Has-smaller bits are left sticky (see
// CWT.MarkSmaller).
//
//nestedlint:writer mutates staged generations
func (s *Set[V, P]) Unmap(va V, size addr.PageSize) bool {
	return s.tables[size].Remove(addr.VPN(va, size))
}

// Lookup resolves va functionally across all page sizes. It consults
// staged state — including each table's writer-private entry count, by
// which a table holding nothing is skipped before any hashing — so in
// concurrent mode it belongs to the writer; readers go through the
// tables' SnapshotLookup. This is the untimed lookup only: the probe
// set a walker is charged for (AppendProbes) is not narrowed by it.
//
//nestedlint:writer reads staged, unpublished state
func (s *Set[V, P]) Lookup(va V) (frame P, size addr.PageSize, ok bool) {
	// Probe largest first: at most one size can map a given address.
	for i := addr.NumPageSizes - 1; i >= 0; i-- {
		sz := addr.Sizes()[i]
		if s.tables[sz].entries == 0 {
			continue
		}
		if f, hit := s.tables[sz].Lookup(addr.VPN(va, sz)); hit {
			return f, sz, true
		}
	}
	return 0, addr.Page4K, false
}

// Translate resolves va to a full physical address (frame | offset).
// Writer-side for the same reason as Lookup.
//
//nestedlint:writer reads staged, unpublished state
func (s *Set[V, P]) Translate(va V) (pa P, size addr.PageSize, ok bool) {
	frame, size, ok := s.Lookup(va)
	if !ok {
		return 0, size, false
	}
	return addr.Translate(frame, va, size), size, true
}

// Entries returns the total live translations across sizes.
func (s *Set[V, P]) Entries() uint64 {
	var n uint64
	for _, size := range addr.Sizes() {
		n += s.tables[size].Entries()
	}
	return n
}

// MemoryBytes returns the physical memory held by all tables and CWTs.
func (s *Set[V, P]) MemoryBytes() uint64 {
	var b uint64
	for _, size := range addr.Sizes() {
		b += s.tables[size].MemoryBytes()
		if cwt := s.tables[size].CWT(); cwt != nil {
			b += cwt.MemoryBytes()
		}
	}
	return b
}

// COWBytes returns the host bytes copy-on-write copied across the
// set's tables and CWTs (Stats.COWBytes). Writer-side.
func (s *Set[V, P]) COWBytes() uint64 {
	var n uint64
	for _, size := range addr.Sizes() {
		n += s.tables[size].Stats().COWBytes
	}
	return n
}
