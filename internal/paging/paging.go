// Package paging holds the page-table half of one address space: the
// physical allocator the tables live in and the radix table, the ECPT
// set, or both, kept identical, and the demand-paging policy that fills
// them. The guest kernel (gVA → gPA) and the hypervisor (gPA → hPA)
// each own one Tables and keep only what differs between them: VMAs,
// which faults may take a 2MB page, and their own fault counters. The
// Plain design of §3 is two copies of the same ECPT set, one per
// dimension, and nested THP (§8) enables THP for both; this is the one
// place either copy is built, faulted, mapped, translated and forked.
package paging

import (
	"errors"
	"fmt"
	"maps"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/radix"
)

// Stats counts the pages Fault mapped.
type Stats struct {
	HugeMaps     uint64
	SmallMaps    uint64
	HugeFallback uint64 // 2MB attempts that fell back to a 4KB page
}

// Tables is one address space's page tables, translating V into P, and
// the allocator of P that backs both the tables and the pages they map.
type Tables[V, P addr.Addr] struct {
	alloc *memsim.Allocator[P]
	radix *radix.Table[V, P]
	ecpts *ecpt.Set[V, P]
	// small marks the 2MB regions Fault has backed with a 4KB page (a
	// 2MB page mapped over them would shadow every one) and those where
	// a failed 4KB Map left a radix table page. Fault writes and reads
	// it only under THP; Map writes it only on that failure.
	small map[V]bool
	stats Stats
}

// New builds empty tables over alloc: a radix table if withRadix, then
// an ECPT set of cfg if withECPT, its hash functions drawn from
// hashSpace and its cuckoo randomness from seed. At least one kind must
// be built.
func New[V, P addr.Addr](alloc *memsim.Allocator[P], withRadix, withECPT bool, cfg ecpt.SetConfig, hashSpace int, seed uint64) (*Tables[V, P], error) {
	if !withRadix && !withECPT {
		return nil, errors.New("paging: must build at least one page-table kind")
	}
	t := &Tables[V, P]{alloc: alloc, small: make(map[V]bool)}
	if withRadix {
		tb, err := radix.New[V](alloc)
		if err != nil {
			return nil, fmt.Errorf("paging: %w", err)
		}
		t.radix = tb
	}
	if withECPT {
		set, err := ecpt.NewSet[V](cfg, alloc, hashSpace, seed)
		if err != nil {
			return nil, err
		}
		t.ecpts = set
	}
	return t, nil
}

// Fork returns an independent copy over a fork of the allocator
// (radix.Table.Fork, ecpt.Set.Fork), with the same 4KB-region marks and
// stats: faulting, mapping or unmapping on either copy never shows in
// the other.
func (t *Tables[V, P]) Fork() (*Tables[V, P], error) {
	f := &Tables[V, P]{alloc: t.alloc.Fork(), small: maps.Clone(t.small), stats: t.stats}
	if t.radix != nil {
		f.radix = t.radix.Fork(f.alloc)
	}
	if t.ecpts != nil {
		set, err := t.ecpts.Fork(f.alloc)
		if err != nil {
			return nil, err
		}
		f.ecpts = set
	}
	return f, nil
}

// Radix returns the radix table, or nil.
func (t *Tables[V, P]) Radix() *radix.Table[V, P] { return t.radix }

// ECPTs returns the ECPT set, or nil.
func (t *Tables[V, P]) ECPTs() *ecpt.Set[V, P] { return t.ecpts }

// Allocator returns the physical allocator behind the tables.
func (t *Tables[V, P]) Allocator() *memsim.Allocator[P] { return t.alloc }

// Stats returns a copy of the fault statistics.
func (t *Tables[V, P]) Stats() Stats { return t.stats }

// Fault demand-maps the unmapped page containing va and returns the
// address and page size now backing it. Under thp it first tries a 2MB
// page, when huge allows one and no 4KB page was ever faulted into the
// region; otherwise it maps a 4KB page and, under thp, marks the region
// so it is never re-backed by a 2MB page. A fault that finds no frame,
// or whose Map fails, maps nothing and marks only what Map marks: the
// data frame goes back to the allocator and the error is returned.
func (t *Tables[V, P]) Fault(va V, thp, huge bool) (pa P, size addr.PageSize, err error) {
	// Region state exists only under THP: with it off nothing reads it,
	// so a 4KB fault costs no map access.
	var region V
	var small bool
	if thp {
		region = addr.PageBase(va, addr.Page2M)
		small = t.small[region]
		if huge && !small {
			if frame, ok := t.alloc.Alloc(addr.Page2M, memsim.PurposeData); ok {
				if err := t.Map(region, addr.Page2M, frame); err != nil {
					t.alloc.Free(frame, addr.Page2M, memsim.PurposeData)
					return 0, 0, err
				}
				t.stats.HugeMaps++
				return addr.Translate(frame, va, addr.Page2M), addr.Page2M, nil
			}
			t.stats.HugeFallback++
		}
	}
	frame, ok := t.alloc.Alloc(addr.Page4K, memsim.PurposeData)
	if !ok {
		return 0, 0, fmt.Errorf("paging: fault at %#x: %w", va, t.alloc.OutOfMemory(addr.Page4K.Bytes(), memsim.PurposeData))
	}
	if err := t.Map(addr.PageBase(va, addr.Page4K), addr.Page4K, frame); err != nil {
		t.alloc.Free(frame, addr.Page4K, memsim.PurposeData)
		return 0, 0, err
	}
	if thp && !small {
		t.small[region] = true
	}
	t.stats.SmallMaps++
	return addr.Translate(frame, va, addr.Page4K), addr.Page4K, nil
}

// Map installs base → frame at size in every built structure, or in
// none: a radix map that fails (a conflicting entry, or no memory for a
// table page) is returned before the ECPT set is touched, and an ECPT
// map that fails (ecpt.Set.Map writes nothing) takes the radix entry
// back out, marking a 4KB page's region for Fault as 4KB-backed. The
// errors wrap *memsim.OutOfMemoryError when memory ran out.
func (t *Tables[V, P]) Map(base V, size addr.PageSize, frame P) error {
	if t.radix != nil {
		if err := t.radix.Map(base, size, frame); err != nil {
			return fmt.Errorf("paging: %w", err)
		}
	}
	if t.ecpts != nil {
		if err := t.ecpts.Map(base, size, frame); err != nil {
			if t.radix != nil {
				// Cannot fail: the entry was mapped just above.
				_ = t.radix.Unmap(base, size)
				if size == addr.Page4K {
					// Radix keeps the table page the map built, so the
					// region can no longer take a 2MB page.
					t.small[addr.PageBase(base, addr.Page2M)] = true
				}
			}
			return fmt.Errorf("paging: %w", err)
		}
	}
	return nil
}

// Unmap removes the page containing va from every built structure and
// returns its size, or reports false if va is not mapped.
func (t *Tables[V, P]) Unmap(va V) (size addr.PageSize, ok bool) {
	if _, size, ok = t.Translate(va); !ok {
		return size, false
	}
	base := addr.PageBase(va, size)
	if t.radix != nil {
		if err := t.radix.Unmap(base, size); err != nil {
			// Map puts a page in both structures or in neither, so
			// they cannot disagree about it.
			panic(fmt.Sprintf("paging: radix unmap: %v", err))
		}
	}
	if t.ecpts != nil {
		t.ecpts.Unmap(base, size)
	}
	return size, true
}

// Translate resolves va functionally, preferring the ECPT set when
// both structures are built (they hold the same mappings).
//
//nestedlint:hotpath
func (t *Tables[V, P]) Translate(va V) (pa P, size addr.PageSize, ok bool) {
	var frame P
	if t.ecpts != nil {
		frame, size, ok = t.ecpts.Lookup(va)
	} else {
		frame, size, ok = t.radix.Lookup(va)
	}
	if !ok {
		return 0, size, false
	}
	return addr.Translate(frame, va, size), size, true
}

// PageTableMemoryBytes reports the bytes the allocator holds for page
// tables and CWTs (§9.5).
func (t *Tables[V, P]) PageTableMemoryBytes() uint64 {
	return t.alloc.Used(memsim.PurposePageTable) + t.alloc.Used(memsim.PurposeCWT)
}
