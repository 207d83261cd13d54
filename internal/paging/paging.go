// Package paging holds the page-table half of one address space: the
// physical allocator the tables live in and the radix table, the ECPT
// set, or both, kept identical. The guest kernel (gVA → gPA) and the
// hypervisor (gPA → hPA) each own one Tables and keep only what
// differs between them — VMAs, huge-page policy and fault accounting.
// The Plain design of §3 is two copies of the same ECPT set, one per
// dimension; this is the one place either copy is built, mapped,
// translated and forked.
package paging

import (
	"errors"
	"fmt"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/radix"
)

// Tables is one address space's page tables, translating V into P, and
// the allocator of P that backs both the tables and the pages they map.
type Tables[V, P addr.Addr] struct {
	alloc *memsim.Allocator[P]
	radix *radix.Table[V, P]
	ecpts *ecpt.Set[V, P]
}

// New builds empty tables over alloc: a radix table if withRadix, then
// an ECPT set of cfg if withECPT, its hash functions drawn from
// hashSpace and its cuckoo randomness from seed. At least one kind must
// be built.
func New[V, P addr.Addr](alloc *memsim.Allocator[P], withRadix, withECPT bool, cfg ecpt.SetConfig, hashSpace int, seed uint64) (*Tables[V, P], error) {
	if !withRadix && !withECPT {
		return nil, errors.New("paging: must build at least one page-table kind")
	}
	t := &Tables[V, P]{alloc: alloc}
	if withRadix {
		t.radix = radix.New[V](alloc)
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
// (radix.Table.Fork, ecpt.Set.Fork): mapping or unmapping on either
// copy never shows in the other.
func (t *Tables[V, P]) Fork() (*Tables[V, P], error) {
	f := &Tables[V, P]{alloc: t.alloc.Fork()}
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

// Map installs base → frame at size in every built structure.
func (t *Tables[V, P]) Map(base V, size addr.PageSize, frame P) {
	if t.radix != nil {
		if err := t.radix.Map(base, size, frame); err != nil {
			panic(fmt.Sprintf("paging: radix map: %v", err))
		}
	}
	if t.ecpts != nil {
		t.ecpts.Map(base, size, frame)
	}
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
