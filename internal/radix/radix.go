// Package radix implements x86-64 4-level radix page tables — the
// design the paper's Nested Radix baseline uses, the guest-side tables
// of the Hybrid migration design (§6), and the reference against which
// the ECPT walkers are validated.
//
// A Table maps page numbers in one address space to frames in another;
// the same structure serves as a guest table (gVA→gPA) or a host table
// (gPA→hPA, i.e. Intel EPT / AMD NPT). Every table page occupies a
// real 4KB frame obtained from a memsim.Allocator, so walkers can
// charge cache accesses to genuine physical addresses.
package radix

import (
	"fmt"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/memsim"
)

// EntryBytes is the size of one page-table entry.
const EntryBytes = 8

type node[P addr.Addr] struct {
	// pa is the physical base address of this 4KB table page, in the
	// address space the table itself lives in (gPA for guest tables,
	// hPA for host tables).
	pa       P
	children [512]*node[P]
	leaves   [512]leaf[P]
}

type leaf[P addr.Addr] struct {
	valid bool
	frame P
}

// Table is one 4-level radix page table mapping addresses in space V
// to frames in space P: a guest table is a Table[addr.GVA, addr.GPA],
// a host EPT/NPT a Table[addr.GPA, addr.HPA].
type Table[V, P addr.Addr] struct {
	alloc *memsim.Allocator[P]
	root  *node[P]
	// pages counts allocated table pages, for §9.5 accounting.
	pages   uint64
	entries uint64
}

// New creates an empty table whose table pages come from alloc.
func New[V, P addr.Addr](alloc *memsim.Allocator[P]) *Table[V, P] {
	t := &Table[V, P]{alloc: alloc}
	t.root = t.newNode()
	return t
}

func (t *Table[V, P]) newNode() *node[P] {
	pa := t.alloc.MustAlloc(addr.Page4K, memsim.PurposePageTable)
	t.pages++
	return &node[P]{pa: pa}
}

// Fork returns a copy of the table whose further table pages come from
// alloc, a fork of t's allocator. Every node is copied: the two tables
// share nothing, and each maps, unmaps and grows on its own.
func (t *Table[V, P]) Fork(alloc *memsim.Allocator[P]) *Table[V, P] {
	return &Table[V, P]{alloc: alloc, root: t.root.clone(), pages: t.pages, entries: t.entries}
}

// clone copies n and every node below it.
func (n *node[P]) clone() *node[P] {
	c := new(node[P])
	*c = *n
	for i, child := range n.children {
		if child != nil {
			c.children[i] = child.clone()
		}
	}
	return c
}

// RootPA returns the physical address of the root (CR3 / EPTP).
func (t *Table[V, P]) RootPA() P { return t.root.pa }

// TablePages returns the number of 4KB table pages in use.
func (t *Table[V, P]) TablePages() uint64 { return t.pages }

// Entries returns the number of valid leaf entries.
func (t *Table[V, P]) Entries() uint64 { return t.entries }

// Map installs a translation from the page containing va to the frame
// base at the given page size, building intermediate levels on demand.
// Mapping over an existing entry of a different size is an error.
func (t *Table[V, P]) Map(va V, size addr.PageSize, frame P) error {
	if uint64(frame)&size.OffsetMask() != 0 {
		return fmt.Errorf("radix: frame %#x not aligned to %s", frame, size)
	}
	leafLevel := addr.LeafLevel(size)
	n := t.root
	for l := addr.L4; l > leafLevel; l-- {
		idx := addr.RadixIndex(va, l)
		if n.leaves[idx].valid {
			return fmt.Errorf("radix: va %#x already mapped at level %s", va, l)
		}
		child := n.children[idx]
		if child == nil {
			child = t.newNode()
			n.children[idx] = child
		}
		n = child
	}
	idx := addr.RadixIndex(va, leafLevel)
	if n.children[idx] != nil {
		return fmt.Errorf("radix: va %#x has a lower-level table at %s", va, leafLevel)
	}
	if n.leaves[idx].valid {
		return fmt.Errorf("radix: va %#x already mapped", va)
	}
	n.leaves[idx] = leaf[P]{valid: true, frame: frame}
	t.entries++
	return nil
}

// Unmap removes the translation for the page containing va at the
// given size. Empty intermediate nodes are retained (like Linux, which
// frees them lazily); their pages stay charged to the table.
func (t *Table[V, P]) Unmap(va V, size addr.PageSize) error {
	leafLevel := addr.LeafLevel(size)
	n := t.root
	for l := addr.L4; l > leafLevel; l-- {
		n = n.children[addr.RadixIndex(va, l)]
		if n == nil {
			return fmt.Errorf("radix: va %#x not mapped", va)
		}
	}
	idx := addr.RadixIndex(va, leafLevel)
	if !n.leaves[idx].valid {
		return fmt.Errorf("radix: va %#x not mapped", va)
	}
	n.leaves[idx] = leaf[P]{}
	t.entries--
	return nil
}

// Lookup resolves va functionally (no timing), returning the mapped
// frame base and page size.
func (t *Table[V, P]) Lookup(va V) (frame P, size addr.PageSize, ok bool) {
	n := t.root
	for l := addr.L4; l >= addr.L1; l-- {
		idx := addr.RadixIndex(va, l)
		if l <= addr.L3 && n.leaves[idx].valid {
			return n.leaves[idx].frame, addr.SizeForLeaf(l), true
		}
		if l == addr.L1 {
			return 0, addr.Page4K, false
		}
		n = n.children[idx]
		if n == nil {
			return 0, addr.Page4K, false
		}
	}
	return 0, addr.Page4K, false
}

// Step is one level of a radix walk: the physical address of the entry
// the hardware reads, and what the entry contained. All three
// addresses live in the table's own physical space P.
type Step[P addr.Addr] struct {
	Level addr.RadixLevel
	// EntryPA is the physical address of the 8-byte entry, in the
	// table's own address space.
	EntryPA P
	// NextPA is the base of the next-level table (interior step).
	NextPA P
	// Leaf marks the final step; Frame then holds the mapped frame.
	Leaf  bool
	Frame P
	Size  addr.PageSize
}

// AppendWalk appends to dst the sequence of entry accesses a hardware
// page walker performs to translate va: up to four steps, fewer for
// huge pages. ok=false with a partial trace means the walk faulted at
// the last returned step (the hardware still performed those accesses).
// Walkers pass per-walker scratch (dst[:0]) so the steady state walk
// performs no allocation.
//
//nestedlint:hotpath
func (t *Table[V, P]) AppendWalk(dst []Step[P], va V) (steps []Step[P], ok bool) {
	n := t.root
	for l := addr.L4; l >= addr.L1; l-- {
		idx := addr.RadixIndex(va, l)
		entryPA := n.pa + P(idx*EntryBytes)
		if l <= addr.L3 && n.leaves[idx].valid {
			dst = append(dst, Step[P]{
				Level: l, EntryPA: entryPA, Leaf: true,
				Frame: n.leaves[idx].frame, Size: addr.SizeForLeaf(l),
			})
			return dst, true
		}
		if l == addr.L1 {
			dst = append(dst, Step[P]{Level: l, EntryPA: entryPA})
			return dst, false
		}
		child := n.children[idx]
		if child == nil {
			dst = append(dst, Step[P]{Level: l, EntryPA: entryPA})
			return dst, false
		}
		dst = append(dst, Step[P]{Level: l, EntryPA: entryPA, NextPA: child.pa})
		n = child
	}
	return dst, false
}

// Walk is AppendWalk into a fresh slice.
func (t *Table[V, P]) Walk(va V) (steps []Step[P], ok bool) {
	return t.AppendWalk(make([]Step[P], 0, 4), va)
}

// EntryPA returns the physical address of the level-l entry the walker
// would read for va, when that level exists.
func (t *Table[V, P]) EntryPA(va V, l addr.RadixLevel) (P, bool) {
	n := t.root
	for cur := addr.L4; cur > l; cur-- {
		n = n.children[addr.RadixIndex(va, cur)]
		if n == nil {
			return 0, false
		}
	}
	return n.pa + P(addr.RadixIndex(va, l)*EntryBytes), true
}
