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
//
// A table page is stored as the hardware stores it: 512 eight-byte
// entry words, 4096 bytes with no pointers. An entry word is 0 when
// empty, frame|leafBit for a leaf, or child<<12|tableBit for a
// lower-level table page, child being that page's index in the
// table's slab. Map rejects frames not aligned to their page size, so
// the low 12 bits of every frame are free for the two flags.
//
// The slab is a copy-on-write page store (internal/cow) of 16-page
// chunks: Fork shares it, and each side copies a chunk the first time
// it writes a page in it.
package radix

import (
	"fmt"
	"slices"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/cow"
	"nestedecpt/internal/memsim"
)

// EntryBytes is the size of one page-table entry.
const EntryBytes = 8

// Entry-word flags, in the low 12 bits a 4KB-aligned frame leaves free.
const (
	leafBit  = 1 << 0
	tableBit = 1 << 1
	flagMask = 1<<addr.PageShift4K - 1
)

// page is one 4KB table page: 512 entry words.
type page [1 << addr.PageShift4K / EntryBytes]uint64

// Table pages are allocated 1<<chunkShift to a chunk, the slab's unit
// of storage and of copying. A walk finds a child page from its slab
// index through the chunk directory: about 1KB for a table mapping a
// million 4KB pages, so it stays in the host's L1 cache, where a
// directory of one pointer per page would be 16 times longer.
const chunkShift = 4

type chunk [1 << chunkShift]page

// Table is one 4-level radix page table mapping addresses in space V
// to frames in space P: a guest table is a Table[addr.GVA, addr.GPA],
// a host EPT/NPT a Table[addr.GPA, addr.HPA].
type Table[V, P addr.Addr] struct {
	alloc *memsim.Allocator[P]
	// The slab: page i lives in chunk i>>chunkShift, the root is page
	// 0, and an entry word names its child page by slab index. pas[i] is
	// the physical base of page i in the table's own space.
	slab    cow.Store[chunk]
	pas     []P
	entries uint64
}

// New creates an empty table whose table pages come from alloc, or an
// error if alloc cannot hold the root page.
func New[V, P addr.Addr](alloc *memsim.Allocator[P]) (*Table[V, P], error) {
	t := &Table[V, P]{alloc: alloc}
	if _, ok := t.newPage(); !ok {
		return nil, fmt.Errorf("radix: the root table page: %w", alloc.OutOfMemory(addr.Page4K.Bytes(), memsim.PurposePageTable))
	}
	return t, nil
}

// newPage adds an empty table page to the slab and returns its index,
// or false when the allocator has no frame for it.
func (t *Table[V, P]) newPage() (uint64, bool) {
	pa, ok := t.alloc.Alloc(addr.Page4K, memsim.PurposePageTable)
	if !ok {
		return 0, false
	}
	if len(t.pas) == t.slab.Len()<<chunkShift {
		var copied uint64 // the table does not report its copies
		t.slab.Append(new(chunk), &copied)
	}
	t.pas = append(t.pas, pa)
	return uint64(len(t.pas) - 1), true
}

// pageAt returns slab page i for reading.
func (t *Table[V, P]) pageAt(i uint64) *page {
	return &t.slab.At(int(i >> chunkShift))[i&(1<<chunkShift-1)]
}

// writePage returns slab page i ready to write, its chunk copied first
// if a fork still shares it.
func (t *Table[V, P]) writePage(i uint64) *page {
	var copied uint64 // the table does not report its copies
	return &t.slab.Write(int(i>>chunkShift), &copied)[i&(1<<chunkShift-1)]
}

// Fork returns a copy of the table whose further table pages come from
// alloc, a fork of t's allocator. The two tables share the slab
// copy-on-write and clone only the page address list: each maps,
// unmaps and grows on its own, copying a chunk the first time it
// writes a page in it.
func (t *Table[V, P]) Fork(alloc *memsim.Allocator[P]) *Table[V, P] {
	return &Table[V, P]{alloc: alloc, slab: t.slab.Share(), pas: slices.Clone(t.pas), entries: t.entries}
}

// RootPA returns the physical address of the root (CR3 / EPTP).
func (t *Table[V, P]) RootPA() P { return t.pas[0] }

// TablePages returns the number of 4KB table pages in use.
func (t *Table[V, P]) TablePages() uint64 { return uint64(len(t.pas)) }

// Entries returns the number of valid leaf entries.
func (t *Table[V, P]) Entries() uint64 { return t.entries }

// Map installs a translation from the page containing va to the frame
// base at the given page size, building intermediate levels on demand.
// Mapping over an existing entry of a different size is an error, and
// so is running out of memory for a table page: Map then installs no
// entry, and the table pages it built before failing stay (like Linux,
// which keeps preallocated tables).
func (t *Table[V, P]) Map(va V, size addr.PageSize, frame P) error {
	if uint64(frame)&size.OffsetMask() != 0 {
		return fmt.Errorf("radix: frame %#x not aligned to %s", frame, size)
	}
	leafLevel := addr.LeafLevel(size)
	var pi uint64 // the slab index of the page at level l
	for l := addr.L4; l > leafLevel; l-- {
		idx := addr.RadixIndex(va, l)
		e := t.pageAt(pi)[idx]
		if e&leafBit != 0 {
			return fmt.Errorf("radix: va %#x already mapped at level %s", va, l)
		}
		if e == 0 {
			child, ok := t.newPage()
			if !ok {
				return fmt.Errorf("radix: a %s table page mapping %#x: %w", l-1, va, t.alloc.OutOfMemory(addr.Page4K.Bytes(), memsim.PurposePageTable))
			}
			e = child<<addr.PageShift4K | tableBit
			t.writePage(pi)[idx] = e
		}
		pi = e >> addr.PageShift4K
	}
	// The leaf page is taken writable before its entry is checked, so a
	// map that then fails may have copied a chunk a fork shares.
	e := &t.writePage(pi)[addr.RadixIndex(va, leafLevel)]
	if *e&tableBit != 0 {
		return fmt.Errorf("radix: va %#x has a lower-level table at %s", va, leafLevel)
	}
	if *e != 0 {
		return fmt.Errorf("radix: va %#x already mapped", va)
	}
	*e = uint64(frame) | leafBit
	t.entries++
	return nil
}

// Unmap removes the translation for the page containing va at the
// given size. Empty intermediate pages are retained (like Linux, which
// frees them lazily); they stay charged to the table.
func (t *Table[V, P]) Unmap(va V, size addr.PageSize) error {
	leafLevel := addr.LeafLevel(size)
	var pi uint64
	for l := addr.L4; l > leafLevel; l-- {
		e := t.pageAt(pi)[addr.RadixIndex(va, l)]
		if e&tableBit == 0 {
			return fmt.Errorf("radix: va %#x not mapped", va)
		}
		pi = e >> addr.PageShift4K
	}
	idx := addr.RadixIndex(va, leafLevel)
	if t.pageAt(pi)[idx]&leafBit == 0 {
		return fmt.Errorf("radix: va %#x not mapped", va)
	}
	t.writePage(pi)[idx] = 0
	t.entries--
	return nil
}

// Lookup resolves va functionally (no timing), returning the mapped
// frame base and page size.
func (t *Table[V, P]) Lookup(va V) (frame P, size addr.PageSize, ok bool) {
	pg := t.pageAt(0)
	for l := addr.L4; l >= addr.L1; l-- {
		e := pg[addr.RadixIndex(va, l)]
		if e&leafBit != 0 {
			return P(e &^ flagMask), addr.SizeForLeaf(l), true
		}
		if e&tableBit == 0 {
			break
		}
		pg = t.pageAt(e >> addr.PageShift4K)
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
// performs no allocation. Each level reads one entry word, and NextPA
// comes from the slab's address list, not from the child page.
//
//nestedlint:hotpath
func (t *Table[V, P]) AppendWalk(dst []Step[P], va V) (steps []Step[P], ok bool) {
	pg, base := t.pageAt(0), t.pas[0]
	for l := addr.L4; l >= addr.L1; l-- {
		idx := addr.RadixIndex(va, l)
		entryPA := base + P(idx*EntryBytes)
		e := pg[idx]
		if e&leafBit != 0 {
			dst = append(dst, Step[P]{
				Level: l, EntryPA: entryPA, Leaf: true,
				Frame: P(e &^ flagMask), Size: addr.SizeForLeaf(l),
			})
			return dst, true
		}
		if e&tableBit == 0 {
			dst = append(dst, Step[P]{Level: l, EntryPA: entryPA})
			return dst, false
		}
		child := e >> addr.PageShift4K
		pg, base = t.pageAt(child), t.pas[child]
		dst = append(dst, Step[P]{Level: l, EntryPA: entryPA, NextPA: base})
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
	pg, base := t.pageAt(0), t.pas[0]
	for cur := addr.L4; cur > l; cur-- {
		e := pg[addr.RadixIndex(va, cur)]
		if e&tableBit == 0 {
			return 0, false
		}
		child := e >> addr.PageShift4K
		pg, base = t.pageAt(child), t.pas[child]
	}
	return base + P(addr.RadixIndex(va, l)*EntryBytes), true
}
