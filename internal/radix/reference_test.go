package radix

import (
	"maps"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/memsim"
)

// The reference model: the leaves a table maps, by page base and size,
// and the table pages below the root it has built, by level and the
// address bits above that level. Map builds a page exactly when a walk
// first needs it and never frees one, so the page set alone says which
// lower-level tables exist. FuzzRadixAgainstReference holds the table
// to it op by op.

type refKey struct {
	base uint64
	size addr.PageSize
}

type refPage struct {
	level  addr.RadixLevel // the level of the entries the page holds
	prefix uint64
}

func pageOf(va uint64, l addr.RadixLevel) refPage {
	return refPage{l, addr.LevelPrefix(va, l+1)}
}

// refSide is one table, its allocator and its model; a fork is a side
// of its own.
type refSide struct {
	alloc  *memsim.Allocator[uint64]
	tb     *Table[uint64, uint64]
	leaves map[refKey]uint64
	pages  map[refPage]bool
}

// covering returns the model's leaf over va.
func (s *refSide) covering(va uint64) (frame uint64, size addr.PageSize, ok bool) {
	for _, size := range []addr.PageSize{addr.Page1G, addr.Page2M, addr.Page4K} {
		if frame, ok := s.leaves[refKey{addr.PageBase(va, size), size}]; ok {
			return frame, size, true
		}
	}
	return 0, 0, false
}

// mapOK applies Map to the model and reports whether it succeeds.
func (s *refSide) mapOK(va uint64, size addr.PageSize, frame uint64) bool {
	if frame&size.OffsetMask() != 0 {
		return false
	}
	if _, cs, ok := s.covering(va); ok && cs >= size {
		return false // a leaf at or above the leaf level
	}
	leafLevel := addr.LeafLevel(size)
	if leafLevel > addr.L1 && s.pages[pageOf(va, leafLevel-1)] {
		return false // a lower-level table under the leaf entry
	}
	for l := addr.L3; l >= leafLevel; l-- {
		s.pages[pageOf(va, l)] = true
	}
	s.leaves[refKey{addr.PageBase(va, size), size}] = frame
	return true
}

// unmapOK applies Unmap to the model and reports whether it succeeds.
func (s *refSide) unmapOK(va uint64, size addr.PageSize) bool {
	k := refKey{addr.PageBase(va, size), size}
	if _, ok := s.leaves[k]; !ok {
		return false
	}
	delete(s.leaves, k)
	return true
}

// check holds the side's table to its model over every probe address.
func (s *refSide) check(t *testing.T, name string, probes []uint64) {
	t.Helper()
	pageBytes := s.alloc.Used(memsim.PurposePageTable)
	if got := s.tb.TablePages(); got != uint64(1+len(s.pages)) || got*4096 != pageBytes {
		t.Fatalf("%s: TablePages %d, model %d, allocator %d B", name, got, 1+len(s.pages), pageBytes)
	}
	if got := s.tb.Entries(); got != uint64(len(s.leaves)) {
		t.Fatalf("%s: Entries %d, model %d", name, got, len(s.leaves))
	}
	var scratch []Step[uint64]
	for _, va := range probes {
		wantFrame, wantSize, mapped := s.covering(va)
		frame, size, ok := s.tb.Lookup(va)
		if ok != mapped || ok && (frame != wantFrame || size != wantSize) {
			t.Fatalf("%s: Lookup(%#x) = %#x %v %v, model %#x %v %v", name, va, frame, size, ok, wantFrame, wantSize, mapped)
		}
		var walked bool
		scratch, walked = s.tb.AppendWalk(scratch[:0], va)
		if walked != mapped {
			t.Fatalf("%s: walk of %#x ended in a leaf = %v, model mapped = %v", name, va, walked, mapped)
		}
		base := s.tb.RootPA()
		for i, st := range scratch {
			l := addr.L4 - addr.RadixLevel(i)
			last := i == len(scratch)-1
			switch {
			case st.Level != l:
				t.Fatalf("%s: %#x step %d at level %v", name, va, i, st.Level)
			case st.EntryPA != base+addr.RadixIndex(va, l)*EntryBytes:
				t.Fatalf("%s: %#x step %d reads %#x, not entry %d of page %#x", name, va, i, st.EntryPA, addr.RadixIndex(va, l), base)
			case st.Leaf != (last && walked):
				t.Fatalf("%s: %#x step %d leaf = %v", name, va, i, st.Leaf)
			}
			if pa, ok := s.tb.EntryPA(va, l); !ok || pa != st.EntryPA {
				t.Fatalf("%s: EntryPA(%#x, %v) = %#x %v, walk read %#x", name, va, l, pa, ok, st.EntryPA)
			}
			base = st.NextPA
		}
		last := scratch[len(scratch)-1]
		if walked {
			if last.Frame != wantFrame || last.Size != wantSize || last.Level != addr.LeafLevel(wantSize) {
				t.Fatalf("%s: walk of %#x ends in %+v, model %#x %v", name, va, last, wantFrame, wantSize)
			}
			continue
		}
		// A fault stops at the first entry with no table below it.
		if last.Level > addr.L1 {
			if s.pages[pageOf(va, last.Level-1)] {
				t.Fatalf("%s: walk of %#x faulted at %v over a table the model built", name, va, last.Level)
			}
			if _, ok := s.tb.EntryPA(va, last.Level-1); ok {
				t.Fatalf("%s: EntryPA(%#x, %v) found a level the walk did not", name, va, last.Level-1)
			}
		}
		if last.Level < addr.L4 && !s.pages[pageOf(va, last.Level)] {
			t.Fatalf("%s: walk of %#x reached %v, a table the model never built", name, va, last.Level)
		}
	}
}

// Ops are four bytes each: the kind and its flags, two bytes picking a
// clustered address and one picking the frame.
const (
	opMap    = 0
	opUnmap  = 1
	opLookup = 2
	opFork   = 3

	opUnaligned = 1 << 6 // a Map's frame is misaligned by half a page
	maxSides    = 4
	maxOps      = 64
)

var opSizes = [4]addr.PageSize{addr.Page4K, addr.Page4K, addr.Page2M, addr.Page1G}

// fuzzOp encodes one op: kind, page size index (0-3), side, address
// selector and frame selector.
func fuzzOp(kind, size, side byte, va uint16, frame byte) []byte {
	return []byte{kind | size<<2 | side<<4, byte(va), byte(va >> 8), frame}
}

// clusteredVA spreads a selector over a few indices per level, so ops
// share table pages and collide at every level.
func clusteredVA(sel uint16) uint64 {
	l4 := [4]uint64{0, 1, 255, 511}[sel&3]
	l3 := [4]uint64{0, 1, 2, 511}[sel>>2&3]
	l2 := [4]uint64{0, 1, 2, 511}[sel>>4&3]
	l1 := [8]uint64{0, 1, 2, 3, 4, 5, 510, 511}[sel>>6&7]
	return l4<<39 | l3<<30 | l2<<21 | l1<<12 | uint64(sel>>9)*0x21&0xFFF
}

// fuzzFrame picks a frame of the given size anywhere in the 64-bit
// space: 0, the last frame below 2^64, or a mixed value.
func fuzzFrame(sel byte, i int, size addr.PageSize) uint64 {
	var f uint64
	switch sel {
	case 0:
	case 0xFF:
		f = ^uint64(0)
	default:
		f = uint64(sel)<<8 | uint64(i)
		f ^= f >> 30
		f *= 0xBF58476D1CE4E5B9
		f ^= f >> 27
		f *= 0x94D049BB133111EB
		f ^= f >> 31
	}
	return f &^ size.OffsetMask()
}

// FuzzRadixAgainstReference drives Map (4KB, 2MB and 1GB, frames up to
// 2^64 - page), Unmap, Lookup and Fork over clustered addresses against
// the reference model, then checks every side's walks: a walk ends in a
// leaf exactly when the model maps the address, each step's NextPA is
// the page the next step reads from, EntryPA agrees with the walk, and
// the table pages match the allocator's page-table bytes. Each fork
// keeps its own model, so a write that leaks across a fork fails.
func FuzzRadixAgainstReference(f *testing.F) {
	const a, b = 0x1C5, 0x2C5 // two 4KB pages in one 2MB region
	seq := func(ops ...[]byte) []byte {
		var out []byte
		for _, op := range ops {
			out = append(out, op...)
		}
		return out
	}
	// Mapping over a leaf: 4KB and 2MB under a 2MB leaf, 2MB again.
	f.Add(seq(fuzzOp(opMap, 2, 0, a, 7), fuzzOp(opMap, 0, 0, b, 8), fuzzOp(opMap, 2, 0, b, 9), fuzzOp(opMap, 3, 0, a, 10)))
	// A lower-level table conflict: 2MB and 1GB over a 4KB page's tables,
	// which stay after the page is unmapped.
	f.Add(seq(fuzzOp(opMap, 0, 0, a, 7), fuzzOp(opMap, 2, 0, b, 8), fuzzOp(opMap, 3, 0, b, 9),
		fuzzOp(opUnmap, 0, 0, a, 0), fuzzOp(opMap, 2, 0, b, 10)))
	// Unmapping at the wrong size, then the right one.
	f.Add(seq(fuzzOp(opMap, 2, 0, a, 7), fuzzOp(opUnmap, 0, 0, a, 0), fuzzOp(opUnmap, 3, 0, a, 0),
		fuzzOp(opUnmap, 2, 0, a, 0), fuzzOp(opUnmap, 2, 0, a, 0)))
	// Misaligned frames and the extremes of the frame space.
	f.Add(seq(fuzzOp(opMap|opUnaligned, 0, 0, a, 7), fuzzOp(opMap|opUnaligned, 2, 0, b, 7),
		fuzzOp(opMap, 0, 0, a, 0xFF), fuzzOp(opMap, 3, 0, 0x3, 0xFF), fuzzOp(opMap, 0, 0, 0xFFFF, 0)))
	// Forks writing on both sides of shared pages.
	f.Add(seq(fuzzOp(opMap, 0, 0, a, 7), fuzzOp(opFork, 0, 0, 0, 0), fuzzOp(opMap, 0, 1, b, 8),
		fuzzOp(opUnmap, 0, 0, a, 0), fuzzOp(opMap, 2, 0, 0x115, 9), fuzzOp(opFork, 0, 1, 0, 0),
		fuzzOp(opUnmap, 0, 2, b, 0), fuzzOp(opLookup, 0, 1, b, 0)))
	f.Fuzz(func(t *testing.T, ops []byte) {
		alloc := memsim.NewAllocator[uint64](1<<40, 1)
		sides := []*refSide{{alloc: alloc, tb: mustNew(alloc), leaves: map[refKey]uint64{}, pages: map[refPage]bool{}}}
		var probes []uint64
		for i := 0; i+4 <= len(ops) && i < 4*maxOps; i += 4 {
			kind, size := ops[i]&3, opSizes[ops[i]>>2&3]
			s := sides[int(ops[i]>>4&3)%len(sides)]
			va := clusteredVA(uint16(ops[i+1]) | uint16(ops[i+2])<<8)
			switch kind {
			case opMap:
				frame := fuzzFrame(ops[i+3], i, size)
				if ops[i]&opUnaligned != 0 {
					frame |= size.OffsetMask()/2 + 1
				}
				if err := s.tb.Map(va, size, frame); (err == nil) != s.mapOK(va, size, frame) {
					t.Fatalf("op %d: Map(%#x, %v, %#x) = %v, model disagrees", i/4, va, size, frame, err)
				}
			case opUnmap:
				if err := s.tb.Unmap(va, size); (err == nil) != s.unmapOK(va, size) {
					t.Fatalf("op %d: Unmap(%#x, %v) = %v, model disagrees", i/4, va, size, err)
				}
			case opFork:
				fa := s.alloc.Fork()
				fork := &refSide{alloc: fa, tb: s.tb.Fork(fa), leaves: maps.Clone(s.leaves), pages: maps.Clone(s.pages)}
				if fork.tb.RootPA() != s.tb.RootPA() {
					t.Fatalf("op %d: fork root %#x, parent %#x", i/4, fork.tb.RootPA(), s.tb.RootPA())
				}
				if len(sides) < maxSides {
					sides = append(sides, fork)
				} else {
					sides[maxSides-1] = fork
				}
			}
			probes = append(probes, va)
			for j, side := range sides {
				side.check(t, "side "+string(rune('0'+j)), probes)
			}
		}
	})
}
