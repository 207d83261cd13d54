package paging

import (
	"errors"
	"maps"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/vhash"
)

// exhaustSide is one address space of FuzzTablesExhaustion with the
// model it must answer like: the pages it maps, by base; the 2MB
// regions any 4KB op touched (a radix table may keep a table page
// there, so they never take an explicit 2MB map); and the regions where
// an explicit 4KB Map succeeded, which Fault does not know to back with
// 4KB pages, so they never take a 2MB fault either.
type exhaustSide struct {
	tab      *Tables[addr.GVA, addr.GPA]
	model    model
	small    map[addr.GVA]bool
	mapped4K map[addr.GVA]bool
}

// lookup returns the page of m holding va, and its base.
func (m model) lookup(va addr.GVA) (base addr.GVA, pg mapping, ok bool) {
	for _, size := range []addr.PageSize{addr.Page2M, addr.Page4K} {
		base = addr.PageBase(va, size)
		if pg, ok = m[base]; ok && pg.size == size {
			return base, pg, true
		}
	}
	return 0, mapping{}, false
}

// verify asserts s translates exactly its model's pages, holds one
// translation for each, in every kind built, and has exactly their
// frames' bytes of data allocated.
func (s *exhaustSide) verify(t *testing.T, what string) {
	t.Helper()
	var data uint64
	for base, pg := range s.model {
		va := addr.Add(base, 0x7)
		if pa, size, ok := s.tab.Translate(va); !ok || size != pg.size || pa != addr.Translate(pg.frame, va, pg.size) {
			t.Fatalf("%s: %#x translates to %#x, %v, %v; want %#x, %v", what, va, pa, size, ok, addr.Translate(pg.frame, va, pg.size), pg.size)
		}
		data += pg.size.Bytes()
	}
	if r := s.tab.Radix(); r != nil && r.Entries() != uint64(len(s.model)) {
		t.Fatalf("%s: radix holds %d translations, want %d", what, r.Entries(), len(s.model))
	}
	if e := s.tab.ECPTs(); e != nil && e.Entries() != uint64(len(s.model)) {
		t.Fatalf("%s: the ECPT set holds %d translations, want %d", what, e.Entries(), len(s.model))
	}
	if n := s.tab.Allocator().Used(memsim.PurposeData); n != data {
		t.Fatalf("%s: %d data bytes allocated, want %d", what, n, data)
	}
}

// TestHugeFaultAfterFailedSmallFault faults 4KB pages, each in its own
// 2MB region, into radix and ECPT tables until one runs out of memory,
// then faults the same address again with a 2MB page allowed and a
// freed 2MB frame to take. The failed fault's radix map succeeded and
// was taken back out when the ECPT set refused, leaving its table page
// under the region, so the second fault must fall back to a 4KB page:
// it maps one or returns the typed out-of-memory error, and never the
// radix conflict a 2MB map over that table page would meet.
func TestHugeFaultAfterFailedSmallFault(t *testing.T) {
	const reserve = 256
	tried := 0
	for meta := uint64(4); meta < 60; meta++ {
		capacity := addr.Page2M.Bytes() + (reserve+meta)*addr.Page4K.Bytes()
		alloc := memsim.NewAllocator[addr.GPA](capacity, 3)
		huge, _ := alloc.Alloc(addr.Page2M, memsim.PurposeData)
		frames := make([]addr.GPA, reserve)
		for i := range frames {
			frames[i], _ = alloc.Alloc(addr.Page4K, memsim.PurposeData)
		}
		for _, frame := range frames {
			alloc.Free(frame, addr.Page4K, memsim.PurposeData)
		}
		alloc.Free(huge, addr.Page2M, memsim.PurposeData)
		cfg := ecpt.ScaledSetConfig(true, 1)
		for size := range cfg.PerSize {
			cfg.PerSize[size] = ecpt.DefaultConfig(8)
		}
		tab, err := New[addr.GVA](alloc, true, true, cfg, 1, 3)
		if err != nil {
			continue // too small for the empty tables
		}
		var va addr.GVA
		for i := 0; i < reserve && err == nil; i++ {
			va = addr.GVA(1<<30 + uint64(i)*addr.Page2M.Bytes())
			_, _, err = tab.Fault(va, true, false)
		}
		var oom *memsim.OutOfMemoryError
		if !errors.As(err, &oom) {
			t.Fatalf("%d metadata pages: 4KB faults ended with %v, want out of memory", meta, err)
		}
		tried++
		pa, size, err := tab.Fault(va, true, true)
		if err != nil && !errors.As(err, &oom) {
			t.Fatalf("%d metadata pages: the huge fault after a failed 4KB one: %v", meta, err)
		}
		if err == nil {
			if got, gotSize, ok := tab.Translate(va); size != addr.Page4K || !ok || got != pa || gotSize != size {
				t.Fatalf("%d metadata pages: the huge fault mapped %#x at %v, translating to %#x, %v, %v", meta, pa, size, got, gotSize, ok)
			}
		}
	}
	if tried == 0 {
		t.Fatal("no allocator was big enough for the empty tables")
	}
}

// FuzzTablesExhaustion runs map, unmap and fault sequences, at 4KB,
// 2MB and with THP fallback, on address spaces a few dozen metadata
// pages wide, with 8-line ECPT ways migrating one bucket an insert, so
// that kicks, resizes, migration and exhaustion all occur. Every op
// either succeeds and answers like a flat map model, or returns a
// *memsim.OutOfMemoryError having changed nothing the model can see:
// every earlier translation, the entry count and the data bytes stay as
// they were. A fork op continues on a fork of the tables; whatever
// happens on the fork, its template stays exactly as it was.
//
// The first byte picks the kinds built (radix, ECPT or both, mod 3),
// THP (4), a PTE-CWT (8) and a 2MB data frame's worth of extra capacity
// (16); the second, how many 4KB pages the allocator holds besides 256
// freed data frames, which serve 4KB data first, so that the tables
// rather than their data run out of memory. Then every three bytes are
// one op: kind, and an 11-bit page number whose top three bits pick one
// of eight 64MB-apart ranges, so the pages spread over several CWT
// pages.
func FuzzTablesExhaustion(f *testing.F) {
	// Seeds: every combination the first byte picks, each at two
	// metadata budgets that run its kinds out of memory mid-stream.
	budgets := [3][2]byte{{0, 4}, {10, 18}, {14, 24}}
	for first := byte(0); first < 32; first++ {
		for _, budget := range budgets[first%3] {
			rng := vhash.NewRNG(uint64(first) + 1)
			data := make([]byte, 2+3*400)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			data[0], data[1] = first, budget
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		kind := kinds[data[0]%3]
		thp := data[0]&4 != 0
		cfg := ecpt.ScaledSetConfig(data[0]&8 != 0, 1)
		for size := range cfg.PerSize {
			cfg.PerSize[size] = ecpt.DefaultConfig(8)
			cfg.PerSize[size].MigratePerInsert = 1
		}
		const reserve = 256
		capacity := uint64(reserve+4+int(data[1]%40)) * addr.Page4K.Bytes()
		if data[0]&16 != 0 {
			capacity += addr.Page2M.Bytes()
		}
		alloc := memsim.NewAllocator[addr.GPA](capacity, 3)
		var huge addr.GPA
		if data[0]&16 != 0 {
			huge, _ = alloc.Alloc(addr.Page2M, memsim.PurposeData)
		}
		frames := make([]addr.GPA, reserve)
		for i := range frames {
			frames[i], _ = alloc.Alloc(addr.Page4K, memsim.PurposeData)
		}
		for _, frame := range frames {
			alloc.Free(frame, addr.Page4K, memsim.PurposeData)
		}
		if data[0]&16 != 0 {
			alloc.Free(huge, addr.Page2M, memsim.PurposeData)
		}
		tab, err := New[addr.GVA](alloc, kind.radix, kind.ecpts, cfg, 1, 3)
		if err != nil {
			return // too small for the empty tables
		}
		cur := &exhaustSide{tab: tab, model: model{}, small: map[addr.GVA]bool{}, mapped4K: map[addr.GVA]bool{}}
		var templates []exhaustSide
		for i := 2; i+2 < len(data); i += 3 {
			p := uint64(data[i+1]) | uint64(data[i+2]&7)<<8
			va := addr.GVA(1<<30 + (p>>8)<<26 + (p&0xFF)<<12 + 0x123)
			region := addr.PageBase(va, addr.Page2M)
			base, pg, mapped := cur.model.lookup(va)
			var err error
			switch op := data[i] % 16; {
			case op <= 4: // map a 4KB page, or for op 4 a 2MB one, at va
				size, base := addr.Page4K, addr.PageBase(va, addr.Page4K)
				if op == 4 {
					size, base = addr.Page2M, region
				}
				if mapped || (size == addr.Page2M && cur.small[region]) {
					continue
				}
				frame, ok := cur.tab.Allocator().Alloc(size, memsim.PurposeData)
				if !ok {
					continue
				}
				// A radix map keeps the table pages it built, even when it
				// fails: the region never takes a 2MB map after a 4KB one.
				cur.small[region] = cur.small[region] || size == addr.Page4K
				if err = cur.tab.Map(base, size, frame); err == nil {
					cur.model[base] = mapping{frame, size}
					cur.mapped4K[region] = cur.mapped4K[region] || size == addr.Page4K
					continue
				}
				cur.tab.Allocator().Free(frame, size, memsim.PurposeData)
			case op <= 8: // unmap va
				size, ok := cur.tab.Unmap(va)
				if ok != mapped || (ok && size != pg.size) {
					t.Fatalf("Unmap(%#x) = %v, %v; want %v, %v", va, size, ok, pg.size, mapped)
				}
				if ok {
					delete(cur.model, base)
					cur.tab.Allocator().Free(pg.frame, pg.size, memsim.PurposeData)
				}
				continue
			case op <= 14: // fault va in, under THP taking a 2MB page if op <= 11 may
				if mapped {
					continue
				}
				// Fault knows the regions it, or a failed 4KB map, left a
				// 4KB table page in, and falls back to a 4KB page there;
				// only an explicit 4KB Map's region is kept from it.
				var pa addr.GPA
				var size addr.PageSize
				pa, size, err = cur.tab.Fault(va, thp, op <= 11 && !cur.mapped4K[region])
				cur.small[region] = cur.small[region] || size != addr.Page2M
				if err == nil {
					cur.model[addr.PageBase(va, size)] = mapping{addr.PageBase(pa, size), size}
					continue
				}
			default: // go on in a fork
				fork, err := cur.tab.Fork()
				if err != nil {
					t.Fatal(err)
				}
				templates = append(templates, *cur)
				cur = &exhaustSide{tab: fork, model: maps.Clone(cur.model), small: maps.Clone(cur.small), mapped4K: maps.Clone(cur.mapped4K)}
				continue
			}
			var oom *memsim.OutOfMemoryError
			if !errors.As(err, &oom) {
				t.Fatalf("op %d at %#x: err = %v, want a *memsim.OutOfMemoryError", data[i]%16, va, err)
			}
			cur.verify(t, "after a failed op")
			if _, _, ok := cur.tab.Translate(va); ok {
				t.Fatalf("a failed op left %#x mapped", va)
			}
		}
		cur.verify(t, "at the end")
		for i := range templates {
			templates[i].verify(t, "a fork's template")
		}
	})
}
