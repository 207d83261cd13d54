package ecpt

import (
	"fmt"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/vhash"
)

// forkSide is one set of a fork pair with the map oracle it must agree
// with and the random stream driving its operations.
type forkSide struct {
	name  string
	set   *Set[uint64, uint64]
	model map[uint64]uint64 // 4KB page number → frame
	rng   *vhash.RNG
}

// step applies one random operation — insert, overwrite, remove — to
// the side and its oracle. Page numbers are drawn from a range wider
// than either side starts with, so both grow.
func (s *forkSide) step(t *testing.T, live *[]uint64) {
	t.Helper()
	switch op := s.rng.Intn(10); {
	case op < 6 || len(*live) == 0:
		vpn := s.rng.Uint64n(1 << 20)
		frame := windowFrame(s.rng, addr.Page4K)
		if _, ok := s.model[vpn]; !ok {
			*live = append(*live, vpn)
		}
		s.model[vpn] = frame
		s.set.Map(vpn<<12, addr.Page4K, frame)
	case op < 8:
		j := s.rng.Intn(len(*live))
		vpn := (*live)[j]
		(*live)[j] = (*live)[len(*live)-1]
		*live = (*live)[:len(*live)-1]
		delete(s.model, vpn)
		if !s.set.Unmap(vpn<<12, addr.Page4K) {
			t.Fatalf("%s: Unmap(%#x) lost a live page", s.name, vpn)
		}
	default:
		vpn := (*live)[s.rng.Intn(len(*live))]
		frame := windowFrame(s.rng, addr.Page4K)
		s.model[vpn] = frame
		s.set.Map(vpn<<12, addr.Page4K, frame)
	}
}

// check holds the side's set to its oracle: entry count, every live
// page's frame and CWT presence bit, and a sample of absent pages.
func (s *forkSide) check(t *testing.T, when string) {
	t.Helper()
	tb := s.set.Table(addr.Page4K)
	if tb.Entries() != uint64(len(s.model)) {
		t.Fatalf("%s %s: %d entries, oracle has %d", s.name, when, tb.Entries(), len(s.model))
	}
	for vpn, frame := range s.model {
		if f, ok := tb.Lookup(vpn); !ok || f != frame {
			t.Fatalf("%s %s: Lookup(%#x) = %#x,%v; oracle has %#x", s.name, when, vpn, f, ok, frame)
		}
		if !tb.CWT().Query(vpn).Present {
			t.Fatalf("%s %s: CWT lost the presence bit of %#x", s.name, when, vpn)
		}
	}
	for range 500 {
		vpn := s.rng.Uint64n(1 << 21)
		if _, live := s.model[vpn]; live {
			continue
		}
		if f, ok := tb.Lookup(vpn); ok {
			t.Fatalf("%s %s: absent %#x resolves to %#x", s.name, when, vpn, f)
		}
	}
}

// TestSetForkOracle forks a populated set in the middle of an elastic
// resize, then drives the source and the fork through independent
// random insert/overwrite/remove sequences — enough to grow both again
// — each held to its own map oracle. A write through either side that
// landed in the way arrays they share would show in the other's
// lookups. The fork's cursor must only ever name the fork's own
// generations.
func TestSetForkOracle(t *testing.T) {
	for _, seed := range []uint64{1, 7, 0xC0FFEE} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var cfg SetConfig
			for _, size := range addr.Sizes() {
				// Small ways migrating one bucket per insert keep a
				// resize in flight across many inserts.
				cfg.PerSize[size] = Config{Ways: 3, InitialLinesPerWay: 16, MaxKicks: 32, LoadFactorLimit: 0.6, MigratePerInsert: 1}
				cfg.WithCWT[size] = true
			}
			alloc := memsim.NewAllocatorAt[uint64](windowBase, 1<<32, seed)
			set, err := NewSet[uint64](cfg, alloc, 1, seed)
			if err != nil {
				t.Fatal(err)
			}
			src := &forkSide{name: "source", set: set, model: make(map[uint64]uint64), rng: vhash.NewRNG(seed)}
			var srcLive []uint64
			tb := set.Table(addr.Page4K)
			for i := 0; tb.Stats().Resizes < 2 || !tb.Resizing(); i++ {
				if i > 100_000 {
					t.Fatal("the source never came to be mid-resize")
				}
				src.step(t, &srcLive)
			}
			src.check(t, "before the fork")

			fork, err := set.Fork(alloc.Fork())
			if err != nil {
				t.Fatal(err)
			}
			if !fork.Table(addr.Page4K).Resizing() {
				t.Fatal("a fork of a set mid-resize is not resizing")
			}
			dst := &forkSide{name: "fork", set: fork, model: make(map[uint64]uint64, len(src.model)), rng: vhash.NewRNG(seed + 1)}
			for vpn, frame := range src.model {
				dst.model[vpn] = frame
			}
			dstLive := append([]uint64(nil), srcLive...)
			dst.check(t, "at the fork")

			// Every generation the source ever had; the fork's cursor
			// may name none of them.
			srcGens := make(map[*generation[uint64]]bool)
			cursorOK := func(when string) {
				for _, size := range addr.Sizes() {
					st, ft := set.Table(size), fork.Table(size)
					srcGens[st.cur] = true
					srcGens[st.old] = true
					if c := ft.cursor.g; srcGens[c] {
						t.Fatalf("%s: the fork's %s cursor names a source generation", when, size.LevelName())
					}
				}
			}
			cursorOK("at the fork")
			before := [2]uint64{tb.Stats().Resizes, fork.Table(addr.Page4K).Stats().Resizes}
			for i := range 6_000 {
				src.step(t, &srcLive)
				dst.step(t, &dstLive)
				cursorOK(fmt.Sprintf("op %d", i))
				if i%1_000 == 999 {
					src.check(t, fmt.Sprintf("op %d", i))
					dst.check(t, fmt.Sprintf("op %d", i))
				}
			}
			if tb.Stats().Resizes == before[0] || fork.Table(addr.Page4K).Stats().Resizes == before[1] {
				t.Fatal("a side never grew after the fork; the grow path is not exercised")
			}
			src.check(t, "at the end")
			dst.check(t, "at the end")
		})
	}
}

// TestForkRefusesConcurrentMode checks a set whose tables publish
// views to concurrent readers cannot be forked.
func TestForkRefusesConcurrentMode(t *testing.T) {
	set := newTestSet(t, true)
	set.Map(0x1000, addr.Page4K, 0xAA000)
	set.EnterConcurrent(&EpochDomain{})
	if _, err := set.Fork(memsim.NewAllocator[uint64](1<<30, 3)); err == nil {
		t.Fatal("Fork of a concurrent-mode set succeeded")
	}
}
