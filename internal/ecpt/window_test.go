package ecpt

import (
	"fmt"
	"reflect"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/vhash"
)

// highBase is a 1GB-aligned allocator base far above every frame a
// zero-based table maps, so a decode that drops the base, or keeps
// too few bits of the offset, reads back a different frame.
const highBase = 1 << 50

// badFrames are the frames outside a table's window at base: one page
// below it, the first page past it, and one not 4KB-aligned.
func badFrames(base uint64) map[string]uint64 {
	return map[string]uint64{
		"below the base":  base - addr.Page4K.Bytes(),
		"at base+16 TiB":  base + FrameWindow,
		"not 4KB-aligned": base + 0x10_0800,
	}
}

// tableState is everything a refused write must leave as it was: every
// line of the live generations, the counters and statistics (copy-on-
// write bytes included), the cuckoo RNG, the CWT's pages and the
// allocator's bytes.
type tableState struct {
	lines      []line
	entries    uint64
	occupied   int
	stats      Stats
	rng        vhash.RNG
	dirty      bool
	cwtPages   []cwtPage[uint64]
	cwtEntries int
	cwtDirty   bool
	used       uint64
}

func stateOf(tb *Table[uint64]) tableState {
	s := tableState{
		entries: tb.entries, occupied: tb.occupied, stats: tb.Stats(),
		rng: *tb.rng, dirty: tb.dirty, used: tb.alloc.TotalUsed(),
	}
	for _, g := range []*generation[uint64]{tb.cur, tb.old} {
		if g == nil {
			continue
		}
		for w := range g.keys {
			for idx := 0; idx < g.linesPerWay; idx++ {
				s.lines = append(s.lines, g.load(w, idx))
			}
		}
	}
	if c := tb.cwt; c != nil {
		for i := 0; i < c.pages.Len(); i++ {
			s.cwtPages = append(s.cwtPages, *c.pages.At(i))
		}
		s.cwtEntries, s.cwtDirty = c.nEntries, c.dirty
	}
	return s
}

// windowTable is a 4KB table with a CWT over an allocator at base,
// holding a few translations, in concurrent mode when concurrent is set
// (so any write to a published page would count copy-on-write bytes).
func windowTable(t *testing.T, base uint64, concurrent bool) *Table[uint64] {
	t.Helper()
	alloc := memsim.NewAllocatorAt[uint64](base, 1<<30, 1)
	tb, err := New(addr.Page4K, DefaultConfig(8), alloc, NewCWT(addr.Page4K, alloc), 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for vpn := uint64(0); vpn < 64; vpn += 3 {
		if err := tb.Insert(vpn, base+vpn<<12); err != nil {
			t.Fatal(err)
		}
	}
	if concurrent {
		tb.EnterConcurrent(&EpochDomain{})
	}
	return tb
}

// TestInsertRefusesFramesOutsideWindow: a frame below the allocator's
// base, at or past base+16 TiB, or not 4KB-aligned has no 32-bit frame
// number, so Insert returns an error having written nothing: no line,
// entry, CWT bit, RNG draw or copied byte. That holds for a new line,
// whose placement would kick, and for a line that already exists.
func TestInsertRefusesFramesOutsideWindow(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		for what, frame := range badFrames(highBase) {
			t.Run(fmt.Sprintf("concurrent=%v/%s", concurrent, what), func(t *testing.T) {
				tb := windowTable(t, highBase, concurrent)
				// 1000 needs a new line; 4 shares the line of 3.
				for _, vpn := range []uint64{1000, 4} {
					before := stateOf(tb)
					if err := tb.Insert(vpn, frame); err == nil {
						t.Fatalf("Insert(%#x, %#x) accepted a frame outside the window", vpn, frame)
					}
					if after := stateOf(tb); !reflect.DeepEqual(before, after) {
						t.Fatalf("a refused Insert(%#x, %#x) changed the table", vpn, frame)
					}
					if f, ok := tb.Lookup(vpn); ok {
						t.Fatalf("refused vpn %#x resolves to %#x", vpn, f)
					}
				}
				if f, ok := tb.Lookup(3); !ok || f != highBase+3<<12 {
					t.Fatalf("Lookup(3) = %#x, %v after refused inserts beside it", f, ok)
				}
			})
		}
	}
}

// TestSetMapRefusesFramesOutsideWindow is the same check through
// Set.Map, which must not mark the larger sizes' CWTs has-smaller
// either.
func TestSetMapRefusesFramesOutsideWindow(t *testing.T) {
	for what, frame := range badFrames(highBase) {
		t.Run(what, func(t *testing.T) {
			alloc := memsim.NewAllocatorAt[uint64](highBase, 1<<30, 3)
			set, err := NewSet[uint64](ScaledSetConfig(true, 64), alloc, 1, 11)
			if err != nil {
				t.Fatal(err)
			}
			if err := set.Map(0x1000, addr.Page4K, highBase+0xAA000); err != nil {
				t.Fatal(err)
			}
			var before [addr.NumPageSizes]tableState
			for _, size := range addr.Sizes() {
				before[size] = stateOf(set.Table(size))
			}
			const va = 0x40_0000_1000 // a 2MB and 1GB region nothing maps
			if err := set.Map(va, addr.Page4K, frame); err == nil {
				t.Fatalf("Map(%#x, %#x) accepted a frame outside the window", va, frame)
			}
			for _, size := range addr.Sizes() {
				if after := stateOf(set.Table(size)); !reflect.DeepEqual(before[size], after) {
					t.Errorf("a refused Map changed the %s table", size.LevelName())
				}
			}
			if _, _, ok := set.Lookup(va); ok || set.Entries() != 1 {
				t.Fatalf("a refused Map left %d entries; Lookup ok=%v", set.Entries(), ok)
			}
		})
	}
}

// TestNewRefusesWideWindow: an allocator window wider than 16 TiB
// could mint frames no 32-bit frame number reaches, so New refuses it;
// one exactly 16 TiB wide is accepted.
func TestNewRefusesWideWindow(t *testing.T) {
	wide := memsim.NewAllocatorAt[uint64](highBase, FrameWindow+addr.Page4K.Bytes(), 1)
	if _, err := New(addr.Page4K, DefaultConfig(8), wide, nil, 1, 7); err == nil {
		t.Fatal("New accepted an allocator window wider than 16 TiB")
	}
	if _, err := NewSet[uint64](ScaledSetConfig(true, 64), wide, 1, 11); err == nil {
		t.Fatal("NewSet accepted an allocator window wider than 16 TiB")
	}
	exact := memsim.NewAllocatorAt[uint64](highBase, FrameWindow, 1)
	tb, err := New(addr.Page4K, DefaultConfig(8), exact, nil, 1, 7)
	if err != nil {
		t.Fatalf("New refused a 16 TiB window: %v", err)
	}
	if err := tb.Insert(1, highBase+FrameWindow-addr.Page4K.Bytes()); err != nil {
		t.Fatalf("Insert refused the window's last page: %v", err)
	}
}

// TestForkRefusesAnotherBase: a fork's tables share the template's
// stored frame numbers, which are offsets from the template allocator's
// base, so a fork onto an allocator based elsewhere is refused.
func TestForkRefusesAnotherBase(t *testing.T) {
	alloc := memsim.NewAllocatorAt[uint64](highBase, 1<<30, 3)
	set, err := NewSet[uint64](ScaledSetConfig(true, 64), alloc, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Map(0x1000, addr.Page4K, highBase+0xAA000); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Fork(memsim.NewAllocator[uint64](1<<30, 3)); err == nil {
		t.Fatal("Fork onto an allocator at another base succeeded")
	}
	if _, err := set.Fork(alloc.Fork()); err != nil {
		t.Fatalf("Fork onto the allocator's own fork: %v", err)
	}
}

// TestFrameWindowRoundTrip maps the window's first page, its last page
// and a page whose frame number has bit 31 set, at a base of 2^50, and
// reads each back exactly through Lookup, SnapshotLookup and the
// probes' Match/Frame: as inserted, in a fork, across a resize that
// migrates their lines, and from a published view.
func TestFrameWindowRoundTrip(t *testing.T) {
	want := map[uint64]uint64{
		5:    highBase,                                     // frame number 0
		6:    highBase + FrameWindow - addr.Page4K.Bytes(), // 0xFFFFFFFF
		4097: highBase + 1<<31<<12,                         // bit 31
		4098: highBase + (1<<31|0x5A5A5)<<12,
	}
	check := func(when string, tb *Table[uint64]) {
		t.Helper()
		for vpn, frame := range want {
			if f, ok := tb.Lookup(vpn); !ok || f != frame {
				t.Errorf("%s: Lookup(%#x) = %#x, %v; want %#x", when, vpn, f, ok, frame)
			}
			if f, ok := tb.SnapshotLookup(vpn); !ok || f != frame {
				t.Errorf("%s: SnapshotLookup(%#x) = %#x, %v; want %#x", when, vpn, f, ok, frame)
			}
			matches := 0
			for _, p := range tb.ProbesFor(vpn, AllWays) {
				if p.Match {
					matches++
					if p.Frame != frame {
						t.Errorf("%s: probe of %#x matched frame %#x; want %#x", when, vpn, p.Frame, frame)
					}
				}
			}
			if matches != 1 {
				t.Errorf("%s: %d probes of %#x matched; want 1", when, matches, vpn)
			}
		}
	}

	alloc := memsim.NewAllocatorAt[uint64](highBase, 1<<30, 1)
	cfg := DefaultConfig(8)
	cfg.MigratePerInsert = 1
	tb := MustNew(addr.Page4K, cfg, alloc, NewCWT(addr.Page4K, alloc), 1, 7)
	for vpn, frame := range want {
		if err := tb.Insert(vpn, frame); err != nil {
			t.Fatal(err)
		}
	}
	check("inserted", tb)

	f, err := tb.fork(alloc.Fork())
	if err != nil {
		t.Fatal(err)
	}
	check("forked", f)

	// Grow the fork until a resize has migrated every line of the
	// generation the four were inserted into, checking on the way.
	rng := vhash.NewRNG(9)
	for i := 0; f.Stats().Resizes == 0 || f.Resizing(); i++ {
		if i > 10_000 {
			t.Fatal("the fork never finished a resize")
		}
		vpn := 1<<20 + rng.Uint64n(1<<20)
		if err := f.Insert(vpn, highBase+rng.Uint64n(FrameWindow>>12)<<12); err != nil {
			t.Fatal(err)
		}
		if f.Resizing() {
			check(fmt.Sprintf("mid-resize, insert %d", i), f)
		}
	}
	if f.Stats().Migrated == 0 {
		t.Fatal("the resize migrated nothing")
	}
	check("after the resize", f)
	check("the template after the fork's writes", tb)

	f.EnterConcurrent(&EpochDomain{})
	check("published", f)
	want[5], want[6] = want[6], want[5]
	for _, vpn := range []uint64{5, 6} {
		if err := f.Insert(vpn, want[vpn]); err != nil {
			t.Fatal(err)
		}
	}
	f.Publish()
	check("republished after a swap", f)
}
