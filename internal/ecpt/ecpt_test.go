package ecpt

import (
	"errors"
	"testing"
	"testing/quick"
	"unsafe"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/vhash"
)

func newTestTable(t *testing.T, lines int, cwt bool) *Table[uint64] {
	t.Helper()
	alloc := memsim.NewAllocator[uint64](1<<30, 1)
	var c *CWT[uint64]
	if cwt {
		c = NewCWT(addr.Page4K, alloc)
	}
	tb, err := New(addr.Page4K, DefaultConfig(lines), alloc, c, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestInsertLookup(t *testing.T) {
	tb := newTestTable(t, 64, false)
	tb.Insert(100, 0xAA000)
	if f, ok := tb.Lookup(100); !ok || f != 0xAA000 {
		t.Fatalf("Lookup = %#x, %v", f, ok)
	}
	if _, ok := tb.Lookup(101); ok {
		t.Error("missing vpn resolved")
	}
	tb.Insert(100, 0xBB000) // overwrite
	if f, _ := tb.Lookup(100); f != 0xBB000 {
		t.Errorf("overwrite failed: %#x", f)
	}
	if tb.Entries() != 1 {
		t.Errorf("Entries = %d", tb.Entries())
	}
}

// TestLineKey pins the packed key word: the largest page number a
// 64-bit address has (52 bits) fits, group 0 is not the empty key, and
// a frame group is exactly one 64-byte line.
func TestLineKey(t *testing.T) {
	for _, tag := range []uint64{0, 1, lineTag(1<<52 - 1), keyTagMask - 1} {
		for _, present := range []uint8{1, 0x80, 0xFF} {
			key := makeKey(tag, present)
			if key == 0 || !keyHolds(key, tag) || keyHolds(key, tag+1) || keyTag(key) != tag || keyPresent(key) != present {
				t.Errorf("makeKey(%#x, %#x) = %#x: tag %#x present %#x", tag, present, key, keyTag(key), keyPresent(key))
			}
		}
		if keyHolds(0, tag) {
			t.Errorf("the empty key holds tag %#x", tag)
		}
	}
	// A frame group is 32 bytes: two groups to one 64-byte host line,
	// and a line value is its key word and its group.
	if got := unsafe.Sizeof(frameGroup{}); got != LineBytes/2 {
		t.Errorf("a frame group is %d bytes, want %d", got, LineBytes/2)
	}
	if got := unsafe.Sizeof(line{}); got != 8+LineBytes/2 {
		t.Errorf("a line is %d bytes, want %d", got, 8+LineBytes/2)
	}
}

// TestInsertRejectsOversizedPageNumber: a page number whose group tag
// would spill into the key's present bits is refused with an error
// before it can alias another line, and the table is left as it was;
// looking one up just misses.
func TestInsertRejectsOversizedPageNumber(t *testing.T) {
	tb := newTestTable(t, 64, false)
	tb.Insert(0, 0xAA000)
	huge := uint64(keyTagMask) * TranslationsPerLine
	if _, ok := tb.Lookup(huge); ok {
		t.Error("an oversized page number resolved")
	}
	for _, p := range tb.ProbesFor(huge+TranslationsPerLine, AllWays) {
		if p.TagMatch {
			t.Error("an oversized page number tag-matched a line")
		}
	}
	if err := tb.Insert(huge, 0xBB000); err == nil {
		t.Error("Insert accepted a page number that does not fit the key")
	}
	if tb.Entries() != 1 || tb.Stats().Inserts != 1 {
		t.Errorf("a refused insert changed the table: %d entries, %d inserts", tb.Entries(), tb.Stats().Inserts)
	}
}

func TestLinePacking(t *testing.T) {
	tb := newTestTable(t, 64, false)
	// Eight consecutive VPNs share one line (one occupied slot set).
	for v := uint64(800); v < 808; v++ {
		tb.Insert(v, v<<12)
	}
	if tb.OccupiedLines() != 1 {
		t.Errorf("8 consecutive VPNs occupy %d lines, want 1", tb.OccupiedLines())
	}
	for v := uint64(800); v < 808; v++ {
		if f, ok := tb.Lookup(v); !ok || f != v<<12 {
			t.Errorf("vpn %d lost", v)
		}
	}
	// The 9th consecutive VPN starts a new line.
	tb.Insert(808, 808<<12)
	if tb.OccupiedLines() != 2 {
		t.Errorf("lines = %d, want 2", tb.OccupiedLines())
	}
}

func TestRemove(t *testing.T) {
	tb := newTestTable(t, 64, false)
	tb.Insert(5, 0x1000)
	tb.Insert(6, 0x2000) // same line
	if !tb.Remove(5) {
		t.Error("Remove(5) = false")
	}
	if tb.Remove(5) {
		t.Error("double remove = true")
	}
	if _, ok := tb.Lookup(5); ok {
		t.Error("removed vpn resolves")
	}
	if f, ok := tb.Lookup(6); !ok || f != 0x2000 {
		t.Error("sibling slot damaged")
	}
	if tb.OccupiedLines() != 1 {
		t.Error("line freed while sibling present")
	}
	tb.Remove(6)
	if tb.OccupiedLines() != 0 {
		t.Error("empty line not freed")
	}
}

func TestElasticResizePreservesMappings(t *testing.T) {
	tb := newTestTable(t, 16, false) // tiny: forces several resizes
	const n = 4000
	for v := uint64(0); v < n; v++ {
		tb.Insert(v*9+1, (v+1)<<12) // spread tags
	}
	if tb.Stats().Resizes == 0 {
		t.Fatal("no resize happened; test ineffective")
	}
	for v := uint64(0); v < n; v++ {
		if f, ok := tb.Lookup(v*9 + 1); !ok || f != (v+1)<<12 {
			t.Fatalf("vpn %d lost after resizes (got %#x, %v)", v*9+1, f, ok)
		}
	}
	if tb.Entries() != n {
		t.Errorf("Entries = %d, want %d", tb.Entries(), n)
	}
}

func TestLoadFactorBounded(t *testing.T) {
	tb := newTestTable(t, 16, false)
	for v := uint64(0); v < 3000; v++ {
		tb.Insert(v*8, v<<12) // one line per vpn
		if !tb.Resizing() {
			lf := float64(tb.OccupiedLines()) / float64(tb.CapacityLines())
			if lf > 0.62 {
				t.Fatalf("steady-state load factor %.2f exceeds limit", lf)
			}
		}
	}
}

func TestProbesDirect(t *testing.T) {
	tb := newTestTable(t, 64, true)
	tb.Insert(42, 0x9000)
	info := tb.CWT().Query(42)
	if !info.WayKnown || !info.Present {
		t.Fatalf("CWT info = %+v", info)
	}
	probes := tb.ProbesFor(42, int(info.Way))
	if len(probes) != 1 {
		t.Fatalf("direct probe count = %d", len(probes))
	}
	if !probes[0].Match || probes[0].Frame != 0x9000 {
		t.Errorf("probe = %+v", probes[0])
	}
}

func TestProbesAllWays(t *testing.T) {
	tb := newTestTable(t, 64, false)
	tb.Insert(42, 0x9000)
	probes := tb.ProbesFor(42, AllWays)
	if len(probes) != tb.Ways() {
		t.Fatalf("probe count = %d, want %d", len(probes), tb.Ways())
	}
	matches := 0
	for _, p := range probes {
		if p.Match {
			matches++
			if p.Frame != 0x9000 {
				t.Errorf("matching frame = %#x", p.Frame)
			}
		}
	}
	if matches != 1 {
		t.Errorf("matches = %d, want exactly 1", matches)
	}
	// Probes of a missing vpn must not match.
	for _, p := range tb.ProbesFor(43, AllWays) {
		if p.Match {
			t.Error("probe matched missing vpn")
		}
	}
}

func TestProbeAddressesDistinctAndStable(t *testing.T) {
	tb := newTestTable(t, 64, false)
	tb.Insert(7, 0x1000)
	p1 := tb.ProbesFor(7, AllWays)
	p2 := tb.ProbesFor(7, AllWays)
	seen := map[uint64]bool{}
	for i := range p1 {
		if p1[i].PA != p2[i].PA {
			t.Error("probe addresses not stable")
		}
		if seen[p1[i].PA] {
			t.Error("two ways share a probe address")
		}
		seen[p1[i].PA] = true
	}
}

func TestProbesDuringResizeCoverBothGenerations(t *testing.T) {
	tb := newTestTable(t, 16, false)
	v := uint64(0)
	for ; !tb.Resizing(); v++ {
		tb.Insert(v*8, v<<12)
	}
	probes := tb.ProbesFor(0, AllWays)
	if len(probes) < tb.Ways() || len(probes) > 2*tb.Ways() {
		t.Errorf("resize probes = %d, want between d and 2d", len(probes))
	}
	// All previously inserted vpns are still found via probes.
	for u := uint64(0); u < v; u++ {
		found := false
		for _, p := range tb.ProbesFor(u*8, AllWays) {
			if p.Match && p.Frame == u<<12 {
				found = true
			}
		}
		if !found {
			t.Fatalf("vpn %d unreachable during resize", u*8)
		}
	}
}

func TestCWTCoherence(t *testing.T) {
	tb := newTestTable(t, 16, true)
	const n = 2000
	for v := uint64(0); v < n; v++ {
		tb.Insert(v*8, v<<12)
	}
	// After heavy cuckoo churn, the CWT's way info must still locate
	// every line exactly.
	for v := uint64(0); v < n; v++ {
		info := tb.CWT().Query(v * 8)
		if !info.WayKnown || !info.Present {
			t.Fatalf("vpn %d: CWT lost info %+v", v*8, info)
		}
		probes := tb.ProbesFor(v*8, int(info.Way))
		hit := false
		for _, p := range probes {
			if p.Match && p.Frame == v<<12 {
				hit = true
			}
		}
		if !hit {
			t.Fatalf("vpn %d: CWT way %d does not hold the line", v*8, info.Way)
		}
	}
}

func TestCWTClearOnRemove(t *testing.T) {
	tb := newTestTable(t, 64, true)
	tb.Insert(10, 0x1000)
	tb.Remove(10)
	info := tb.CWT().Query(10)
	if info.WayKnown || info.Present {
		t.Errorf("CWT info survives removal: %+v", info)
	}
}

func TestMemoryAccounting(t *testing.T) {
	tb := newTestTable(t, 64, false)
	base := tb.MemoryBytes()
	if base != uint64(3*64*LineBytes) {
		t.Errorf("initial memory = %d", base)
	}
	for v := uint64(0); v < 1000; v++ {
		tb.Insert(v*8, v<<12)
	}
	if tb.MemoryBytes() <= base {
		t.Error("memory did not grow through resizes")
	}
}

func TestConfigValidation(t *testing.T) {
	alloc := memsim.NewAllocator[uint64](1<<24, 1)
	bad := []Config{
		{Ways: 1, InitialLinesPerWay: 16, MaxKicks: 4, LoadFactorLimit: 0.5, MigratePerInsert: 1},
		{Ways: 3, InitialLinesPerWay: 0, MaxKicks: 4, LoadFactorLimit: 0.5, MigratePerInsert: 1},
		{Ways: 3, InitialLinesPerWay: 16, MaxKicks: 0, LoadFactorLimit: 0.5, MigratePerInsert: 1},
		{Ways: 3, InitialLinesPerWay: 16, MaxKicks: 4, LoadFactorLimit: 1.5, MigratePerInsert: 1},
		{Ways: 3, InitialLinesPerWay: 16, MaxKicks: 4, LoadFactorLimit: 0.5, MigratePerInsert: 0},
	}
	for i, cfg := range bad {
		if _, err := New(addr.Page4K, cfg, alloc, nil, 0, 0); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestAgainstReferenceMapProperty drives random insert/remove sequences
// and compares against a plain map.
func TestAgainstReferenceMapProperty(t *testing.T) {
	tb := newTestTable(t, 16, true)
	ref := map[uint64]uint64{}
	f := func(ops []struct {
		VPN    uint16
		Remove bool
	}) bool {
		for _, op := range ops {
			vpn := uint64(op.VPN)
			if op.Remove {
				_, want := ref[vpn]
				if got := tb.Remove(vpn); got != want {
					return false
				}
				delete(ref, vpn)
			} else {
				tb.Insert(vpn, (vpn+1)<<12)
				ref[vpn] = (vpn + 1) << 12
			}
		}
		for vpn, frame := range ref {
			if f, ok := tb.Lookup(vpn); !ok || f != frame {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCrowdedTableStaysCorrect: with two ways and one kick,
// displacement chains fail all the time, resizes in flight included. A
// failed chain is put back; a line migration cannot place waits for a
// later insert, and a new line no chain can place grows the table, the
// lines a resize in flight has not migrated moving straight into the
// new generation. Every translation stays, and the CWT names the way of
// every line.
func TestCrowdedTableStaysCorrect(t *testing.T) {
	crowdedTable(t, 8, 3000, 1)
	// Tables from one line a way: growing from so small, a new
	// generation sometimes cannot take the lines moved into it either,
	// and is filled again under fresh hash functions.
	for seed := uint64(0); seed < 500; seed++ {
		crowdedTable(t, 1, 40, seed)
	}
}

func crowdedTable(t *testing.T, lines int, ops, seed uint64) {
	t.Helper()
	cfg := Config{Ways: 2, InitialLinesPerWay: lines, MaxKicks: 1, LoadFactorLimit: 0.9, MigratePerInsert: 1}
	alloc := memsim.NewAllocator[uint64](1<<30, 1)
	tb := MustNew(addr.Page4K, cfg, alloc, NewCWT(addr.Page4K, alloc), 1, seed)
	model := map[uint64]uint64{}
	rng := vhash.NewRNG(seed)
	for i := uint64(0); i < ops; i++ {
		vpn := rng.Uint64n(1 << 14)
		if i%4 == 3 {
			_, mapped := model[vpn]
			if tb.Remove(vpn) != mapped {
				t.Fatalf("Remove(%#x) disagrees with the model", vpn)
			}
			delete(model, vpn)
			continue
		}
		if err := tb.Insert(vpn, i<<12); err != nil {
			t.Fatal(err)
		}
		model[vpn] = i << 12
	}
	if tb.Stats().Resizes < 2 || tb.Entries() != uint64(len(model)) {
		t.Fatalf("%d resizes, %d entries; want several resizes and %d entries", tb.Stats().Resizes, tb.Entries(), len(model))
	}
	for vpn, frame := range model {
		if got, ok := tb.Lookup(vpn); !ok || got != frame {
			t.Fatalf("vpn %#x = %#x, %v; want %#x", vpn, got, ok, frame)
		}
		_, w, _, _ := tb.findLine(lineTag(vpn))
		if info := tb.CWT().Query(vpn); !info.Present || !info.WayKnown || int(info.Way) != w {
			t.Fatalf("vpn %#x: CWT %+v, line in way %d", vpn, info, w)
		}
	}
}

// TestInsertOutOfMemoryWritesNothing: an insert whose resize finds no
// room returns the allocator's error and leaves the table as it was —
// entries, lines, CWT bits and the cuckoo RNG — while the old
// generation keeps serving.
func TestInsertOutOfMemoryWritesNothing(t *testing.T) {
	for _, kicks := range []int{1, 32} { // a resize forced by a failed chain, and by load
		cfg := Config{Ways: 2, InitialLinesPerWay: 64, MaxKicks: kicks, LoadFactorLimit: 0.5, MigratePerInsert: 1}
		// The table's two ways, a CWT page and one page to spare.
		alloc := memsim.NewAllocator[uint64](4*4096, 1)
		tb := MustNew(addr.Page4K, cfg, alloc, NewCWT(addr.Page4K, alloc), 1, 7)
		var vpn uint64
		for ; ; vpn += TranslationsPerLine {
			rng, entries, used := *tb.rng, tb.Entries(), alloc.TotalUsed()
			err := tb.Insert(vpn, vpn<<12)
			if err == nil {
				continue
			}
			var oom *memsim.OutOfMemoryError
			if !errors.As(err, &oom) || oom.Purpose != memsim.PurposePageTable {
				t.Fatalf("kicks %d: err = %v, want a page-table *memsim.OutOfMemoryError", kicks, err)
			}
			if *tb.rng != rng || tb.Entries() != entries || alloc.TotalUsed() != used || tb.Resizing() {
				t.Fatalf("kicks %d: the failed insert changed the table", kicks)
			}
			if _, ok := tb.Lookup(vpn); ok || tb.CWT().Query(vpn).Present {
				t.Fatalf("kicks %d: the failed insert mapped %#x", kicks, vpn)
			}
			break
		}
		for v := uint64(0); v < vpn; v += TranslationsPerLine {
			if got, ok := tb.Lookup(v); !ok || got != v<<12 {
				t.Fatalf("kicks %d: vpn %#x lost after the failed insert", kicks, v)
			}
		}
	}
}
