package ecpt

import (
	"fmt"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/vhash"
)

func newTestSet(t *testing.T, host bool) *Set[uint64, uint64] {
	t.Helper()
	alloc := memsim.NewAllocator[uint64](1<<30, 3)
	set, err := NewSet[uint64](ScaledSetConfig(host, 64), alloc, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestSetMapLookupAllSizes(t *testing.T) {
	set := newTestSet(t, true)
	set.Map(0x1000, addr.Page4K, 0xAA000)
	set.Map(0x4000_0000, addr.Page2M, 0x20_0000)
	set.Map(0x1_0000_0000, addr.Page1G, 0x4000_0000)

	cases := []struct {
		va    uint64
		frame uint64
		size  addr.PageSize
	}{
		{0x1FFF, 0xAA000, addr.Page4K},
		{0x4000_0000 + 777, 0x20_0000, addr.Page2M},
		{0x1_0000_0000 + (1 << 28), 0x4000_0000, addr.Page1G},
	}
	for _, c := range cases {
		f, s, ok := set.Lookup(c.va)
		if !ok || f != c.frame || s != c.size {
			t.Errorf("Lookup(%#x) = %#x %v %v", c.va, f, s, ok)
		}
		pa, s2, ok := set.Translate(c.va)
		if !ok || s2 != c.size || pa != addr.Translate(c.frame, c.va, c.size) {
			t.Errorf("Translate(%#x) = %#x %v %v", c.va, pa, s2, ok)
		}
	}
	if set.Entries() != 3 {
		t.Errorf("Entries = %d", set.Entries())
	}
}

func TestSetUnmap(t *testing.T) {
	set := newTestSet(t, false)
	set.Map(0x1000, addr.Page4K, 0xAA000)
	if !set.Unmap(0x1000, addr.Page4K) {
		t.Error("Unmap failed")
	}
	if _, _, ok := set.Lookup(0x1000); ok {
		t.Error("unmapped address resolves")
	}
	if set.Unmap(0x1000, addr.Page4K) {
		t.Error("double unmap succeeded")
	}
}

func TestSetHierarchicalHasSmaller(t *testing.T) {
	set := newTestSet(t, true)
	set.Map(0x1000, addr.Page4K, 0xAA000)
	// Mapping a 4KB page must mark the 2MB and 1GB CWTs so walkers
	// descend.
	pmd := set.Table(addr.Page2M).CWT().Query(addr.VPN(uint64(0x1000), addr.Page2M))
	if !pmd.EntryExists || !pmd.HasSmaller {
		t.Errorf("PMD CWT = %+v", pmd)
	}
	pud := set.Table(addr.Page1G).CWT().Query(addr.VPN(uint64(0x1000), addr.Page1G))
	if !pud.EntryExists || !pud.HasSmaller {
		t.Errorf("PUD CWT = %+v", pud)
	}
	// Mapping a 2MB page marks only the 1GB CWT.
	set.Map(0x8000_0000, addr.Page2M, 0x20_0000)
	pud2 := set.Table(addr.Page1G).CWT().Query(addr.VPN(uint64(0x8000_0000), addr.Page1G))
	if !pud2.HasSmaller {
		t.Errorf("PUD CWT after 2MB map = %+v", pud2)
	}
}

func TestSetCWTLayout(t *testing.T) {
	host := newTestSet(t, true)
	if host.Table(addr.Page4K).CWT() == nil {
		t.Error("host set missing PTE-CWT (needed by Step-1/Step-3 caching)")
	}
	guest := newTestSet(t, false)
	if guest.Table(addr.Page4K).CWT() != nil {
		t.Error("guest set has a PTE-CWT (the paper keeps none, §4.2)")
	}
	for _, set := range []*Set[uint64, uint64]{host, guest} {
		if set.Table(addr.Page2M).CWT() == nil || set.Table(addr.Page1G).CWT() == nil {
			t.Error("PMD/PUD CWTs missing")
		}
	}
}

func TestSetMemoryBytes(t *testing.T) {
	set := newTestSet(t, true)
	base := set.MemoryBytes()
	if base == 0 {
		t.Fatal("no memory accounted for fresh set")
	}
	for v := uint64(0); v < 10000; v++ {
		set.Map(v<<12, addr.Page4K, v<<12)
	}
	if set.MemoryBytes() <= base {
		t.Error("memory accounting did not grow")
	}
}

func TestSetLookupPrefersLargest(t *testing.T) {
	// A malformed double mapping (same VA at two sizes) must resolve
	// deterministically to the largest size, mirroring hardware probe
	// priority.
	set := newTestSet(t, true)
	set.Map(0x4000_0000, addr.Page2M, 0x20_0000)
	set.Table(addr.Page4K).Insert(addr.VPN(uint64(0x4000_0000), addr.Page4K), 0xAA000)
	_, s, _ := set.Lookup(0x4000_0000)
	if s != addr.Page2M {
		t.Errorf("resolved size %v, want 2MB", s)
	}
}

func TestScaledSetConfigFloors(t *testing.T) {
	sc := ScaledSetConfig(true, 1<<20)
	for _, s := range addr.Sizes() {
		if sc.PerSize[s].InitialLinesPerWay < 64 {
			t.Errorf("%v lines floor violated: %d", s, sc.PerSize[s].InitialLinesPerWay)
		}
	}
	full := DefaultSetConfig(true)
	if full.PerSize[addr.Page4K].InitialLinesPerWay != 16384 {
		t.Errorf("Table 2 PTE initial size = %d", full.PerSize[addr.Page4K].InitialLinesPerWay)
	}
}

// searchLine is findLine without the cursor: the full search the
// cursor must always agree with.
func searchLine(t *Table[uint64], tag uint64) (g *generation[uint64], w, idx int, ok bool) {
	for w := 0; w < t.cfg.Ways; w++ {
		if idx := t.cur.index(w, tag); keyHolds(t.cur.key(w, idx), tag) {
			return t.cur, w, idx, true
		}
	}
	if t.old != nil {
		for w := 0; w < t.cfg.Ways; w++ {
			if idx := t.old.index(w, tag); idx >= t.migratePtr[w] && keyHolds(t.old.key(w, idx), tag) {
				return t.old, w, idx, true
			}
		}
	}
	return nil, 0, 0, false
}

// checkFindLine compares findLine, cursor and all, with searchLine.
func checkFindLine(tb *Table[uint64], tag uint64) error {
	g, w, idx, key := tb.findLine(tag)
	if wg, ww, widx, wok := searchLine(tb, tag); g != wg || w != ww || idx != widx || (key != 0) != wok || wok && key != wg.key(ww, widx) {
		return fmt.Errorf("findLine(%#x) = %p/%d/%d/%#x, the search finds %p/%d/%d/%v", tag, g, w, idx, key, wg, ww, widx, wok)
	}
	return nil
}

// keptCursor is a cursor a table once held, with the tag its slot held
// then and what the latest replay found it to be.
type keptCursor struct {
	tb    *Table[uint64]
	c     lineCursor[uint64]
	tag   uint64
	state string
}

// classify says whether k is still good for its tag and, if not, what
// made it stale.
func (k *keptCursor) classify() string {
	tb, c := k.tb, k.c
	if c.g != tb.cur && c.g != tb.old {
		for _, g := range []*generation[uint64]{tb.cur, tb.old} {
			if g != nil && &g.basePA[0] == &c.g.basePA[0] {
				return "clone" // writable replaced the sealed generation
			}
		}
		return "resize"
	}
	key := c.g.key(c.w, c.idx)
	switch _, _, _, found := searchLine(tb, k.tag); {
	case keyHolds(key, k.tag):
		return "hit"
	case found:
		return "moved" // by a kick or by migration
	case key == 0:
		return "emptied"
	}
	return "reused"
}

// cursorOracle replays cursors the tables have held long after they
// moved on, so every way a cursor goes stale meets findLine: each kept
// cursor is installed, findLine asked for its tag and checked against
// the full search, and the table's own cursor put back. It keeps a
// table's current cursor whenever no good kept cursor names the same
// generation, and drops a kept cursor once its generation is gone.
type cursorOracle struct {
	kept   []*keptCursor
	states map[string]int // state changes seen, by the state entered
}

func (o *cursorOracle) replay(tables []*Table[uint64]) error {
	live := o.kept[:0]
	for _, k := range o.kept {
		if st := k.classify(); st != k.state {
			o.states[st]++
			k.state = st
		}
		own := k.tb.cursor
		k.tb.cursor = k.c
		err := checkFindLine(k.tb, k.tag)
		k.tb.cursor = own
		if err != nil {
			return fmt.Errorf("kept cursor (%s): %v", k.state, err)
		}
		if k.state != "resize" && k.state != "clone" {
			live = append(live, k)
		}
	}
	o.kept = live
	for _, tb := range tables {
		c := tb.cursor
		if c.g != tb.cur && c.g != tb.old || c.g.key(c.w, c.idx) == 0 {
			continue
		}
		covered := false
		for _, k := range o.kept {
			covered = covered || k.tb == tb && k.c.g == c.g && k.state == "hit"
		}
		if !covered {
			o.kept = append(o.kept, &keptCursor{tb: tb, c: c, tag: keyTag(c.g.key(c.w, c.idx)), state: "hit"})
		}
	}
	return nil
}

// TestSetLookupOracle checks Set.Lookup against a plain map across the
// transitions its empty-table skip depends on: random Map/Unmap/Lookup
// over all three sizes, with cycles that drain one table to zero
// entries — while an elastic resize is still migrating it — and refill
// it. In concurrent mode the same sequence runs between Publish calls,
// where the writer must see its own staged maps and unmaps while the
// published view still answers readers with the old state.
//
// It also holds each table's line cursor to the full search: a
// sequential-run op maps consecutive pages and looks each up, the way
// Prepopulate does, and must find the cursor holding the line; after
// every op a cursorOracle replays old cursors, and the run must see one
// rejected after each way it can go stale.
func TestSetLookupOracle(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		for _, seed := range []uint64{1, 7} {
			t.Run(fmt.Sprintf("concurrent=%v/seed=%d", concurrent, seed), func(t *testing.T) {
				testSetLookupOracle(t, concurrent, seed)
			})
		}
	}
}

func testSetLookupOracle(t *testing.T, concurrent bool, seed uint64) {
	// Small tables that migrate one bucket per insert, so a resize
	// stays in flight long enough to be drained under.
	var cfg SetConfig
	for _, size := range addr.Sizes() {
		cfg.PerSize[size] = Config{Ways: 3, InitialLinesPerWay: 8, MaxKicks: 32, LoadFactorLimit: 0.6, MigratePerInsert: 1}
		cfg.WithCWT[size] = true
	}
	alloc := memsim.NewAllocatorAt[uint64](windowBase, 1<<30, seed)
	set, err := NewSet[uint64](cfg, alloc, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	if concurrent {
		set.EnterConcurrent(&EpochDomain{})
	}

	// Each size maps pages of its own disjoint VA range, every fifth
	// page of it, so at most one size maps an address and lines hold a
	// mix of one and two translations.
	bases := [addr.NumPageSizes]uint64{addr.Page4K: 0, addr.Page2M: 1 << 36, addr.Page1G: 1 << 41}
	universe := [addr.NumPageSizes]int{addr.Page4K: 2048, addr.Page2M: 512, addr.Page1G: 256}
	pageVA := func(size addr.PageSize, idx int) uint64 {
		return bases[size] + uint64(idx)*5*size.Bytes()
	}

	type key struct {
		size addr.PageSize
		vpn  uint64
	}
	model := make(map[key]uint64)
	rng := vhash.NewRNG(seed)
	var tables []*Table[uint64]
	for _, size := range addr.Sizes() {
		tables = append(tables, set.Table(size))
	}
	oracle := cursorOracle{states: make(map[string]int)}
	replay := func(when string) {
		t.Helper()
		if err := oracle.replay(tables); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	// runs holds every page a sequential run mapped, for the drain.
	var runs [addr.NumPageSizes][]uint64
	runHits, runLookups := 0, 0
	// cursorHolds reports whether va's table would answer va from its
	// cursor.
	cursorHolds := func(size addr.PageSize, va uint64) bool {
		tb := set.Table(size)
		c := tb.cursor
		return (c.g == tb.cur || c.g == tb.old) && keyHolds(c.g.key(c.w, c.idx), lineTag(addr.VPN(va, size)))
	}

	check := func(when string, va uint64) {
		t.Helper()
		var wantFrame uint64
		wantSize, want := addr.Page4K, false
		for _, size := range addr.Sizes() {
			if f, ok := model[key{size, addr.VPN(va, size)}]; ok {
				wantFrame, wantSize, want = f, size, true
			}
		}
		if f, size, ok := set.Lookup(va); ok != want || f != wantFrame || size != wantSize {
			t.Fatalf("%s: Lookup(%#x) = %#x,%v,%v; model has %#x,%v,%v", when, va, f, size, ok, wantFrame, wantSize, want)
		}
		for _, size := range addr.Sizes() {
			if err := checkFindLine(set.Table(size), lineTag(addr.VPN(va, size))); err != nil {
				t.Fatalf("%s: %v table: %v", when, size, err)
			}
		}
	}
	mapVA := func(size addr.PageSize, va uint64) {
		frame := windowFrame(rng, size)
		set.Map(va, size, frame)
		model[key{size, addr.VPN(va, size)}] = frame
	}
	mapPage := func(size addr.PageSize, idx int) { mapVA(size, pageVA(size, idx)) }
	unmapVA := func(when string, size addr.PageSize, va uint64) {
		t.Helper()
		k := key{size, addr.VPN(va, size)}
		_, live := model[k]
		if set.Unmap(va, size) != live {
			t.Fatalf("%s: Unmap(%#x, %v) disagrees with the model (live=%v)", when, va, size, live)
		}
		delete(model, k)
	}
	unmapPage := func(when string, size addr.PageSize, idx int) {
		t.Helper()
		unmapVA(when, size, pageVA(size, idx))
	}
	sweep := func(when string) {
		t.Helper()
		for _, size := range addr.Sizes() {
			for idx := 0; idx < universe[size]; idx++ {
				check(when, pageVA(size, idx)+rng.Uint64n(size.Bytes()))
			}
		}
	}

	drainedResizing := 0
	const ops = 6000
	for i := 0; i < ops; i++ {
		size := addr.Sizes()[rng.Intn(addr.NumPageSizes)]
		idx := rng.Intn(universe[size])
		when := fmt.Sprintf("op %d", i)
		switch op := rng.Intn(10); {
		case op < 5:
			mapPage(size, idx)
		case op < 8:
			unmapPage(when, size, idx)
		case op < 9:
			// A sequential run: consecutive pages mapped, then each
			// looked up along with the page past the end.
			n := 1 + rng.Intn(3*TranslationsPerLine)
			for j := 0; j < n; j++ {
				va := pageVA(size, idx) + uint64(j)*size.Bytes()
				mapVA(size, va)
				runs[size] = append(runs[size], va)
			}
			for j := 0; j <= n; j++ {
				va := pageVA(size, idx) + uint64(j)*size.Bytes() + rng.Uint64n(size.Bytes())
				if cursorHolds(size, va) {
					runHits++
				}
				runLookups++
				check(when+", run", va)
			}
		}
		check(when, pageVA(size, idx)+rng.Uint64n(size.Bytes()))
		other := addr.Sizes()[rng.Intn(addr.NumPageSizes)]
		check(when, pageVA(other, rng.Intn(universe[other]))+rng.Uint64n(other.Bytes()))
		if concurrent && i%97 == 0 {
			set.Publish()
		}
		replay(when)
		if i%500 != 499 {
			continue
		}

		// Drain cycle: grow one table until a resize is in flight,
		// publish, unmap everything it holds, and refill part of it.
		size = addr.Sizes()[(i/500)%addr.NumPageSizes]
		tb := set.Table(size)
		when = fmt.Sprintf("drain at op %d of the %v table", i, size)
		for idx := 0; idx < universe[size] && !tb.Resizing(); idx++ {
			mapPage(size, idx)
		}
		if concurrent {
			set.Publish()
		}
		replay(when + ", grown")
		witness := -1
		for idx := 0; idx < universe[size]; idx++ {
			if _, live := model[key{size, addr.VPN(pageVA(size, idx), size)}]; live {
				witness = idx
			}
			unmapPage(when, size, idx)
		}
		for _, va := range runs[size] {
			unmapVA(when, size, va)
		}
		runs[size] = nil
		replay(when + ", drained")
		if tb.Entries() != 0 {
			t.Fatalf("%s: %d entries left", when, tb.Entries())
		}
		if tb.Resizing() {
			drainedResizing++
		}
		sweep(when)
		if concurrent && witness >= 0 {
			// The unmaps are staged: readers still resolve the page.
			if _, ok := tb.SnapshotLookup(addr.VPN(pageVA(size, witness), size)); !ok {
				t.Fatalf("%s: published view lost page %d before Publish", when, witness)
			}
			set.Publish()
			if _, ok := tb.SnapshotLookup(addr.VPN(pageVA(size, witness), size)); ok {
				t.Fatalf("%s: published view still maps page %d after Publish", when, witness)
			}
		}
		// Refill from empty: the first map is staged onto an empty
		// published table, and the writer must see it at once.
		for idx := 0; idx < universe[size]; idx += 2 {
			mapPage(size, idx)
			check(when+", refill", pageVA(size, idx))
		}
		sweep(when + ", refilled")
		replay(when + ", refilled")
	}
	sweep("final")
	if drainedResizing == 0 {
		t.Fatal("no table was ever drained during a resize; property not exercised")
	}
	t.Logf("%d of %d drains happened during a resize", drainedResizing, ops/500)
	t.Logf("cursor held the line for %d of %d run lookups; kept cursors went %v", runHits, runLookups, oracle.states)
	if runHits == 0 {
		t.Fatal("no run lookup found its line at the cursor")
	}
	stale := []string{"emptied", "moved", "resize"}
	if concurrent {
		stale = append(stale, "clone")
	}
	for _, st := range stale {
		if oracle.states[st] == 0 {
			t.Errorf("no kept cursor was ever rejected as %s", st)
		}
	}
}

// TestCursorSkipsSealedGeneration is the witness for findLine's
// generation compare. A Publish seals the generation the cursor names;
// the next Insert into that line clones it, and the cursor, still naming
// the sealed original, holds the right tag in a generation the writer no
// longer owns. Trusting it would send the following Insert into a
// detached copy: the writer would lose the page, and so would readers
// after the next Publish.
func TestCursorSkipsSealedGeneration(t *testing.T) {
	tb, _, _ := newConcurrentTable(t, 64, false)
	tb.Insert(0x100, 0xA000)
	tb.Publish()
	sealed := tb.cur
	tb.Insert(0x101, 0xB000)
	if tb.cursor.g != sealed || tb.cur == sealed {
		t.Fatal("the cursor does not name a sealed generation the writer replaced; the witness needs one")
	}
	tb.Insert(0x102, 0xC000)

	frames := map[uint64]uint64{0x100: 0xA000, 0x101: 0xB000, 0x102: 0xC000}
	for _, vpn := range []uint64{0x100, 0x101, 0x102} {
		if f, ok := tb.Lookup(vpn); !ok || f != frames[vpn] {
			t.Errorf("writer Lookup(%#x) = %#x,%v; want %#x", vpn, f, ok, frames[vpn])
		}
		f, ok := tb.SnapshotLookup(vpn)
		if published := vpn == 0x100; ok != published || (ok && f != frames[vpn]) {
			t.Errorf("before Publish, SnapshotLookup(%#x) = %#x,%v; readers must see only the published page", vpn, f, ok)
		}
	}
	tb.Publish()
	for _, vpn := range []uint64{0x100, 0x101, 0x102} {
		if f, ok := tb.SnapshotLookup(vpn); !ok || f != frames[vpn] {
			t.Errorf("after Publish, SnapshotLookup(%#x) = %#x,%v; want %#x", vpn, f, ok, frames[vpn])
		}
	}
}
