package paging

import (
	"maps"
	"runtime"
	"strings"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/memsim"
)

// kinds are the three table combinations an address space can build.
var kinds = []struct {
	name         string
	radix, ecpts bool
}{
	{"radix", true, false},
	{"ecpt", false, true},
	{"both", true, true},
}

func newTables(t *testing.T, withRadix, withECPT bool) *Tables[addr.GVA, addr.GPA] {
	t.Helper()
	// A small ECPT set, so the maps below resize it on both sides of a
	// fork.
	tab, err := New[addr.GVA](memsim.NewAllocator[addr.GPA](1<<30, 3), withRadix, withECPT, ecpt.ScaledSetConfig(false, 1024), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// mapping is one page a model expects an address space to hold.
type mapping struct {
	frame addr.GPA
	size  addr.PageSize
}

// model is the expected content of one address space, by page base.
type model map[addr.GVA]mapping

// mapPage allocates a frame from tab's own allocator and maps base to
// it, recording the page in m.
func mapPage(t *testing.T, tab *Tables[addr.GVA, addr.GPA], m model, base addr.GVA, size addr.PageSize) {
	t.Helper()
	frame, ok := tab.Allocator().Alloc(size, memsim.PurposeData)
	if !ok {
		t.Fatalf("out of memory mapping %#x", base)
	}
	if err := tab.Map(base, size, frame); err != nil {
		t.Fatal(err)
	}
	m[base] = mapping{frame, size}
}

// unmapPage unmaps the page at base through an address inside it.
func unmapPage(t *testing.T, tab *Tables[addr.GVA, addr.GPA], m model, base addr.GVA) {
	t.Helper()
	want := m[base].size
	size, ok := tab.Unmap(addr.Add(base, 0x123))
	if !ok || size != want {
		t.Fatalf("Unmap(%#x) = %v, %v; want %v, true", base, size, ok, want)
	}
	delete(m, base)
}

// check asserts tab translates exactly m's pages over every base in
// probe, and, when both structures are built, that they agree.
func check(t *testing.T, side string, tab *Tables[addr.GVA, addr.GPA], m model, probe []addr.GVA) {
	t.Helper()
	for _, base := range probe {
		va := addr.Add(base, 0x7)
		pa, size, ok := tab.Translate(va)
		want, mapped := m[base]
		switch {
		case ok != mapped:
			t.Fatalf("%s: %#x mapped = %v, want %v", side, va, ok, mapped)
		case ok && (size != want.size || pa != addr.Translate(want.frame, va, want.size)):
			t.Fatalf("%s: %#x → %#x (%v), want frame %#x (%v)", side, va, pa, size, want.frame, want.size)
		}
		if tab.Radix() == nil || tab.ECPTs() == nil {
			continue
		}
		rf, rs, rok := tab.Radix().Lookup(va)
		ef, es, eok := tab.ECPTs().Lookup(va)
		if rok != eok || (rok && (rf != ef || rs != es)) {
			t.Fatalf("%s: %#x radix (%#x %v %v) and ECPT (%#x %v %v) disagree", side, va, rf, rs, rok, ef, es, eok)
		}
	}
}

// TestForkIsolation maps and unmaps on both sides of a fork, for every
// table combination: neither side ever sees the other's paging.
func TestForkIsolation(t *testing.T) {
	const n = 512
	base4k := func(i int) addr.GVA { return addr.GVA(0x1000_0000 + uint64(i)*addr.Page4K.Bytes()) }
	base2m := func(i int) addr.GVA { return addr.GVA(0x4000_0000 + uint64(i)*addr.Page2M.Bytes()) }
	var probe []addr.GVA
	for i := 0; i < 4*n; i++ {
		probe = append(probe, base4k(i))
	}
	for i := 0; i < 16; i++ {
		probe = append(probe, base2m(i))
	}

	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			parent := newTables(t, k.radix, k.ecpts)
			pm := model{}
			for i := 0; i < n; i++ {
				mapPage(t, parent, pm, base4k(i), addr.Page4K)
			}
			for i := 0; i < 8; i++ {
				mapPage(t, parent, pm, base2m(i), addr.Page2M)
			}
			child, err := parent.Fork()
			if err != nil {
				t.Fatal(err)
			}
			cm := maps.Clone(pm)
			var resizes uint64
			if k.ecpts {
				resizes = parent.ECPTs().Table(addr.Page4K).Stats().Resizes
			}

			// Each side unmaps half of the shared pages (different
			// halves) and maps fresh ones the other never holds.
			for i := 0; i < n; i++ {
				if i%2 == 0 {
					unmapPage(t, parent, pm, base4k(i))
				} else {
					unmapPage(t, child, cm, base4k(i))
				}
			}
			unmapPage(t, parent, pm, base2m(0))
			unmapPage(t, child, cm, base2m(1))
			for i := n; i < 4*n; i++ {
				if i%3 == 0 {
					mapPage(t, parent, pm, base4k(i), addr.Page4K)
				} else {
					mapPage(t, child, cm, base4k(i), addr.Page4K)
				}
			}
			mapPage(t, parent, pm, base2m(8), addr.Page2M)
			mapPage(t, child, cm, base2m(9), addr.Page2M)

			check(t, "parent", parent, pm, probe)
			check(t, "fork", child, cm, probe)
			if k.ecpts {
				for _, side := range []*Tables[addr.GVA, addr.GPA]{parent, child} {
					if side.ECPTs().Table(addr.Page4K).Stats().Resizes <= resizes {
						t.Error("a side's maps never resized its 4KB ECPT after the fork")
					}
				}
			}
		})
	}
}

// TestFault pins the demand-paging rule guest and host share: 2MB pages
// only under THP, only when the caller allows one, and never in a
// region a 4KB fault has marked; a region is marked only under THP and
// only once its 4KB page is mapped.
func TestFault(t *testing.T) {
	const r0, r1 = addr.GVA(0x4000_0000), addr.GVA(0x4020_0000)
	// step is one Fault call under a given huge-page failure rate; oom
	// means the call must fail for want of a frame.
	type step struct {
		va        addr.GVA
		thp, huge bool
		frag      float64
		want      addr.PageSize
		oom       bool
	}
	exhaust := func(tab *Tables[addr.GVA, addr.GPA]) {
		for {
			if _, ok := tab.Allocator().Alloc(addr.Page4K, memsim.PurposeData); !ok {
				return
			}
		}
	}
	cases := []struct {
		name  string
		setup func(*Tables[addr.GVA, addr.GPA])
		steps []step
		small []addr.GVA // regions marked afterwards
		stats Stats
	}{
		{
			name:  "thp-off-records-no-region",
			steps: []step{{va: r0, huge: true, want: addr.Page4K}, {va: r0 + 0x1000, want: addr.Page4K}},
			stats: Stats{SmallMaps: 2},
		},
		{
			name:  "huge-gives-2MB",
			steps: []step{{va: r0 + 0x1234, thp: true, huge: true, want: addr.Page2M}},
			stats: Stats{HugeMaps: 1},
		},
		{
			name:  "not-huge-gives-4KB-and-marks",
			steps: []step{{va: r0 + 0x1234, thp: true, want: addr.Page4K}},
			small: []addr.GVA{r0},
			stats: Stats{SmallMaps: 1},
		},
		{
			name: "marked-region-stays-small",
			steps: []step{
				{va: r0, thp: true, frag: 1, huge: true, want: addr.Page4K},
				{va: r0 + 0x5000, thp: true, huge: true, want: addr.Page4K},
				{va: r1, thp: true, huge: true, want: addr.Page2M},
			},
			small: []addr.GVA{r0},
			stats: Stats{HugeMaps: 1, SmallMaps: 2, HugeFallback: 1},
		},
		{
			name:  "fragmentation-counts-fallback",
			steps: []step{{va: r0, thp: true, huge: true, frag: 1, want: addr.Page4K}},
			small: []addr.GVA{r0},
			stats: Stats{SmallMaps: 1, HugeFallback: 1},
		},
		{
			name:  "out-of-memory-leaves-region-unmarked",
			setup: exhaust,
			steps: []step{{va: r0, thp: true, huge: true, oom: true}, {va: r1, thp: true, oom: true}},
			stats: Stats{HugeFallback: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab := newTables(t, true, true)
			if tc.setup != nil {
				tc.setup(tab)
			}
			for i, s := range tc.steps {
				tab.Allocator().SetHugePageFailureRate(s.frag)
				pa, size, err := tab.Fault(s.va, s.thp, s.huge)
				if s.oom {
					if err == nil || !strings.Contains(err.Error(), "out of memory") {
						t.Fatalf("step %d: Fault(%#x) err = %v, want out of memory", i, s.va, err)
					}
					continue
				}
				if err != nil || size != s.want {
					t.Fatalf("step %d: Fault(%#x) = %v, %v; want %v", i, s.va, size, err, s.want)
				}
				if got, gs, ok := tab.Translate(s.va); !ok || got != pa || gs != size {
					t.Fatalf("step %d: %#x faulted to %#x (%v) but translates to %#x (%v, %v)", i, s.va, pa, size, got, gs, ok)
				}
			}
			want := map[addr.GVA]bool{}
			for _, r := range tc.small {
				want[r] = true
			}
			if !maps.Equal(tab.small, want) {
				t.Errorf("marked regions %v, want %v", tab.small, want)
			}
			if tab.Stats() != tc.stats {
				t.Errorf("stats %+v, want %+v", tab.Stats(), tc.stats)
			}
		})
	}
}

// TestFaultTablePageExhaustion runs a radix-only address space out of
// memory for its table pages: the allocator holds the root and one data
// page, so the fault finds its frame but not the level-3 table page
// under it. The fault must fail with an error, give the frame back and
// leave the tables, the region marks and the stats as they were.
func TestFaultTablePageExhaustion(t *testing.T) {
	for _, tc := range []struct {
		name      string
		huge      bool
		data      addr.PageSize
		remaining uint64 // bytes left after the root page
	}{
		{"4KB", false, addr.Page4K, addr.Page4K.Bytes()},
		{"2MB", true, addr.Page2M, addr.Page2M.Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alloc := memsim.NewAllocator[addr.GPA](tc.remaining+addr.Page4K.Bytes(), 3)
			tab, err := New[addr.GVA](alloc, true, false, ecpt.SetConfig{}, 1, 3)
			if err != nil {
				t.Fatal(err)
			}
			const va = addr.GVA(0x4000_0000)
			if _, _, err := tab.Fault(va, true, tc.huge); err == nil || !strings.Contains(err.Error(), "out of memory") {
				t.Fatalf("Fault = %v, want an out-of-memory error", err)
			}
			if _, _, ok := tab.Translate(va); ok {
				t.Error("the failed fault left va mapped")
			}
			if n := tab.Radix().Entries(); n != 0 {
				t.Errorf("radix entries %d, want 0", n)
			}
			if used := alloc.Used(memsim.PurposeData); used != 0 {
				t.Errorf("%d data bytes still allocated; the fault kept its frame", used)
			}
			if _, ok := alloc.Alloc(tc.data, memsim.PurposeData); !ok {
				t.Errorf("the %s frame was not given back", tc.data)
			}
			if len(tab.small) != 0 || tab.Stats() != (Stats{}) {
				t.Errorf("marks %v, stats %+v; want none", tab.small, tab.Stats())
			}
		})
	}
}

// TestForkKeepsOwnRegions checks a fork's 4KB-region marks and stats are
// its own: a 4KB fault on either side marks only that side's region, so
// the other side still takes a 2MB page there.
func TestForkKeepsOwnRegions(t *testing.T) {
	const r0, r1 = addr.GVA(0x4000_0000), addr.GVA(0x4020_0000)
	parent := newTables(t, true, true)
	if _, _, err := parent.Fault(addr.GVA(0x1000_0000), true, false); err != nil {
		t.Fatal(err)
	}
	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		faulter, other *Tables[addr.GVA, addr.GPA]
		region         addr.GVA
	}{{parent, child, r0}, {child, parent, r1}} {
		if _, size, err := f.faulter.Fault(f.region, true, false); err != nil || size != addr.Page4K {
			t.Fatalf("4KB fault at %#x: %v, %v", f.region, size, err)
		}
		if _, size, err := f.other.Fault(f.region+0x1000, true, true); err != nil || size != addr.Page2M {
			t.Fatalf("the other side's fault at %#x took %v (%v); another side's mark leaked", f.region, size, err)
		}
	}
	for _, side := range []*Tables[addr.GVA, addr.GPA]{parent, child} {
		if s := side.Stats(); s != (Stats{HugeMaps: 1, SmallMaps: 2}) || len(side.small) != 2 {
			t.Errorf("side stats %+v, %d marked regions; want 1 huge, 2 small maps and 2 marks", s, len(side.small))
		}
	}
}

// TestNewRadixOutOfMemory: an allocator with no room for the radix root
// page makes New return an error instead of panicking.
func TestNewRadixOutOfMemory(t *testing.T) {
	_, err := New[addr.GVA](memsim.NewAllocator[addr.GPA](0, 3), true, false, ecpt.SetConfig{}, 1, 3)
	if err == nil || !strings.Contains(err.Error(), "out of memory") {
		t.Fatalf("New over a zero-capacity allocator = %v, want an out-of-memory error", err)
	}
}

// TestForkCopiesNothingUpFront: a fork shares the radix slab, the ECPT
// ways and the CWT pages with its template. Forking tables over
// thousands of pages allocates less than one radix chunk plus the CWT
// pages, where copying them would allocate every chunk and every CWT
// page. The first write of the same page on each side then copies one
// radix chunk, with a table page and a CWT page of the ECPT set, on
// that side alone.
func TestForkCopiesNothingUpFront(t *testing.T) {
	const (
		pages      = 4096
		chunkBytes = 16 * 4096 // a radix chunk: 16 table pages
	)
	// Host-side ECPTs, which keep a PTE CWT, large enough that no
	// resize is in flight at the fork, so a write migrates nothing.
	tab, err := New[addr.GVA](memsim.NewAllocator[addr.GPA](1<<30, 3), true, true, ecpt.ScaledSetConfig(true, 4), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// One 4KB page per 2MB region: a radix L1 table page each, so the
	// slab spans pages/16 chunks, and 128 PTE-CWT pages.
	const stride = addr.GVA(2 << 20)
	base := addr.GVA(0x4000_0000_0000)
	m := model{}
	for i := addr.GVA(0); i < pages; i++ {
		mapPage(t, tab, m, base+i*stride, addr.Page4K)
	}
	var cwtBytes uint64
	for _, size := range addr.Sizes() {
		tb := tab.ECPTs().Table(size)
		if tb.Resizing() {
			t.Fatalf("%s table resizing at the fork", size)
		}
		if c := tb.CWT(); c != nil {
			cwtBytes += c.MemoryBytes()
		}
	}
	allocated := func(do func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		do()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var fork *Tables[addr.GVA, addr.GPA]
	if got := allocated(func() { fork, err = tab.Fork() }); err != nil {
		t.Fatal(err)
	} else if t.Logf("the fork allocated %d B", got); got >= chunkBytes+cwtBytes {
		t.Fatalf("the fork allocated %d B, want under %d (one radix chunk and the CWT pages)", got, chunkBytes+cwtBytes)
	}

	// The page after the eighth region's: the same radix L1 page, ECPT
	// line and CWT entry as a mapped page.
	va := base + 7*stride + 0x1000
	for _, s := range []struct {
		side  *Tables[addr.GVA, addr.GPA]
		frame addr.GPA
	}{{tab, 0x1000}, {fork, 0x2000}} {
		if got := allocated(func() { err = s.side.Map(va, addr.Page4K, s.frame) }); err != nil {
			t.Fatal(err)
		} else if t.Logf("a first write allocated %d B", got); got < chunkBytes || got >= 2*chunkBytes {
			t.Errorf("one side's first write allocated %d B, want one %d B radix chunk and a few KB", got, chunkBytes)
		}
		// One PTE table page is 512 B of keys and 2 KB of 32-bit frame
		// numbers, and its way's two page directories hold 64 pointers
		// each: 3584 B. One PTE-CWT page is 6160 B (its frame, its live
		// bitmap and 64 entries of 96 B), and its directory holds 128
		// pointers: 7184 B.
		const want = 512 + 2048 + 2*64*8 + 6160 + 128*8
		if cow := s.side.ECPTs().Table(addr.Page4K).Stats().COWBytes; cow != want {
			t.Errorf("one side's first write copied %d B of PTE table and CWT, want %d: a page of each", cow, want)
		}
	}
	if a, b := tab.ECPTs().COWBytes(), fork.ECPTs().COWBytes(); a != b {
		t.Errorf("the same write copied %d B on the template, %d B on the fork", a, b)
	}
	for _, s := range []struct {
		side  *Tables[addr.GVA, addr.GPA]
		frame addr.GPA
	}{{tab, 0x1000}, {fork, 0x2000}} {
		if pa, _, ok := s.side.Translate(va); !ok || pa != s.frame {
			t.Errorf("Translate(%#x) = %#x, %v; want the side's own %#x", va, pa, ok, s.frame)
		}
		if f, _, ok := s.side.Radix().Lookup(va); !ok || f != s.frame {
			t.Errorf("radix Lookup(%#x) = %#x, %v; want the side's own %#x", va, f, ok, s.frame)
		}
		check(t, "side", s.side, m, []addr.GVA{base, base + 7*stride, base + (pages-1)*stride})
	}
}

// TestMapRefusesFramesOutsideECPTWindow: a frame the ECPT set cannot
// store (below the allocator's base, at base+16 TiB, or not 4KB-aligned)
// makes Map return an error. Over radix and ECPTs, radix is left
// without the entry, whichever structure refused it.
func TestMapRefusesFramesOutsideECPTWindow(t *testing.T) {
	const base = 1 << 40
	for _, k := range kinds[1:] {
		for what, frame := range map[string]addr.GPA{
			"below the base":  base - 0x1000,
			"at base+16 TiB":  base + ecpt.FrameWindow,
			"not 4KB-aligned": base + 0x800,
		} {
			t.Run(k.name+"/"+what, func(t *testing.T) {
				tab, err := New[addr.GVA](memsim.NewAllocatorAt[addr.GPA](base, 1<<30, 3), k.radix, k.ecpts, ecpt.ScaledSetConfig(false, 1024), 1, 3)
				if err != nil {
					t.Fatal(err)
				}
				m := model{}
				mapPage(t, tab, m, 0x1000_0000, addr.Page4K)
				const va = addr.GVA(0x1000_1000)
				if err := tab.Map(va, addr.Page4K, frame); err == nil {
					t.Fatalf("Map(%#x, %#x) accepted a frame outside the ECPT window", va, frame)
				}
				if n := tab.ECPTs().Entries(); n != 1 {
					t.Errorf("a refused Map left %d ECPT entries, want 1", n)
				}
				if tab.Radix() != nil {
					if f, _, ok := tab.Radix().Lookup(va); ok {
						t.Errorf("a refused Map left radix mapping %#x to %#x", va, f)
					}
				}
				check(t, what, tab, m, []addr.GVA{0x1000_0000, va})
			})
		}
	}
}
