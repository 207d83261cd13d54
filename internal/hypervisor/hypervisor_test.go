package hypervisor

import (
	"errors"
	"strings"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/memsim"
)

func newHyp(t *testing.T, thp bool, both bool) *Hypervisor {
	t.Helper()
	cfg := Config{
		HostMemBytes: 1 << 30,
		THP:          thp,
		BuildECPT:    true,
		BuildRadix:   both,
		ECPT:         ecpt.ScaledSetConfig(true, 64),
		Seed:         9,
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestEnsureMappedDemand(t *testing.T) {
	h := newHyp(t, false, false)
	faulted, err := h.EnsureMapped(0x1234_5678, false)
	if err != nil || !faulted {
		t.Fatalf("first EnsureMapped: %v %v", faulted, err)
	}
	faulted, err = h.EnsureMapped(0x1234_5000, false)
	if err != nil || faulted {
		t.Fatalf("second EnsureMapped faulted: %v %v", faulted, err)
	}
	if _, _, ok := h.Translate(0x1234_5678); !ok {
		t.Error("mapped gPA does not translate")
	}
	if h.Stats().NestedFaults != 1 {
		t.Errorf("faults = %d", h.Stats().NestedFaults)
	}
}

func TestTHPBacksDataWithHugePages(t *testing.T) {
	h := newHyp(t, true, false)
	h.EnsureMapped(0x4020_1234, false)
	_, size, ok := h.Translate(0x4020_1234)
	if !ok || size != addr.Page2M {
		t.Fatalf("THP data mapping size = %v, ok=%v", size, ok)
	}
	// Whole 2MB gPA region covered.
	if f, _ := h.EnsureMapped(0x403F_FFFF, false); f {
		t.Error("sibling gPA faulted under huge mapping")
	}
}

func TestPageTablePagesAlways4K(t *testing.T) {
	h := newHyp(t, true, false)
	h.EnsureMapped(0x5000_1000, true)
	_, size, ok := h.Translate(0x5000_1000)
	if !ok || size != addr.Page4K {
		t.Fatalf("page-table gPA mapped with %v, want 4KB (§4.3)", size)
	}
}

func TestSmallRegionBlocksHugeMapping(t *testing.T) {
	h := newHyp(t, true, false)
	// First a 4KB page-table mapping inside a 2MB region...
	h.EnsureMapped(0x6000_0000, true)
	// ...then a data fault in the same region must not huge-map over it.
	h.EnsureMapped(0x6000_5000, false)
	_, size, ok := h.Translate(0x6000_5000)
	if !ok || size != addr.Page4K {
		t.Fatalf("conflicting region mapped with %v", size)
	}
}

func TestRadixAndECPTAgree(t *testing.T) {
	h := newHyp(t, true, true)
	gpas := []addr.GPA{0x1000, 0x20_0000, 0x1234_5000, 0x4000_0000}
	for _, gpa := range gpas {
		if _, err := h.EnsureMapped(gpa, gpa%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, gpa := range gpas {
		rf, rs, rok := h.Radix().Lookup(gpa)
		ef, es, eok := h.ECPTs().Lookup(gpa)
		if rok != eok || rf != ef || rs != es {
			t.Errorf("gpa %#x: radix (%#x,%v,%v) vs ecpt (%#x,%v,%v)", gpa, rf, rs, rok, ef, es, eok)
		}
	}
}

func TestHugeFallbackUnderFragmentation(t *testing.T) {
	cfg := Config{
		HostMemBytes:        1 << 30,
		THP:                 true,
		BuildECPT:           true,
		ECPT:                ecpt.ScaledSetConfig(true, 64),
		Seed:                9,
		HugePageFailureRate: 1.0,
	}
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.EnsureMapped(0x7000_0000, false)
	if _, size, _ := h.Translate(0x7000_0000); size != addr.Page4K {
		t.Errorf("fragmented host mapped %v", size)
	}
	if h.Stats().HugeFallback == 0 {
		t.Error("fallback not counted")
	}
	// The region fell back to 4KB pages; it stays small even once huge
	// frames are available again.
	h.Allocator().SetHugePageFailureRate(0)
	for gpa := addr.GPA(0x7000_1000); gpa < 0x7020_0000; gpa += 0x3_3000 {
		if _, size, _, err := h.Resolve(gpa, false); err != nil || size != addr.Page4K {
			t.Fatalf("resolve of %#x in a fallen-back region: size=%v err=%v, want 4KB", gpa, size, err)
		}
	}
}

// TestTHPOffKeepsNoRegionState pins that a THP-off host maps every gPA
// with a 4KB page. That it records no 2MB-region state on the way is
// paging's TestFault.
func TestTHPOffKeepsNoRegionState(t *testing.T) {
	h := newHyp(t, false, false)
	for gpa := addr.GPA(0); gpa < 8<<20; gpa += 0x1000 {
		if _, size, _, err := h.Resolve(gpa, gpa%(1<<20) == 0); err != nil || size != addr.Page4K {
			t.Fatalf("THP-off resolve of %#x: size=%v err=%v", gpa, size, err)
		}
	}
}

// TestSmallMapsCounted pins that every 4KB host fault counts in
// SmallMaps, THP off and on. Under THP the region's first fault is a
// page-table gPA, which is backed by a 4KB page and so keeps the data
// gPAs after it in 4KB pages too.
func TestSmallMapsCounted(t *testing.T) {
	for _, thp := range []bool{false, true} {
		h := newHyp(t, thp, false)
		const n = 64
		for i := 0; i < n; i++ {
			gpa := addr.GPA(0x4000_0000 + i*0x1000)
			_, size, faulted, err := h.Resolve(gpa, i%4 == 0)
			if err != nil || !faulted || size != addr.Page4K {
				t.Fatalf("thp=%v: Resolve(%#x) = %v, faulted=%v, err=%v; want a 4KB fault", thp, gpa, size, faulted, err)
			}
		}
		if s := h.Stats(); s.SmallMaps != n || s.HugeMaps != 0 {
			t.Errorf("thp=%v: after %d 4KB faults stats = %+v", thp, n, s)
		}
	}
}

func TestPageTableMemoryAccounting(t *testing.T) {
	h := newHyp(t, false, false)
	base := h.PageTableMemoryBytes()
	for i := uint64(0); i < 5000; i++ {
		h.EnsureMapped(addr.GPA(i)<<12, false)
	}
	if h.PageTableMemoryBytes() <= base {
		t.Error("host page-table memory did not grow")
	}
}

func TestConfigRequiresSomeTables(t *testing.T) {
	if _, err := New(Config{HostMemBytes: 1 << 20}); err == nil {
		t.Error("config with no tables accepted")
	}
}

// hypState is everything Resolve and the EnsureMapped+Translate pair it
// replaces must leave identical.
type hypState struct {
	stats   Stats
	used    [3]uint64
	entries uint64
}

func stateOf(h *Hypervisor) hypState {
	s := hypState{stats: h.Stats(), entries: h.ECPTs().Entries()}
	for p := range s.used {
		s.used[p] = h.Allocator().Used(memsim.Purpose(p))
	}
	return s
}

// TestResolveMatchesEnsureMappedTranslate drives two identically seeded
// hypervisors through the same guest-physical addresses, one with
// Resolve and one with the EnsureMapped-then-Translate pair, and
// requires the same answers and the same state after every step.
func TestResolveMatchesEnsureMappedTranslate(t *testing.T) {
	type access struct {
		gpa       addr.GPA
		pageTable bool
	}
	consecutive := func(base addr.GPA, n int) []access {
		as := make([]access, n)
		for i := range as {
			as[i].gpa = addr.Add(base, uint64(i)*addr.Page4K.Bytes())
		}
		return as
	}
	cases := []struct {
		name     string
		thp      bool
		hugeFail float64
		memBytes uint64
		accesses []access
		// wantErr, when set, is the error some access must end the
		// sequence with.
		wantErr string
	}{
		{name: "first-touch", accesses: []access{{gpa: 0x1234_5678}}},
		{name: "re-touch", accesses: []access{{gpa: 0x1234_5678}, {gpa: 0x1234_5000}, {gpa: 0x1234_5678}}},
		{name: "thp-hit", thp: true, accesses: []access{{gpa: 0x4020_1234}, {gpa: 0x403F_FFFF}}},
		{name: "thp-fallback", thp: true, hugeFail: 1, accesses: []access{{gpa: 0x7000_0000}, {gpa: 0x7000_1000}, {gpa: 0x7000_0040}}},
		{name: "page-table-gpa", thp: true, accesses: []access{{gpa: 0x6000_0000, pageTable: true}, {gpa: 0x6000_5000}, {gpa: 0x6020_0000}}},
		{name: "out-of-memory", memBytes: 512 << 10, accesses: consecutive(0x1000_0000, 128), wantErr: "out of memory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Hypervisor {
				cfg := Config{
					HostMemBytes:        1 << 30,
					THP:                 tc.thp,
					BuildECPT:           true,
					ECPT:                ecpt.ScaledSetConfig(true, 64),
					Seed:                9,
					HugePageFailureRate: tc.hugeFail,
				}
				if tc.memBytes != 0 {
					cfg.HostMemBytes = tc.memBytes
				}
				h, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return h
			}
			one, pair := build(), build()
			for i, a := range tc.accesses {
				before := stateOf(one)
				hpa, size, faulted, err := one.Resolve(a.gpa, a.pageTable)
				pFaulted, pErr := pair.EnsureMapped(a.gpa, a.pageTable)
				pHPA, pSize, pOK := pair.Translate(a.gpa)

				if (err == nil) != (pErr == nil) || (err != nil && err.Error() != pErr.Error()) {
					t.Fatalf("step %d gpa %#x: Resolve err %v, EnsureMapped err %v", i, a.gpa, err, pErr)
				}
				if hpa != pHPA || size != pSize || faulted != pFaulted || pOK != (err == nil) {
					t.Fatalf("step %d gpa %#x: Resolve (%#x,%v,%v) vs pair (%#x,%v,%v,ok=%v)",
						i, a.gpa, hpa, size, faulted, pHPA, pSize, pFaulted, pOK)
				}
				if got, want := stateOf(one), stateOf(pair); got != want {
					t.Fatalf("step %d gpa %#x: state diverged: Resolve %+v, pair %+v", i, a.gpa, got, want)
				}
				if err == nil {
					continue
				}
				if tc.wantErr == "" || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("step %d gpa %#x: error %v, want %q", i, a.gpa, err, tc.wantErr)
				}
				// A failed resolve maps nothing: no entry, no frame.
				after := stateOf(one)
				if after.entries != before.entries || after.used != before.used {
					t.Fatalf("step %d gpa %#x: failed Resolve left state behind: %+v -> %+v", i, a.gpa, before, after)
				}
				return
			}
			if tc.wantErr != "" {
				t.Fatalf("no step failed, want %q", tc.wantErr)
			}
		})
	}
}

// TestExhaustionIsAnError: a 2MB host with ECPTs, mapping one 4KB
// guest-physical page every 32KB, runs out of memory for its tables
// before its data. The nested fault that cannot be served returns the
// allocator's out-of-memory error for a page-table or CWT allocation,
// and leaves every page mapped before it translating as it did, with
// the same entries and data bytes.
func TestExhaustionIsAnError(t *testing.T) {
	h, err := New(Config{HostMemBytes: 2 << 20, BuildECPT: true, ECPT: ecpt.ScaledSetConfig(true, 64), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	mapped := map[addr.GPA]addr.HPA{}
	for gpa := addr.GPA(0x1000_0000); ; gpa = addr.Add(gpa, 32<<10) {
		entries, data := h.ECPTs().Entries(), h.Allocator().Used(memsim.PurposeData)
		_, err := h.EnsureMapped(gpa, false)
		if err == nil {
			hpa, _, _ := h.Translate(gpa)
			mapped[gpa] = hpa
			continue
		}
		var oom *memsim.OutOfMemoryError
		if !errors.As(err, &oom) || (oom.Purpose != memsim.PurposePageTable && oom.Purpose != memsim.PurposeCWT) {
			t.Fatalf("map %d at %#x: err = %v, want a page-table or CWT out-of-memory error", len(mapped), gpa, err)
		}
		if got := h.ECPTs().Entries(); got != entries {
			t.Errorf("failed fault changed the entries: %d, was %d", got, entries)
		}
		if got := h.Allocator().Used(memsim.PurposeData); got != data {
			t.Errorf("failed fault kept data bytes: %d, was %d", got, data)
		}
		if _, _, ok := h.Translate(gpa); ok {
			t.Errorf("failed fault left %#x mapped", gpa)
		}
		t.Logf("%d pages mapped, then: %v", len(mapped), err)
		break
	}
	if len(mapped) == 0 {
		t.Fatal("the first map already failed")
	}
	for gpa, hpa := range mapped {
		if got, _, ok := h.Translate(gpa); !ok || got != hpa {
			t.Fatalf("%#x translates to %#x (%v) after the failure, was %#x", gpa, got, ok, hpa)
		}
	}
}
