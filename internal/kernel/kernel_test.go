package kernel

import (
	"errors"
	"strings"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/memsim"
)

func newKernel(t *testing.T, thp bool, both bool) *Kernel {
	t.Helper()
	cfg := Config{
		GuestMemBytes: 1 << 30,
		THP:           thp,
		BuildECPT:     true,
		BuildRadix:    both,
		ECPT:          ecpt.ScaledSetConfig(false, 64),
		Seed:          5,
	}
	k, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.DefineVMA(VMA{Base: 0x1000_0000, Size: 64 << 20, THPEligible: true})
	k.DefineVMA(VMA{Base: 0x4000_0000, Size: 64 << 20, THPEligible: false})
	return k
}

func TestTouchDemandPages(t *testing.T) {
	k := newKernel(t, false, false)
	faulted, size, err := k.Touch(0x1000_0123)
	if err != nil || !faulted || size != addr.Page4K {
		t.Fatalf("first touch: %v %v %v", faulted, size, err)
	}
	faulted, _, err = k.Touch(0x1000_0FFF) // same page
	if err != nil || faulted {
		t.Fatalf("second touch faulted: %v %v", faulted, err)
	}
	if _, _, ok := k.Translate(0x1000_0123); !ok {
		t.Error("touched page does not translate")
	}
	if k.Stats().MinorFaults != 1 {
		t.Errorf("faults = %d", k.Stats().MinorFaults)
	}
}

func TestTouchSegfault(t *testing.T) {
	k := newKernel(t, false, false)
	_, _, err := k.Touch(0xDEAD_0000_0000)
	if err == nil || !strings.Contains(err.Error(), "segfault") {
		t.Fatalf("expected segfault, got %v", err)
	}
}

func TestTHPAllocatesHugePages(t *testing.T) {
	k := newKernel(t, true, false)
	_, size, err := k.Touch(0x1020_0123)
	if err != nil || size != addr.Page2M {
		t.Fatalf("THP touch: size=%v err=%v", size, err)
	}
	// The whole 2MB region is now mapped.
	faulted, _, _ := k.Touch(0x1020_0000 + 0x1F_F000)
	if faulted {
		t.Error("region sibling faulted despite 2MB mapping")
	}
	// Non-eligible VMA stays 4KB.
	_, size, err = k.Touch(0x4000_0123)
	if err != nil || size != addr.Page4K {
		t.Fatalf("non-eligible VMA: size=%v err=%v", size, err)
	}
	if k.Stats().HugeMaps == 0 || k.Stats().SmallMaps == 0 {
		t.Errorf("stats = %+v", k.Stats())
	}
}

func TestTHPOffUses4K(t *testing.T) {
	k := newKernel(t, false, false)
	_, size, _ := k.Touch(0x1020_0123)
	if size != addr.Page4K {
		t.Errorf("THP-off touch mapped %v", size)
	}
	// A 4KB footprint over several 2MB regions stays 4KB. That it
	// records no 2MB-region state on the way is paging's TestFault.
	for va := addr.GVA(0x1000_0000); va < 0x1080_0000; va += 0x1000 {
		if _, size, err := k.Touch(va); err != nil || size != addr.Page4K {
			t.Fatalf("THP-off touch of %#x: size=%v err=%v", va, size, err)
		}
	}
}

func TestTHPFragmentationFallback(t *testing.T) {
	cfg := Config{
		GuestMemBytes:       1 << 30,
		THP:                 true,
		BuildECPT:           true,
		ECPT:                ecpt.ScaledSetConfig(false, 64),
		Seed:                5,
		HugePageFailureRate: 1.0,
	}
	k, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.DefineVMA(VMA{Base: 0x1000_0000, Size: 64 << 20, THPEligible: true})
	_, size, err := k.Touch(0x1020_0123)
	if err != nil || size != addr.Page4K {
		t.Fatalf("fragmented touch: size=%v err=%v", size, err)
	}
	if k.Stats().HugeFallback == 0 {
		t.Error("fallback not counted")
	}
	// The region fell back to 4KB pages; it stays small even once huge
	// frames are available again.
	k.Allocator().SetHugePageFailureRate(0)
	for va := addr.GVA(0x1020_1000); va < 0x1040_0000; va += 0x3_3000 {
		if _, size, err := k.Touch(va); err != nil || size != addr.Page4K {
			t.Fatalf("touch of %#x in a fallen-back region: size=%v err=%v, want 4KB", va, size, err)
		}
	}
}

func TestTHPPartialRegionAtVMAEdge(t *testing.T) {
	k := newKernel(t, true, false)
	// A 2MB region straddling the VMA end must fall back to 4KB.
	k.DefineVMA(VMA{Base: 0x8000_0000, Size: 1 << 20, THPEligible: true}) // 1MB only
	_, size, err := k.Touch(0x8000_0123)
	if err != nil || size != addr.Page4K {
		t.Fatalf("edge touch: size=%v err=%v", size, err)
	}
}

func TestRadixAndECPTAgree(t *testing.T) {
	k := newKernel(t, true, true)
	vas := []addr.GVA{0x1000_0000, 0x1020_0000, 0x1040_5000, 0x4000_0000, 0x4001_0000}
	for _, va := range vas {
		if _, _, err := k.Touch(va); err != nil {
			t.Fatal(err)
		}
	}
	for _, va := range vas {
		rf, rs, rok := k.Radix().Lookup(va)
		ef, es, eok := k.ECPTs().Lookup(va)
		if rok != eok || rf != ef || rs != es {
			t.Errorf("va %#x: radix (%#x,%v,%v) vs ecpt (%#x,%v,%v)", va, rf, rs, rok, ef, es, eok)
		}
	}
}

func TestUnmap(t *testing.T) {
	k := newKernel(t, true, true)
	k.Touch(0x1020_0000)
	if !k.Unmap(0x1020_0123) {
		t.Fatal("Unmap failed")
	}
	if _, _, ok := k.Translate(0x1020_0000); ok {
		t.Error("unmapped region still translates")
	}
	if k.Unmap(0x1020_0000) {
		t.Error("double unmap succeeded")
	}
	// The region can be re-touched after unmap.
	if _, _, err := k.Touch(0x1020_0000); err != nil {
		t.Fatal(err)
	}
	// Only the unmap that removed a page counts: neither the failed one
	// nor the mappings around it may move the coherence counter.
	if got := k.Unmaps(); got != 1 {
		t.Errorf("Unmaps() = %d after one successful and one failed Unmap, want 1", got)
	}
}

func TestPageTableMemoryGrows(t *testing.T) {
	k := newKernel(t, false, false)
	base := k.PageTableMemoryBytes()
	for i := uint64(0); i < 2000; i++ {
		k.Touch(0x1000_0000 + addr.GVA(i)*4096)
	}
	if k.PageTableMemoryBytes() <= base {
		t.Error("page-table memory did not grow")
	}
}

func TestConfigRequiresSomeTables(t *testing.T) {
	_, err := New(Config{GuestMemBytes: 1 << 20})
	if err == nil {
		t.Error("config with no tables accepted")
	}
}

// TestUnmapKeepsSmallRegionSmall is the witness for the region-state
// bug: unmapping one 4KB page of a THP-eligible region that fell back
// to 4KB pages must not let the next touch map a 2MB page over the
// region's other, still-live 4KB pages.
func TestUnmapKeepsSmallRegionSmall(t *testing.T) {
	k := newKernel(t, true, false)
	k.Allocator().SetHugePageFailureRate(1)
	const a, b addr.GVA = 0x1020_0000, 0x1020_1000
	for _, va := range []addr.GVA{a, b} {
		if _, size, err := k.Touch(va); err != nil || size != addr.Page4K {
			t.Fatalf("fragmented touch of %#x: size=%v err=%v", va, size, err)
		}
	}
	sibling, _, _ := k.Translate(b)
	k.Allocator().SetHugePageFailureRate(0)
	if !k.Unmap(a) {
		t.Fatal("Unmap failed")
	}
	if _, size, err := k.Touch(a); err != nil || size != addr.Page4K {
		t.Fatalf("re-touch in a small region: size=%v err=%v, want 4KB", size, err)
	}
	if got, size, ok := k.Translate(b); !ok || size != addr.Page4K || got != sibling {
		t.Errorf("sibling page moved: %#x/%v/%v, was %#x/4KB", got, size, ok, sibling)
	}
	// Unmapping the 2MB page itself does forget the decision.
	const huge addr.GVA = 0x1040_0000
	if _, size, _ := k.Touch(huge); size != addr.Page2M {
		t.Fatalf("THP touch mapped %v", size)
	}
	k.Unmap(huge)
	k.Allocator().SetHugePageFailureRate(1)
	if _, size, _ := k.Touch(huge); size != addr.Page4K {
		t.Errorf("region stayed huge-only after its 2MB page was unmapped: %v", size)
	}
}

// kernelState is everything Resolve and the Touch+Translate pair it
// replaces must leave identical.
type kernelState struct {
	stats   Stats
	used    [3]uint64
	entries uint64
}

func stateOf(k *Kernel) kernelState {
	s := kernelState{stats: k.Stats(), entries: k.ECPTs().Entries()}
	for p := range s.used {
		s.used[p] = k.Allocator().Used(memsim.Purpose(p))
	}
	return s
}

// TestResolveMatchesTouchTranslate drives two identically seeded
// kernels through the same addresses, one with Resolve and one with the
// Touch-then-Translate pair, and requires the same answers and the same
// state after every step.
func TestResolveMatchesTouchTranslate(t *testing.T) {
	consecutive := func(base addr.GVA, n int) []addr.GVA {
		vas := make([]addr.GVA, n)
		for i := range vas {
			vas[i] = addr.Add(base, uint64(i)*addr.Page4K.Bytes())
		}
		return vas
	}
	cases := []struct {
		name     string
		thp      bool
		hugeFail float64
		memBytes uint64
		vas      []addr.GVA
		// wantErr, when set, is the error some address must end the
		// sequence with.
		wantErr string
	}{
		{name: "first-touch", vas: []addr.GVA{0x1000_0123}},
		{name: "re-touch", vas: []addr.GVA{0x1000_0123, 0x1000_0FFF, 0x1000_0123}},
		{name: "thp-hit", thp: true, vas: []addr.GVA{0x1020_0123, 0x103F_F000, 0x4000_0123}},
		{name: "thp-fallback", thp: true, hugeFail: 1, vas: []addr.GVA{0x1020_0123, 0x1020_1000, 0x1020_0456}},
		{name: "out-of-vma", thp: true, vas: []addr.GVA{0x1000_0000, 0xDEAD_0000_0000}, wantErr: "segfault"},
		{name: "out-of-memory", memBytes: 512 << 10, vas: consecutive(0x1000_0000, 128), wantErr: "out of memory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Kernel {
				cfg := Config{
					GuestMemBytes:       1 << 30,
					THP:                 tc.thp,
					BuildECPT:           true,
					ECPT:                ecpt.ScaledSetConfig(false, 64),
					Seed:                5,
					HugePageFailureRate: tc.hugeFail,
				}
				if tc.memBytes != 0 {
					cfg.GuestMemBytes = tc.memBytes
				}
				k, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				k.DefineVMA(VMA{Base: 0x1000_0000, Size: 64 << 20, THPEligible: true})
				k.DefineVMA(VMA{Base: 0x4000_0000, Size: 64 << 20})
				return k
			}
			one, pair := build(), build()
			for i, va := range tc.vas {
				before := stateOf(one)
				gpa, size, faulted, err := one.Resolve(va)
				pFaulted, pSize, pErr := pair.Touch(va)
				pGPA, _, pOK := pair.Translate(va)

				if (err == nil) != (pErr == nil) || (err != nil && err.Error() != pErr.Error()) {
					t.Fatalf("step %d va %#x: Resolve err %v, Touch err %v", i, va, err, pErr)
				}
				if gpa != pGPA || size != pSize || faulted != pFaulted || pOK != (err == nil) {
					t.Fatalf("step %d va %#x: Resolve (%#x,%v,%v) vs pair (%#x,%v,%v,ok=%v)",
						i, va, gpa, size, faulted, pGPA, pSize, pFaulted, pOK)
				}
				if got, want := stateOf(one), stateOf(pair); got != want {
					t.Fatalf("step %d va %#x: state diverged: Resolve %+v, pair %+v", i, va, got, want)
				}
				if err == nil {
					continue
				}
				if tc.wantErr == "" || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("step %d va %#x: error %v, want %q", i, va, err, tc.wantErr)
				}
				// A failed resolve maps nothing: no entry, no frame.
				after := stateOf(one)
				if after.entries != before.entries || after.used != before.used {
					t.Fatalf("step %d va %#x: failed Resolve left state behind: %+v -> %+v", i, va, before, after)
				}
				return
			}
			if tc.wantErr != "" {
				t.Fatalf("no step failed, want %q", tc.wantErr)
			}
		})
	}
}

// TestExhaustionIsAnError: a 2MB guest with ECPTs, touched one 4KB page
// every 32KB, runs out of memory for its tables before its data. The
// fault that cannot be served returns the allocator's out-of-memory
// error for a page-table or CWT allocation, and leaves every page
// resolved before it translating as it did, with the same entries and
// data bytes.
func TestExhaustionIsAnError(t *testing.T) {
	k, err := New(Config{GuestMemBytes: 2 << 20, BuildECPT: true, ECPT: ecpt.ScaledSetConfig(false, 64), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	k.DefineVMA(VMA{Base: 0x1000_0000, Size: 64 << 20})
	resolved := map[addr.GVA]addr.GPA{}
	for va := addr.GVA(0x1000_0000); ; va = addr.Add(va, 32<<10) {
		entries, data := k.ECPTs().Entries(), k.Allocator().Used(memsim.PurposeData)
		gpa, _, _, err := k.Resolve(va)
		if err == nil {
			resolved[va] = gpa
			continue
		}
		var oom *memsim.OutOfMemoryError
		if !errors.As(err, &oom) || (oom.Purpose != memsim.PurposePageTable && oom.Purpose != memsim.PurposeCWT) {
			t.Fatalf("touch %d at %#x: err = %v, want a page-table or CWT out-of-memory error", len(resolved), va, err)
		}
		if got := k.ECPTs().Entries(); got != entries {
			t.Errorf("failed fault changed the entries: %d, was %d", got, entries)
		}
		if got := k.Allocator().Used(memsim.PurposeData); got != data {
			t.Errorf("failed fault kept data bytes: %d, was %d", got, data)
		}
		if _, _, ok := k.Translate(va); ok {
			t.Errorf("failed fault left %#x mapped", va)
		}
		t.Logf("%d pages resolved, then: %v", len(resolved), err)
		break
	}
	if len(resolved) == 0 {
		t.Fatal("the first touch already failed")
	}
	for va, gpa := range resolved {
		if got, _, ok := k.Translate(va); !ok || got != gpa {
			t.Fatalf("%#x translates to %#x (%v) after the failure, was %#x", va, got, ok, gpa)
		}
	}
}
