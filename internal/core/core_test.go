package core

import (
	"errors"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/cachesim"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/hypervisor"
	"nestedecpt/internal/kernel"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/vhash"
)

// flatMem is a deterministic MemSystem: every access costs a fixed
// latency, so walker tests measure structure, not cache state.
type flatMem struct {
	lat      uint64
	accesses int
	groups   [][]addr.HPA
}

func (f *flatMem) Access(_ uint64, _ addr.HPA, _ cachesim.Source) (uint64, cachesim.ServiceLevel) {
	f.accesses++
	return f.lat, cachesim.ServedL2
}

func (f *flatMem) AccessParallel(_ uint64, pas []addr.HPA, _ cachesim.Source) uint64 {
	f.accesses += len(pas)
	cp := append([]addr.HPA(nil), pas...)
	f.groups = append(f.groups, cp)
	if len(pas) == 0 {
		return 0
	}
	return f.lat
}

// fixture builds a guest+host pair with the requested table kinds and
// maps a deterministic set of pages.
type fixture struct {
	kern *kernel.Kernel
	hyp  *hypervisor.Hypervisor
	mem  *flatMem
	vas  []addr.GVA
}

func newFixture(t *testing.T, guestRadix, guestECPT, hostRadix, hostECPT, thp bool) *fixture {
	t.Helper()
	k, err := kernel.New(kernel.Config{
		GuestMemBytes: 2 << 30,
		THP:           thp,
		BuildRadix:    guestRadix,
		BuildECPT:     guestECPT,
		ECPT:          ecpt.ScaledSetConfig(false, 64),
		Seed:          21,
	})
	if err != nil {
		t.Fatal(err)
	}
	k.DefineVMA(kernel.VMA{Base: 0x1000_0000, Size: 256 << 20, THPEligible: true})
	h, err := hypervisor.New(hypervisor.Config{
		HostMemBytes: 4 << 30,
		THP:          thp,
		BuildRadix:   hostRadix,
		BuildECPT:    hostECPT,
		ECPT:         ecpt.ScaledSetConfig(true, 64),
		Seed:         22,
	})
	if err != nil {
		t.Fatal(err)
	}

	f := &fixture{kern: k, hyp: h, mem: &flatMem{lat: 10}}
	rng := vhash.NewRNG(33)
	for i := 0; i < 400; i++ {
		va := addr.GVA(0x1000_0000 + rng.Uint64n(256<<20))
		if _, _, err := k.Touch(va); err != nil {
			t.Fatal(err)
		}
		gpa, _, ok := k.Translate(va)
		if !ok {
			t.Fatal("translate failed after touch")
		}
		if _, err := h.EnsureMapped(gpa, false); err != nil {
			t.Fatal(err)
		}
		f.vas = append(f.vas, va)
	}
	return f
}

// expected returns the functional end-to-end translation of va.
func (f *fixture) expected(t *testing.T, va addr.GVA) (hpa addr.HPA, size addr.PageSize) {
	t.Helper()
	gpa, gsize, ok := f.kern.Translate(va)
	if !ok {
		t.Fatalf("guest translate %#x failed", va)
	}
	hpa, hsize, ok := f.hyp.Translate(gpa)
	if !ok {
		t.Fatalf("host translate %#x failed", gpa)
	}
	size = gsize
	if hsize < size {
		size = hsize
	}
	return hpa, size
}

// driveWalker walks every mapped VA, servicing nested faults the way
// the simulator does, and checks the result against the functional
// translation.
func driveWalker(t *testing.T, f *fixture, w Walker) {
	t.Helper()
	now := uint64(0)
	for _, va := range f.vas {
		var res WalkResult
		var err error
		for attempt := 0; ; attempt++ {
			res, err = w.Walk(now, va)
			if err == nil {
				break
			}
			var nm *ErrNotMapped
			if !errors.As(err, &nm) || attempt > 64 {
				t.Fatalf("walk %#x: %v", va, err)
			}
			if nm.Space == "host" {
				if _, err := f.hyp.EnsureMapped(nm.GPA, nm.PageTable); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, _, err := f.kern.Touch(nm.GVA); err != nil {
					t.Fatal(err)
				}
			}
		}
		wantPA, wantSize := f.expected(t, va)
		if res.Size != wantSize {
			t.Fatalf("%s: walk %#x size %v, want %v", w.Name(), va, res.Size, wantSize)
		}
		gotPA := addr.Translate(res.Frame, va, res.Size)
		if gotPA != wantPA {
			t.Fatalf("%s: walk %#x = %#x, want %#x", w.Name(), va, gotPA, wantPA)
		}
		if res.Latency == 0 {
			t.Fatalf("%s: zero-latency walk", w.Name())
		}
		now += res.Latency
	}
}

func TestNestedECPTWalkCorrect(t *testing.T) {
	for _, thp := range []bool{false, true} {
		f := newFixture(t, false, true, false, true, thp)
		w := NewNestedECPT(DefaultNestedECPTConfig(AdvancedTechniques()), f.mem, f.kern, f.hyp)
		driveWalker(t, f, w)
		st := w.Stats()
		if st.Walks == 0 || st.GuestClasses.Total() == 0 || st.HostClasses.Total() == 0 {
			t.Error("walker stats empty")
		}
	}
}

func TestNestedECPTPlainWalkCorrect(t *testing.T) {
	f := newFixture(t, false, true, false, true, false)
	w := NewNestedECPT(DefaultNestedECPTConfig(PlainTechniques()), f.mem, f.kern, f.hyp)
	driveWalker(t, f, w)
	if w.Name() != "Plain Nested ECPTs" {
		t.Errorf("Name = %q", w.Name())
	}
	if st := w.Stats(); st.STC.Total() != 0 {
		t.Error("plain design used the STC")
	}
}

func TestNestedECPTPartialTechniques(t *testing.T) {
	for _, tech := range []Techniques{
		{STC: true},
		{STC: true, Step1PTECaching: true},
		{STC: true, Step1PTECaching: true, Step3AdaptivePTE: true},
	} {
		f := newFixture(t, false, true, false, true, true)
		w := NewNestedECPT(DefaultNestedECPTConfig(tech), f.mem, f.kern, f.hyp)
		driveWalker(t, f, w)
	}
}

func TestNestedECPTParallelismBounds(t *testing.T) {
	f := newFixture(t, false, true, false, true, true)
	w := NewNestedECPT(DefaultNestedECPTConfig(AdvancedTechniques()), f.mem, f.kern, f.hyp)
	driveWalker(t, f, w)
	st := w.Stats()
	n, d := 3.0, 3.0
	if st.Par1.Value() <= 0 || st.Par1.Value() > n*n*d*d {
		t.Errorf("par1 = %v out of bounds", st.Par1.Value())
	}
	if st.Par2.Value() <= 0 || st.Par2.Value() > 2*n*d {
		t.Errorf("par2 = %v out of bounds", st.Par2.Value())
	}
	if st.Par3.Value() <= 0 || st.Par3.Value() > 2*n*d {
		t.Errorf("par3 = %v out of bounds", st.Par3.Value())
	}
	// THP with hot CWCs should prune most walks to very few accesses.
	if st.Par1.Value() > 4 {
		t.Errorf("par1 = %v, expected strong pruning with THP", st.Par1.Value())
	}
}

func TestNestedECPTSTCServesRefills(t *testing.T) {
	// Spread VMAs so the guest PMD-CWT spans several entries; a 2-entry
	// gCWC then misses regularly and every refill needs a gCWT-entry
	// translation — the STC's job (§4.1).
	k, err := kernel.New(kernel.Config{
		GuestMemBytes: 2 << 30,
		BuildECPT:     true,
		ECPT:          ecpt.ScaledSetConfig(false, 64),
		Seed:          21,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := hypervisor.New(hypervisor.Config{
		HostMemBytes: 4 << 30,
		BuildECPT:    true,
		ECPT:         ecpt.ScaledSetConfig(true, 64),
		Seed:         22,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{kern: k, hyp: h, mem: &flatMem{lat: 10}}
	for i := 0; i < 6; i++ {
		base := 0x10_0000_0000 + addr.GVA(i)*(1<<30)
		k.DefineVMA(kernel.VMA{Base: base, Size: 16 << 20})
		for j := uint64(0); j < 40; j++ {
			va := base + addr.GVA(j)*4096
			if _, _, err := k.Touch(va); err != nil {
				t.Fatal(err)
			}
			gpa, _, _ := k.Translate(va)
			if _, err := h.EnsureMapped(gpa, false); err != nil {
				t.Fatal(err)
			}
			f.vas = append(f.vas, va)
		}
	}
	cfg := DefaultNestedECPTConfig(AdvancedTechniques())
	cfg.GuestCWC = CWCConfig{PMD: 2, PUD: 1}
	w := NewNestedECPT(cfg, f.mem, f.kern, f.hyp)
	driveWalker(t, f, w) // cold pass populates the STC
	w.ResetStats()
	driveWalker(t, f, w) // warm pass: refills should hit the STC
	st := w.Stats()
	if st.STC.Total() == 0 {
		t.Fatal("STC never consulted despite tiny gCWC")
	}
	if st.STC.HitRate() < 0.9 {
		t.Errorf("warm STC hit rate = %.2f", st.STC.HitRate())
	}
}

func TestNestedECPTUnmappedGuestErrors(t *testing.T) {
	f := newFixture(t, false, true, false, true, false)
	w := NewNestedECPT(DefaultNestedECPTConfig(AdvancedTechniques()), f.mem, f.kern, f.hyp)
	// Host faults on table/CWT pages may be reported first (EPT
	// violations); after servicing them the guest fault must surface.
	var err error
	for attempt := 0; attempt < 64; attempt++ {
		_, err = w.Walk(0, addr.GVA(0x7FFF_0000_0000))
		var nm *ErrNotMapped
		if !errors.As(err, &nm) {
			t.Fatalf("err = %v", err)
		}
		if nm.Space == "guest" {
			if nm.Error() == "" {
				t.Error("empty error string")
			}
			return
		}
		if _, herr := f.hyp.EnsureMapped(nm.GPA, nm.PageTable); herr != nil {
			t.Fatal(herr)
		}
	}
	t.Fatalf("guest fault never surfaced; last err = %v", err)
}

// TestExhaustedGuestSkipsCWTRefill: the first walk of a never-touched
// range refills the guest's PUD-CWC from a CWT entry that does not
// exist, which sequential mode creates on the spot (ecpt.CWT.RefillPA).
// A guest with no frame left for the entry's page skips the refill
// instead: under THP the walker still serves every mapped address, and
// reports the unmapped one as a guest fault, allocating nothing.
func TestExhaustedGuestSkipsCWTRefill(t *testing.T) {
	for _, exhausted := range []bool{false, true} {
		f := newFixture(t, false, true, false, true, true)
		a := f.kern.Allocator()
		if exhausted {
			for ok := true; ok; _, ok = a.Alloc(addr.Page2M, memsim.PurposeData) {
			}
			for ok := true; ok; _, ok = a.Alloc(addr.Page4K, memsim.PurposeCWT) {
			}
		}
		w := NewNestedECPT(DefaultNestedECPTConfig(AdvancedTechniques()), f.mem, f.kern, f.hyp)
		driveWalker(t, f, w)
		va, used := addr.GVA(0x7FFF_0000_0000), a.Used(memsim.PurposeCWT)
		for attempt := 0; ; attempt++ {
			_, err := w.Walk(0, va)
			var nm *ErrNotMapped
			if !errors.As(err, &nm) || attempt > 64 {
				t.Fatalf("exhausted %v: walk of an unmapped address: err = %v", exhausted, err)
			}
			if nm.Space == "guest" {
				break
			}
			if _, err := f.hyp.EnsureMapped(nm.GPA, nm.PageTable); err != nil {
				t.Fatal(err)
			}
		}
		pud := f.kern.ECPTs().Table(addr.Page1G).CWT()
		if created := pud.Query(addr.VPN(va, addr.Page1G)).EntryExists; created == exhausted {
			t.Errorf("exhausted %v: the refill created the PUD-CWT entry: %v", exhausted, created)
		}
		if got := a.Used(memsim.PurposeCWT); exhausted && got != used {
			t.Errorf("the skipped refill allocated: CWT bytes %d, were %d", got, used)
		}
	}
}

// TestNestedECPTSurvivesResize checks §4.4's design premise: cuckoo
// rehashing and elastic resizing move gPTEs in host memory, and walks
// must stay correct because nothing caches hPTE→gPTE mappings.
func TestNestedECPTSurvivesResize(t *testing.T) {
	f := newFixture(t, false, true, false, true, false)
	w := NewNestedECPT(DefaultNestedECPTConfig(AdvancedTechniques()), f.mem, f.kern, f.hyp)
	driveWalker(t, f, w)
	// Force guest PTE-ECPT growth by mapping many more pages.
	before := f.kern.ECPTs().Table(addr.Page4K).Stats().Resizes
	for i := uint64(0); i < 30000; i++ {
		va := 0x1000_0000 + addr.GVA(i)*4096
		f.kern.Touch(va)
		gpa, _, _ := f.kern.Translate(va)
		f.hyp.EnsureMapped(gpa, false)
	}
	if f.kern.ECPTs().Table(addr.Page4K).Stats().Resizes == before {
		t.Fatal("no resize triggered; test ineffective")
	}
	driveWalker(t, f, w) // all original VAs must still walk correctly
}

func TestNativeECPTWalkCorrect(t *testing.T) {
	for _, thp := range []bool{false, true} {
		k, err := kernel.New(kernel.Config{
			GuestMemBytes: 1 << 30,
			THP:           thp,
			BuildECPT:     true,
			ECPT:          ecpt.ScaledSetConfig(false, 64),
			Seed:          4,
		})
		if err != nil {
			t.Fatal(err)
		}
		k.DefineVMA(kernel.VMA{Base: 0x2000_0000, Size: 64 << 20, THPEligible: true})
		mem := &flatMem{lat: 10}
		w := NewNativeECPT(DefaultNativeECPTConfig(), mem, k)
		rng := vhash.NewRNG(5)
		for i := 0; i < 200; i++ {
			va := addr.GVA(0x2000_0000 + rng.Uint64n(64<<20))
			k.Touch(va)
			res, err := w.Walk(0, va)
			if err != nil {
				t.Fatal(err)
			}
			wantPA, wantSize, _ := k.Translate(va)
			if res.Size != wantSize || addr.Translate(res.Frame, va, res.Size) != addr.IdentityHPA(wantPA) {
				t.Fatalf("native walk %#x wrong", va)
			}
		}
		if w.Stats().Walks == 0 {
			t.Error("no walks recorded")
		}
	}
}

func TestNestedRadixWalkCorrect(t *testing.T) {
	for _, thp := range []bool{false, true} {
		f := newFixture(t, true, false, true, false, thp)
		w := NewNestedRadix(DefaultRadixWalkConfig(), f.mem, f.kern, f.hyp)
		driveWalker(t, f, w)
		hits, misses := w.NTLBStats()
		if hits+misses == 0 {
			t.Error("NTLB never consulted")
		}
	}
}

func TestNestedRadixWorstCaseAccessBound(t *testing.T) {
	f := newFixture(t, true, false, true, false, false)
	// Disable all shortcut caches by sizing them at 1 entry and walking
	// scattered addresses: each walk still does at most 24 accesses.
	cfg := RadixWalkConfig{PWCEntriesPerLevel: 1, NPWCEntriesPerLevel: 1, NTLBEntries: 1}
	w := NewNestedRadix(cfg, f.mem, f.kern, f.hyp)
	for _, va := range f.vas[:50] {
		before := f.mem.accesses
		if _, err := w.Walk(0, va); err != nil {
			var nm *ErrNotMapped
			if errors.As(err, &nm) {
				f.hyp.EnsureMapped(nm.GPA, nm.PageTable)
				continue
			}
			t.Fatal(err)
		}
		if got := f.mem.accesses - before; got > 24 {
			t.Fatalf("nested radix walk did %d accesses, max is 24", got)
		}
	}
}

func TestNativeRadixWalkCorrect(t *testing.T) {
	k, err := kernel.New(kernel.Config{
		GuestMemBytes: 1 << 30,
		BuildRadix:    true,
		Seed:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	k.DefineVMA(kernel.VMA{Base: 0x2000_0000, Size: 64 << 20})
	mem := &flatMem{lat: 10}
	w := NewNativeRadix(DefaultRadixWalkConfig(), mem, k)
	rng := vhash.NewRNG(5)
	for i := 0; i < 200; i++ {
		va := addr.GVA(0x2000_0000 + rng.Uint64n(64<<20))
		k.Touch(va)
		res, err := w.Walk(0, va)
		if err != nil {
			t.Fatal(err)
		}
		wantPA, wantSize, _ := k.Translate(va)
		if res.Size != wantSize || addr.Translate(res.Frame, va, res.Size) != addr.IdentityHPA(wantPA) {
			t.Fatalf("native radix walk %#x wrong", va)
		}
		if res.Accesses > 4 {
			t.Fatalf("native radix walk did %d accesses, max is 4", res.Accesses)
		}
	}
}

func TestNativeRadixPWCReducesAccesses(t *testing.T) {
	k, _ := kernel.New(kernel.Config{GuestMemBytes: 1 << 30, BuildRadix: true, Seed: 4})
	k.DefineVMA(kernel.VMA{Base: 0x2000_0000, Size: 64 << 20})
	mem := &flatMem{lat: 10}
	w := NewNativeRadix(DefaultRadixWalkConfig(), mem, k)
	k.Touch(0x2000_0000)
	k.Touch(0x2000_1000)
	r1, _ := w.Walk(0, 0x2000_0000)
	r2, _ := w.Walk(100, 0x2000_1000) // same L2 prefix: PWC skips to L1
	if r2.Accesses >= r1.Accesses {
		t.Errorf("PWC ineffective: %d then %d accesses", r1.Accesses, r2.Accesses)
	}
}

func TestHybridWalkCorrect(t *testing.T) {
	for _, thp := range []bool{false, true} {
		f := newFixture(t, true, false, false, true, thp)
		w := NewHybrid(DefaultHybridConfig(), f.mem, f.kern, f.hyp)
		driveWalker(t, f, w)
		st := w.Stats()
		if st.Walks == 0 || st.HostClasses.Total() == 0 {
			t.Error("hybrid stats empty")
		}
		if st.HostPar.Value() <= 0 || st.HostPar.Value() > 9 {
			t.Errorf("hybrid host parallelism = %v", st.HostPar.Value())
		}
	}
}

func TestWalkClassStrings(t *testing.T) {
	want := map[WalkClass]string{
		WalkDirect: "Direct", WalkSize: "Size", WalkPartial: "Partial", WalkComplete: "Complete",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q", c, c.String())
		}
	}
}

func TestMinSize(t *testing.T) {
	if minSize(addr.Page2M, addr.Page4K) != addr.Page4K {
		t.Error("minSize wrong")
	}
	if minSize(addr.Page4K, addr.Page1G) != addr.Page4K {
		t.Error("minSize wrong")
	}
}

func TestTechniquesPresets(t *testing.T) {
	if PlainTechniques() != (Techniques{}) {
		t.Error("PlainTechniques not empty")
	}
	adv := AdvancedTechniques()
	if !adv.STC || !adv.Step1PTECaching || !adv.Step3AdaptivePTE || !adv.PageTable4KB {
		t.Errorf("AdvancedTechniques = %+v", adv)
	}
	cfg := DefaultNestedECPTConfig(PlainTechniques())
	if cfg.HostCWC1.PTE != 0 || cfg.HostCWC3.PTE != 0 {
		t.Error("plain config has PTE CWC classes")
	}
	cfg = DefaultNestedECPTConfig(AdvancedTechniques())
	if cfg.HostCWC1.PTE == 0 || cfg.HostCWC3.PTE == 0 {
		t.Error("advanced config missing PTE CWC classes")
	}
}
