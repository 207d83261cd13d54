package sim

// Differential oracle: every page-walk design must resolve every
// mapped guest virtual address to the same physical frame. Designs
// may differ in latency, walk class, and access counts — never in the
// translation itself. One kernel and one hypervisor maintain radix
// and ECPT structures simultaneously (the cross-validation mode of
// kernel.Config), so all walkers see the same mapping and any
// disagreement is a walker bug, not test skew.

import (
	"errors"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/baselines"
	"nestedecpt/internal/cachesim"
	"nestedecpt/internal/core"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/hypervisor"
	"nestedecpt/internal/kernel"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/runner"
	"nestedecpt/internal/vhash"
)

// flatMem is a timing-only memory system: constant latency, no state.
// The oracle checks translations, not cycles, so cache contents are
// irrelevant.
type flatMem struct{}

func (flatMem) Access(now uint64, pa addr.HPA, src cachesim.Source) (uint64, cachesim.ServiceLevel) {
	return 10, cachesim.ServedDRAM
}

func (flatMem) AccessParallel(now uint64, pas []addr.HPA, src cachesim.Source) uint64 {
	return 10
}

// diffVMAs places a THP-eligible area, a 4KB-only area, and reserves a
// 1GB-aligned region the test maps with a 1GB page directly.
const (
	diffTHPBase  = 0x4000_0000_0000
	diffTHPSize  = 256 << 20
	diff4KBase   = 0x7f00_0000_0000
	diff4KSize   = 32 << 20
	diffGigaBase = 0x5000_0000_0000
)

// resolveWalk runs one walk, servicing nested faults on guest
// page-table pages exactly like the simulator's fault loop, and
// returns the final result.
func resolveWalk(t *testing.T, w core.Walker, hyp *hypervisor.Hypervisor, now uint64, va addr.GVA) core.WalkResult {
	t.Helper()
	for attempt := 0; attempt < 100; attempt++ {
		res, err := w.Walk(now, va)
		if err == nil {
			return res
		}
		var nm *core.ErrNotMapped
		if !errors.As(err, &nm) || nm.Space != "host" || hyp == nil {
			t.Fatalf("%s: walk %#x: %v", w.Name(), va, err)
		}
		// The test premaps every data gPA, so any host fault here is on
		// a guest page-table or CWT gPA. Service it as a page-table
		// fault even when the walker does not say so (the radix
		// walkers have no 4KB-page-table requirement of their own and
		// leave PageTable unset): a 2MB host mapping dropped over the
		// guest metadata region would break the §4.3 invariant for the
		// ECPT walkers sharing this hypervisor.
		if _, err := hyp.EnsureMapped(nm.GPA, true); err != nil {
			t.Fatalf("%s: servicing nested fault at %#x: %v", w.Name(), nm.GPA, err)
		}
	}
	t.Fatalf("%s: walk %#x did not converge", w.Name(), va)
	return core.WalkResult{}
}

func TestDifferentialOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		thp  bool
	}{
		{"4KB", false},
		{"THP", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seed := runner.Seed(42, "differential/"+tc.name)

			// Small initial ECPTs so the trace forces elastic rehashes
			// on both sides; correctness must survive live migration.
			gset := ecpt.ScaledSetConfig(false, 1024)
			hset := ecpt.ScaledSetConfig(true, 1024)

			// Guest memory is sized so the data bump allocator (the
			// 1GB frame plus ~2GB of THP touches) stays well clear of
			// the top-down metadata region: a 2MB host data mapping
			// that covered a guest page-table gPA would violate the
			// §4.3 4KB-page-table invariant the walkers rely on.
			kern, err := kernel.New(kernel.Config{
				GuestMemBytes:       16 << 30,
				THP:                 tc.thp,
				BuildRadix:          true,
				BuildECPT:           true,
				ECPT:                gset,
				Seed:                seed + 101,
				HugePageFailureRate: 0.15,
			})
			if err != nil {
				t.Fatal(err)
			}
			hyp, err := hypervisor.New(hypervisor.Config{
				HostMemBytes:        32 << 30,
				THP:                 tc.thp,
				BuildRadix:          true,
				BuildECPT:           true,
				ECPT:                hset,
				Seed:                seed + 202,
				HugePageFailureRate: 0.15,
			})
			if err != nil {
				t.Fatal(err)
			}
			kern.DefineVMA(kernel.VMA{Base: diffTHPBase, Size: diffTHPSize, THPEligible: true})
			kern.DefineVMA(kernel.VMA{Base: diff4KBase, Size: diff4KSize})

			// A 1GB guest page, mapped into both guest structures
			// directly (the kernel's demand-fault path stops at 2MB).
			var gigaFrame addr.GPA
			for i := 0; ; i++ {
				if f, ok := kern.Allocator().Alloc(addr.Page1G, memsim.PurposeData); ok {
					gigaFrame = f
					break
				}
				if i > 50 {
					t.Fatal("could not allocate the 1GB guest frame")
				}
			}
			if err := kern.Radix().Map(diffGigaBase, addr.Page1G, gigaFrame); err != nil {
				t.Fatal(err)
			}
			kern.ECPTs().Map(diffGigaBase, addr.Page1G, gigaFrame)

			rng := vhash.NewRNG(seed)
			touch := func(n int) []addr.GVA {
				vas := make([]addr.GVA, 0, n)
				for i := 0; i < n; i++ {
					var va addr.GVA
					switch rng.Intn(3) {
					case 0:
						va = addr.GVA(diffTHPBase + rng.Uint64n(diffTHPSize))
					case 1:
						va = addr.GVA(diff4KBase + rng.Uint64n(diff4KSize))
					default:
						va = addr.GVA(diffGigaBase + rng.Uint64n(addr.Page1G.Bytes()))
					}
					if va < diffGigaBase || va >= addr.GVA(diffGigaBase)+addr.GVA(addr.Page1G.Bytes()) {
						if _, _, err := kern.Touch(va); err != nil {
							t.Fatal(err)
						}
					}
					gpa, _, ok := kern.Translate(va)
					if !ok {
						t.Fatalf("guest translate failed for touched %#x", va)
					}
					if _, err := hyp.EnsureMapped(gpa, false); err != nil {
						t.Fatal(err)
					}
					vas = append(vas, va)
				}
				return vas
			}

			mem := flatMem{}
			pom, err := baselines.NewPOMTLB(baselines.DefaultPOMTLBConfig(), mem, kern, hyp)
			if err != nil {
				t.Fatal(err)
			}
			flat, err := baselines.NewFlatNested(mem, kern, hyp)
			if err != nil {
				t.Fatal(err)
			}
			nested := []core.Walker{
				core.NewNestedRadix(core.DefaultRadixWalkConfig(), mem, kern, hyp),
				core.NewNestedECPT(core.DefaultNestedECPTConfig(core.AdvancedTechniques()), mem, kern, hyp),
				core.NewHybrid(core.DefaultHybridConfig(), mem, kern, hyp),
				baselines.NewAgileIdeal(mem, kern, hyp),
				pom,
				flat,
			}
			native := []core.Walker{
				core.NewNativeRadix(core.DefaultRadixWalkConfig(), mem, kern),
				core.NewNativeECPT(core.DefaultNativeECPTConfig(), mem, kern),
			}

			var now uint64
			verify := func(vas []addr.GVA, phase string) {
				for _, va := range vas {
					gpa, gsz, ok := kern.Translate(va)
					if !ok {
						t.Fatalf("%s: guest mapping for %#x vanished", phase, va)
					}
					hpa, _, ok := hyp.Translate(gpa)
					if !ok {
						t.Fatalf("%s: host mapping for gPA %#x vanished", phase, gpa)
					}
					for _, w := range native {
						res := resolveWalk(t, w, nil, now, va)
						now += 100
						if got := addr.Translate(res.Frame, va, res.Size); got != addr.IdentityHPA(gpa) {
							t.Fatalf("%s: %s resolves %#x to gPA %#x, want %#x",
								phase, w.Name(), va, got, gpa)
						}
						if res.Size > gsz {
							t.Fatalf("%s: %s reports %v page for %#x, guest maps %v",
								phase, w.Name(), res.Size, va, gsz)
						}
					}
					for _, w := range nested {
						res := resolveWalk(t, w, hyp, now, va)
						now += 100
						if got := addr.Translate(res.Frame, va, res.Size); got != hpa {
							t.Fatalf("%s: %s resolves %#x to hPA %#x, want %#x",
								phase, w.Name(), va, got, hpa)
						}
						if res.Size > gsz {
							t.Fatalf("%s: %s composed size %v exceeds guest size %v for %#x",
								phase, w.Name(), res.Size, gsz, va)
						}
					}
				}
			}

			first := touch(900)
			verify(first, "initial")

			// Force more elastic rehashes, then re-verify both the new
			// and the original translations: entries must survive live
			// cuckoo migration in every structure.
			second := touch(900)
			var resizes uint64
			for _, sz := range addr.Sizes() {
				resizes += kern.ECPTs().Table(sz).Stats().Resizes
				resizes += hyp.ECPTs().Table(sz).Stats().Resizes
			}
			if resizes == 0 {
				t.Fatal("trace forced no elastic rehash; oracle did not cover migration")
			}
			verify(second, "post-rehash")
			verify(first, "post-rehash-original")
		})
	}
}

// TestDifferentialOracleAfterUnmap checks the designs also agree on
// absence: unmapped pages must fail the walk in every design rather
// than return a stale frame from a cache or a half-migrated table.
func TestDifferentialOracleAfterUnmap(t *testing.T) {
	seed := runner.Seed(7, "differential/unmap")
	kern, err := kernel.New(kernel.Config{
		GuestMemBytes: 1 << 30,
		BuildRadix:    true,
		BuildECPT:     true,
		ECPT:          ecpt.ScaledSetConfig(false, 1024),
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	kern.DefineVMA(kernel.VMA{Base: diff4KBase, Size: diff4KSize})

	rng := vhash.NewRNG(seed)
	var vas []addr.GVA
	for i := 0; i < 300; i++ {
		va := addr.GVA(diff4KBase + rng.Uint64n(diff4KSize))
		if _, _, err := kern.Touch(va); err != nil {
			t.Fatal(err)
		}
		vas = append(vas, va)
	}
	mem := flatMem{}
	native := []core.Walker{
		core.NewNativeRadix(core.DefaultRadixWalkConfig(), mem, kern),
		core.NewNativeECPT(core.DefaultNativeECPTConfig(), mem, kern),
	}
	// Drop every third page, then check walkers agree page by page.
	unmapped := make(map[addr.GVA]bool)
	for i, va := range vas {
		if i%3 == 0 && kern.Unmap(va) {
			unmapped[addr.PageBase(va, addr.Page4K)] = true
		}
	}
	var now uint64
	for _, va := range vas {
		gone := unmapped[addr.PageBase(va, addr.Page4K)]
		gpa, _, mapped := kern.Translate(va)
		if gone == mapped {
			t.Fatalf("kernel state inconsistent for %#x: unmapped=%v mapped=%v", va, gone, mapped)
		}
		for _, w := range native {
			res, err := w.Walk(now, va)
			now += 100
			if gone {
				var nm *core.ErrNotMapped
				if err == nil || !errors.As(err, &nm) {
					t.Fatalf("%s: unmapped %#x returned frame %#x, err %v",
						w.Name(), va, res.Frame, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: mapped %#x: %v", w.Name(), va, err)
			}
			if got := addr.Translate(res.Frame, va, res.Size); got != addr.IdentityHPA(gpa) {
				t.Fatalf("%s: %#x resolved to %#x, want %#x", w.Name(), va, got, gpa)
			}
		}
	}
	if len(unmapped) == 0 {
		t.Fatal("no pages were unmapped; oracle checked nothing")
	}
}
