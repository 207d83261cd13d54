package core_test

// Fault paths of every host dimension. The per-walker tests check that
// a serviced walk converges to the right translation; this one pins
// what each configuration of the shared guest-radix walk reports on
// the way there: which address faulted, in which space, in what order,
// and that a faulted walk charges no latency. It is an external test
// package because two of the five configurations live in baselines,
// which imports core.

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
)

// constMem charges every access a fixed latency.
type constMem struct{ accesses int }

func (m *constMem) Access(uint64, addr.HPA, cachesim.Source) (uint64, cachesim.ServiceLevel) {
	m.accesses++
	return 10, cachesim.ServedL2
}

func (m *constMem) AccessParallel(_ uint64, pas []addr.HPA, _ cachesim.Source) uint64 {
	m.accesses += len(pas)
	if len(pas) == 0 {
		return 0
	}
	return 10
}

const (
	faultVMABase = addr.GVA(0x1000_0000)
	faultVMASize = 64 << 20
)

// coldFixture touches guest pages and host-maps nothing: the hypervisor
// has no unmap, so the host faults are observed by starting unmapped.
// The host maintains both table kinds so one fixture serves every host
// dimension.
func coldFixture(t *testing.T, thp bool) (*kernel.Kernel, *hypervisor.Hypervisor, []addr.GVA) {
	t.Helper()
	k, err := kernel.New(kernel.Config{GuestMemBytes: 1 << 30, THP: thp, BuildRadix: true, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	k.DefineVMA(kernel.VMA{Base: faultVMABase, Size: faultVMASize, THPEligible: true})
	h, err := hypervisor.New(hypervisor.Config{
		HostMemBytes: 4 << 30, THP: thp, BuildRadix: true, BuildECPT: true,
		ECPT: ecpt.ScaledSetConfig(true, 64), Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	vas := []addr.GVA{faultVMABase + 0x5123, faultVMABase + (9 << 21) + 0x7040, faultVMABase + (40 << 20)}
	for _, va := range vas {
		if _, _, err := k.Touch(va); err != nil {
			t.Fatal(err)
		}
	}
	return k, h, vas
}

type batcher interface {
	core.Walker
	SetBatchMSHRs(int)
}

func TestHostDimensionFaultPaths(t *testing.T) {
	configs := []struct {
		name   string
		nested bool
		build  func(core.MemSystem, *kernel.Kernel, *hypervisor.Hypervisor) batcher
	}{
		{"radix", false, func(m core.MemSystem, k *kernel.Kernel, _ *hypervisor.Hypervisor) batcher {
			return core.NewNativeRadix(core.DefaultRadixWalkConfig(), m, k)
		}},
		{"nested-radix", true, func(m core.MemSystem, k *kernel.Kernel, h *hypervisor.Hypervisor) batcher {
			return core.NewNestedRadix(core.DefaultRadixWalkConfig(), m, k, h)
		}},
		{"hybrid", true, func(m core.MemSystem, k *kernel.Kernel, h *hypervisor.Hypervisor) batcher {
			return core.NewHybrid(core.DefaultHybridConfig(), m, k, h)
		}},
		{"agile-ideal", true, func(m core.MemSystem, k *kernel.Kernel, h *hypervisor.Hypervisor) batcher {
			return baselines.NewAgileIdeal(m, k, h)
		}},
		{"flat-nested", true, func(m core.MemSystem, k *kernel.Kernel, h *hypervisor.Hypervisor) batcher {
			w, err := baselines.NewFlatNested(m, k, h)
			if err != nil {
				panic(err) // the fixture's host has room for the flat table
			}
			return w
		}},
	}
	for _, cfg := range configs {
		for _, thp := range []bool{false, true} {
			name := cfg.name + "/4k"
			if thp {
				name = cfg.name + "/thp"
			}
			t.Run(name, func(t *testing.T) {
				k, h, vas := coldFixture(t, thp)
				mem := &constMem{}
				w := cfg.build(mem, k, h)

				// An address the guest never touched is a guest fault.
				untouched := faultVMABase + faultVMASize - 0x1000
				res, err := w.Walk(0, untouched)
				wantFault(t, err, core.ErrNotMapped{Space: "guest", GVA: untouched})
				if res.Latency != 0 {
					t.Errorf("guest-faulted walk reports latency %d", res.Latency)
				}

				for _, va := range vas {
					// The faults a cold walk must report, in order: the gPA of
					// each guest table entry it reads, gL4 first, then the data
					// gPA. Natively there is no host to fault in.
					dataGPA, gsize, ok := k.Translate(va)
					if !ok {
						t.Fatalf("guest translate %#x failed", va)
					}
					// resolved lists the gPAs the walk resolves through the host
					// dimension, in order; the next fault is the first unmapped one
					// (servicing a fault with a host huge page can map later ones).
					var resolved []addr.GPA
					if cfg.nested {
						for l := addr.L4; l >= addr.LeafLevel(gsize); l-- {
							entry, ok := k.Radix().EntryPA(va, l)
							if !ok {
								t.Fatalf("no %v entry for %#x", l, va)
							}
							resolved = append(resolved, entry)
						}
						resolved = append(resolved, dataGPA)
					}
					nextFault := func() (addr.GPA, bool) {
						for _, gpa := range resolved {
							if _, _, mapped := h.Translate(gpa); !mapped {
								return gpa, true
							}
						}
						return 0, false
					}
					if gpa, _ := nextFault(); va == vas[0] && cfg.nested && gpa != resolved[0] {
						t.Fatalf("cold fixture is not cold: first fault would be %#x, not the gL4 entry %#x", gpa, resolved[0])
					}
					faults := 0
					for gpa, more := nextFault(); more; gpa, more = nextFault() {
						if faults++; faults > len(resolved) {
							t.Fatalf("walk %#x faulted more than once per table level plus the data page", va)
						}
						// A host-faulted lane did real work (the flat table was
						// read) yet reports no latency and adds nothing to the
						// batch it rode in.
						out := make([]core.WalkResult, 2)
						errs := make([]error, 2)
						w.SetBatchMSHRs(1)
						lat := w.WalkBatch(0, []addr.GVA{va, untouched}, out, errs)
						wantFault(t, errs[0], core.ErrNotMapped{Space: "host", GPA: gpa})
						wantFault(t, errs[1], core.ErrNotMapped{Space: "guest", GVA: untouched})
						if lat != 0 || out[0].Latency != 0 || out[1].Latency != 0 {
							t.Errorf("fault %d: faulted lanes charged latency: batch %d, lanes %d/%d", faults, lat, out[0].Latency, out[1].Latency)
						}

						res, err := w.Walk(0, va)
						wantFault(t, err, core.ErrNotMapped{Space: "host", GPA: gpa})
						if res.Latency != 0 {
							t.Errorf("fault %d: host-faulted walk reports latency %d", faults, res.Latency)
						}
						// Service it the way sim.serviceFault does.
						var nm *core.ErrNotMapped
						errors.As(err, &nm)
						if _, err := h.EnsureMapped(nm.GPA, nm.PageTable); err != nil {
							t.Fatal(err)
						}
					}
					if !thp && cfg.nested && va == vas[0] && faults != len(resolved) {
						t.Errorf("cold 4KB walk faulted %d times, want one per table level plus the data page (%d)", faults, len(resolved))
					}

					// Serviced, the walk converges to the functional translation.
					res, err := w.Walk(0, va)
					if err != nil {
						t.Fatalf("walk %#x after %d serviced faults: %v", va, faults, err)
					}
					wantPA, wantSize := addr.IdentityHPA(dataGPA), gsize
					if cfg.nested {
						hpa, hsize, _ := h.Translate(dataGPA)
						wantPA = hpa
						if hsize < wantSize {
							wantSize = hsize
						}
					}
					if res.Size != wantSize || addr.Translate(res.Frame, va, res.Size) != wantPA {
						t.Errorf("walk %#x = frame %#x size %v, want pa %#x size %v", va, res.Frame, res.Size, wantPA, wantSize)
					}
					if res.Latency == 0 || res.Accesses == 0 {
						t.Errorf("successful walk reports latency %d, %d accesses", res.Latency, res.Accesses)
					}

					// A good lane beside a faulting one: the batch costs the
					// good lane alone.
					out := make([]core.WalkResult, 2)
					errs := make([]error, 2)
					lat := w.WalkBatch(0, []addr.GVA{untouched, va}, out, errs)
					if errs[1] != nil || lat != out[1].Latency || lat == 0 {
						t.Errorf("batch beside a faulted lane: latency %d, good lane %d (%v)", lat, out[1].Latency, errs[1])
					}
				}
			})
		}
	}
}

// wantFault checks err is exactly the expected ErrNotMapped.
func wantFault(t *testing.T, err error, want core.ErrNotMapped) {
	t.Helper()
	var nm *core.ErrNotMapped
	if !errors.As(err, &nm) {
		t.Fatalf("error %v is not an ErrNotMapped, want %+v", err, want)
	}
	if *nm != want {
		t.Fatalf("fault %+v, want %+v", *nm, want)
	}
}
