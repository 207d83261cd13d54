// Allocation-regression test for the walk hot path. A walker runs
// millions of times per simulation; a single allocation per walk
// reintroduces the GC pressure this path was rebuilt to remove, so
// steady-state allocation-freedom is pinned as a tier-1 test for every
// design and both entry points, not just a benchmark number. (It is
// also the tripwire for the one escape the shared radix walk invites:
// a stack WalkResult handed to the core.HostDim interface moves to the
// heap, one allocation per walk, which no source pattern in `make
// lint` reports.)
package nestedecpt

import (
	"fmt"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/core"
)

func TestWalkAllocationFree(t *testing.T) {
	designs := []Design{Radix, ECPT, NestedRadix, NestedECPT, NestedHybrid, AgileIdeal, POMTLB, FlatNested}
	for _, d := range designs {
		m, vas := warmedWalkMachine(t, d, "GUPS", true)
		w := m.Walker()
		// Warm the exact VA set once more so every MMU-cache line, POM-TLB
		// entry and stats key the measured loops touch already exists.
		for _, va := range vas {
			if _, err := w.Walk(walkBenchNow, va); err != nil {
				t.Fatal(err)
			}
		}
		t.Run(fmt.Sprintf("%v/Walk", d), func(t *testing.T) {
			i := 0
			allocs := testing.AllocsPerRun(500, func() {
				va := vas[i%len(vas)]
				i++
				if _, err := w.Walk(walkBenchNow, va); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state Walk performs %v allocs/op; want 0", allocs)
			}
		})
		// The batched path reuses the per-walker BatchState scratch, so a
		// steady-state WalkBatch must stay allocation-free at every batch
		// size the pipeline issues.
		for _, batch := range []int{8, 32} {
			t.Run(fmt.Sprintf("%v/WalkBatch%d", d, batch), func(t *testing.T) {
				gvas := make([]addr.GVA, batch)
				outs := make([]core.WalkResult, batch)
				errs := make([]error, batch)
				fill := func(start int) {
					for i := range gvas {
						gvas[i] = vas[(start+i)%len(vas)]
					}
				}
				// One warm call grows the BatchState stage slices to batch size.
				fill(0)
				w.WalkBatch(walkBenchNow, gvas, outs, errs)
				i := 0
				allocs := testing.AllocsPerRun(200, func() {
					fill(i)
					i += batch
					if lat := w.WalkBatch(walkBenchNow, gvas, outs, errs); lat == 0 {
						t.Fatal("batched walk reported zero latency")
					}
					for j := range errs {
						if errs[j] != nil {
							t.Fatal(errs[j])
						}
					}
				})
				if allocs != 0 {
					t.Fatalf("steady-state WalkBatch performs %v allocs/op; want 0", allocs)
				}
			})
		}
	}
}
