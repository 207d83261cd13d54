package baselines

// The baseline walkers batch through core.SequentialWalkBatch (their
// lanes have no internal stage structure to overlap); these tests pin
// that each one's WalkBatch matches sequential Walks lane for lane on
// an identically built twin and respects the overlap bounds.

import (
	"testing"

	"nestedecpt/internal/core"
)

func batchBaselines() map[string]func(f *fixture) core.Walker {
	return map[string]func(f *fixture) core.Walker{
		"agile-ideal": func(f *fixture) core.Walker { return NewAgileIdeal(f.mem, f.kern, f.hyp) },
		"flat-nested": func(f *fixture) core.Walker { return must(NewFlatNested(f.mem, f.kern, f.hyp)) },
		"pom-tlb":     func(f *fixture) core.Walker { return must(NewPOMTLB(DefaultPOMTLBConfig(), f.mem, f.kern, f.hyp)) },
	}
}

func TestBaselineWalkBatchMatchesSequential(t *testing.T) {
	const now = uint64(1) << 30
	for name, build := range batchBaselines() {
		t.Run(name, func(t *testing.T) {
			fSeq := newFixture(t, true)
			wSeq := build(fSeq)
			drive(t, fSeq, wSeq)
			fBat := newFixture(t, true)
			wBat := build(fBat)
			drive(t, fBat, wBat)

			vas := fSeq.vas
			seqOut := make([]core.WalkResult, len(vas))
			for i, va := range vas {
				var err error
				if seqOut[i], err = wSeq.Walk(now, va); err != nil {
					t.Fatal(err)
				}
			}
			outs := make([]core.WalkResult, len(vas))
			errs := make([]error, len(vas))
			for start, n := 0, 0; start < len(vas); start += n {
				n = 7
				if start+n > len(vas) {
					n = len(vas) - start
				}
				lat := wBat.WalkBatch(now, vas[start:start+n], outs[start:start+n], errs[start:start+n])
				var sum, max uint64
				for i := start; i < start+n; i++ {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					sum += outs[i].Latency
					if outs[i].Latency > max {
						max = outs[i].Latency
					}
				}
				if lat < max || lat > sum {
					t.Fatalf("chunk at %d: batch latency %d outside [max %d, sum %d]", start, lat, max, sum)
				}
			}
			for i := range vas {
				if seqOut[i] != outs[i] {
					t.Fatalf("%s lane %d (%#x): sequential %+v != batched %+v", name, i, vas[i], seqOut[i], outs[i])
				}
			}
			if lat := wBat.WalkBatch(now, nil, nil, nil); lat != 0 {
				t.Fatalf("empty batch latency = %d", lat)
			}
		})
	}
}
