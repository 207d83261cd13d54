package sim

// Machine.phase and Machine.step seen from outside the happy path: a
// run cancelled at a given context poll stops where that poll stood, in
// either phase and at either width, and a step at either width
// allocates nothing once the machine is warm.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"nestedecpt/internal/workload"
)

// countingGen counts the accesses the machine draws from its generator.
type countingGen struct {
	workload.Generator
	n uint64
}

func (g *countingGen) Next() workload.Access {
	g.n++
	return g.Generator.Next()
}

// countdownCtx turns Canceled at its k-th Err call and stays so.
type countdownCtx struct {
	context.Context
	calls, k int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls >= c.k {
		return context.Canceled
	}
	return nil
}

// TestRunContextCancellation cancels a run at one of RunContext's
// context polls — the first is at entry, then each phase polls before
// its first access and every ctxCheckInterval accesses after — and
// requires the run to stop there: context.Canceled, no result, and not
// one access issued after the poll that saw the cancellation. The poll
// before it was ctxCheckInterval accesses earlier in both modes, so a
// cancellation bites within ctxCheckInterval + BatchSize accesses, and
// a batched phase polls as rarely as an unbatched one (it used to poll
// once a batch, which would stop the batched measured row 8 accesses
// into its phase).
func TestRunContextCancellation(t *testing.T) {
	const warmup, measure = ctxCheckInterval + 900, 2*ctxCheckInterval + 5
	for _, tc := range []struct {
		phase string
		k     int // the Err call that cancels
		want  uint64
	}{
		{"warm-up", 3, ctxCheckInterval},           // entry, warm-up 0, warm-up 4096
		{"measured", 5, warmup + ctxCheckInterval}, // …, measured 0, measured 4096
	} {
		for _, batch := range []int{0, 8} {
			t.Run(fmt.Sprintf("%s/batch=%d", tc.phase, batch), func(t *testing.T) {
				cfg := DefaultConfig(DesignNestedECPT, "GUPS", false)
				cfg.WorkloadOpts.Scale = 512
				cfg.WarmupAccesses, cfg.MeasureAccesses = warmup, measure
				cfg.BatchSize = batch
				m, err := NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				gen := &countingGen{Generator: m.gen}
				m.gen = gen
				ctx := &countdownCtx{Context: context.Background(), k: tc.k}

				res, err := m.RunContext(ctx)
				if !errors.Is(err, context.Canceled) || res != nil {
					t.Fatalf("RunContext = (%v, %v), want (nil, context.Canceled)", res, err)
				}
				if ctx.calls != tc.k {
					t.Errorf("context polled %d times, want %d", ctx.calls, tc.k)
				}
				if gen.n != tc.want {
					t.Errorf("%d accesses issued before the run stopped, want %d", gen.n, tc.want)
				}
				if measured := tc.want - min(tc.want, warmup); m.res.MemAccesses != measured {
					t.Errorf("MemAccesses = %d, want %d", m.res.MemAccesses, measured)
				}
			})
		}
	}
}

// TestStepAllocationFree pins that a step allocates nothing at either
// width on a warm machine, alone (Cores 1, no co-runners) and with the
// default seven co-runners — and under THP on BC with a 30% huge-page
// failure rate, where every co-runner resolve goes through 4KB elements
// and split blocks: its scratch, the co-runner group's included, is
// sized once, in NewMachine, and the memo's blocks in Prepopulate.
// TestWalkAllocationFree (root package) covers the walkers alone. The
// pin is dynamic only: step's fault paths map pages, which allocates,
// so step cannot join the static hot region, and the measured function
// is passed by name because analysis.TestAllocsPerRunPinsAreHot asks
// for a //nestedlint:hotpath on whatever an AllocsPerRun literal calls.
func TestStepAllocationFree(t *testing.T) {
	for _, row := range []struct {
		app      string
		thp      bool
		hugeFail float64
		cores    int
	}{{"GUPS", false, 0, 1}, {"GUPS", false, 0, 8}, {"BC", true, 0.3, 8}} {
		cfg := DefaultConfig(DesignNestedECPT, row.app, row.thp)
		cfg.WorkloadOpts.Scale = 512
		cfg.WarmupAccesses, cfg.MeasureAccesses = 30_000, 10_000
		cfg.BatchSize = 8
		cfg.Cores = row.cores
		cfg.HugePageFailureRate = row.hugeFail
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(m.corunners); got != row.cores-1 {
			t.Fatalf("Cores %d: %d co-runners, want %d", row.cores, got, row.cores-1)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			batched bool
			n       int
		}{{false, 1}, {true, cfg.BatchSize}} {
			oneStep := func() {
				if err := m.step(true, tc.batched, tc.n); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(500, oneStep); allocs != 0 {
				t.Errorf("%s thp=%v Cores %d: step(width %d, batched=%v) allocates %v times a step, want 0",
					row.app, row.thp, row.cores, tc.n, tc.batched, allocs)
			}
		}
	}
}
