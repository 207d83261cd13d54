package serve

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"nestedecpt/internal/memsim"
)

// smokeConfig returns a run small enough for unit tests: few VMs, a
// deterministic op count per worker, churn on.
func smokeConfig() Config {
	cfg := DefaultConfig()
	cfg.VMs = 3
	cfg.Workers = 4
	cfg.OpsPerWorker = 600
	cfg.ChurnPagesPerRound = 8
	cfg.ChurnInterval = 50 * time.Microsecond
	return cfg
}

// TestServeSmoke drives the full service — concurrent walkers over
// published snapshots with churn publishing new generations — and
// checks the aggregate invariants.
func TestServeSmoke(t *testing.T) {
	cfg := smokeConfig()
	sum, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantOps := uint64(cfg.Workers) * cfg.OpsPerWorker
	if sum.TotalOps < wantOps {
		t.Errorf("TotalOps = %d, want >= %d", sum.TotalOps, wantOps)
	}
	if sum.TranslationsPerSec <= 0 {
		t.Errorf("TranslationsPerSec = %v, want > 0", sum.TranslationsPerSec)
	}
	for vm, n := range sum.PerVMOps {
		if n == 0 {
			t.Errorf("vm %d got no translations", vm)
		}
	}
	// Round-robin scheduling serves every VM equally within each
	// worker, so fairness must be essentially perfect.
	if sum.Fairness < 0.99 {
		t.Errorf("Fairness = %v, want >= 0.99", sum.Fairness)
	}
	if sum.Latency.Count() != sum.TotalOps {
		t.Errorf("latency samples %d != ops %d", sum.Latency.Count(), sum.TotalOps)
	}
	if sum.P50 == 0 || sum.P99 < sum.P50 {
		t.Errorf("implausible percentiles p50=%d p99=%d", sum.P50, sum.P99)
	}
	if sum.PendingReclaims != 0 {
		t.Errorf("PendingReclaims = %d after final collect, want 0", sum.PendingReclaims)
	}
}

// TestServeNoChurnDeterministic checks that with churn disabled and a
// fixed op count, two runs produce identical measurements: the tables
// are frozen at their first snapshot, so every worker's walk stream is
// a pure function of its seed.
func TestServeNoChurnDeterministic(t *testing.T) {
	cfg := smokeConfig()
	cfg.ChurnPagesPerRound = 0
	cfg.OpsPerWorker = 300
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalOps != b.TotalOps {
		t.Errorf("TotalOps differ: %d vs %d", a.TotalOps, b.TotalOps)
	}
	if a.Retries != 0 || b.Retries != 0 {
		t.Errorf("retries without churn: %d / %d, want 0", a.Retries, b.Retries)
	}
	if a.P50 != b.P50 || a.P99 != b.P99 || a.MeanLatency != b.MeanLatency {
		t.Errorf("latency stats differ across identical runs: p50 %d/%d p99 %d/%d mean %v/%v",
			a.P50, b.P50, a.P99, b.P99, a.MeanLatency, b.MeanLatency)
	}
	for vm := range a.PerVMOps {
		if a.PerVMOps[vm] != b.PerVMOps[vm] {
			t.Errorf("vm %d ops differ: %d vs %d", vm, a.PerVMOps[vm], b.PerVMOps[vm])
		}
	}
}

// TestServeDurationMode checks the wall-clock-bounded mode terminates
// and reports a nonzero rate.
func TestServeDurationMode(t *testing.T) {
	cfg := smokeConfig()
	cfg.OpsPerWorker = 0
	cfg.Duration = 150 * time.Millisecond
	sum, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalOps == 0 || sum.TranslationsPerSec <= 0 {
		t.Errorf("duration mode produced no work: ops=%d rate=%v", sum.TotalOps, sum.TranslationsPerSec)
	}
}

// TestJain sanity-checks the fairness index.
func TestJain(t *testing.T) {
	if got := jain([]uint64{100, 100, 100}); got < 0.999 {
		t.Errorf("uniform jain = %v, want ~1", got)
	}
	got := jain([]uint64{300, 0, 0})
	if want := 1.0 / 3.0; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("monopolized jain = %v, want %v", got, want)
	}
	if got := jain(nil); got != 1 {
		t.Errorf("empty jain = %v, want 1", got)
	}
}

// TestConfigDefaults pins the shared configurations and normalization.
func TestConfigDefaults(t *testing.T) {
	vd := VMDensityConfig()
	if vd.VMs != 48 || vd.Workload != "GUPS" || vd.Duration != 2*time.Second {
		t.Errorf("VMDensityConfig = %+v", vd)
	}
	n := (Config{}).normalized()
	d := DefaultConfig()
	if n.VMs != d.VMs || n.Workload != d.Workload || n.Scale != d.Scale || n.Seed != d.Seed {
		t.Errorf("zero config normalized to %+v, want defaults %+v", n, d)
	}
	if n.Duration != time.Second || n.ChurnInterval == 0 {
		t.Errorf("normalization left zero limits: %+v", n)
	}
	// Fixed-op mode must not pick up a duration bound.
	n = (Config{OpsPerWorker: 10}).normalized()
	if n.Duration != 0 {
		t.Errorf("fixed-op normalization set Duration %v", n.Duration)
	}
}

// TestChurnOutgrowingGuestEndsRun: a churn window larger than the
// guest's memory runs the guest out of frames. Run ends cleanly: it
// returns the allocator's out-of-memory error naming the VM, and every
// goroutine it started has exited.
func TestChurnOutgrowingGuestEndsRun(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := DefaultConfig()
	cfg.VMs, cfg.Workers = 1, 1
	cfg.Duration = time.Minute // the exhaustion ends the run long before
	cfg.ChurnPagesPerRound = 4096
	cfg.ChurnInterval = time.Microsecond
	cfg.ChurnWindowPages, cfg.ChurnSpanPages = 1<<20, 1<<21 // 4GB, past any guest
	_, err := Run(context.Background(), cfg)
	var oom *memsim.OutOfMemoryError
	if !errors.As(err, &oom) || !strings.Contains(err.Error(), "vm 0") {
		t.Fatalf("err = %v, want a vm 0 *memsim.OutOfMemoryError", err)
	}
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Run, %d before", n, before)
	}
}
