package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"nestedecpt/internal/cachesim"
)

func quickConfig(d Design, app string, thp bool) Config {
	cfg := DefaultConfig(d, app, thp)
	cfg.WarmupAccesses = 5_000
	cfg.MeasureAccesses = 15_000
	if testing.Short() {
		// The race-detector tier (`make race`) runs this package with
		// -short; an order-of-magnitude slowdown there buys nothing
		// from longer runs.
		cfg.WarmupAccesses = 2_000
		cfg.MeasureAccesses = 5_000
	}
	return cfg
}

func TestAllDesignsRun(t *testing.T) {
	for d := Design(0); d < numDesigns; d++ {
		for _, thp := range []bool{false, true} {
			cfg := quickConfig(d, "BC", thp)
			res, err := runAudited(t, cfg)
			if err != nil {
				t.Fatalf("%v thp=%v: %v", d, thp, err)
			}
			if res.Cycles == 0 || res.Instructions == 0 {
				t.Errorf("%v thp=%v: empty result", d, thp)
			}
			if res.MemAccesses != cfg.MeasureAccesses {
				t.Errorf("%v: measured %d accesses, want %d", d, res.MemAccesses, cfg.MeasureAccesses)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := quickConfig(DesignNestedECPT, "GUPS", true)
	r1, err := runAudited(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runAudited(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Walks != r2.Walks || r1.MMUAccesses != r2.MMUAccesses {
		t.Errorf("runs differ: %d/%d vs %d/%d cycles/walks",
			r1.Cycles, r1.Walks, r2.Cycles, r2.Walks)
	}
}

func TestSeedChangesResult(t *testing.T) {
	cfg := quickConfig(DesignNestedECPT, "GUPS", true)
	r1, _ := runAudited(t, cfg)
	cfg.WorkloadOpts.Seed = 1234
	r2, err := runAudited(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles == r2.Cycles {
		t.Error("different seeds produced identical cycle counts")
	}
}

func TestSteadyStateHasNoFaults(t *testing.T) {
	res, err := runAudited(t, quickConfig(DesignNestedECPT, "BC", true))
	if err != nil {
		t.Fatal(err)
	}
	// Prepopulation plus warm-up must leave the measured region fault
	// free (§7: faults are rare in steady state; here, zero).
	if res.GuestFaults != 0 {
		t.Errorf("guest faults during measurement: %d", res.GuestFaults)
	}
}

func TestTLBMissesProduceWalks(t *testing.T) {
	res, err := runAudited(t, quickConfig(DesignNestedRadix, "GUPS", false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Walks == 0 {
		t.Fatal("no page walks for GUPS")
	}
	if res.Walks != res.L2TLB.Misses {
		t.Errorf("walks %d != L2 TLB misses %d", res.Walks, res.L2TLB.Misses)
	}
	if res.WalkLatency.Count() != res.Walks {
		t.Errorf("histogram count %d != walks %d", res.WalkLatency.Count(), res.Walks)
	}
	if res.MMUBusyCycles < res.WalkCycles {
		t.Error("MMU busy below critical-path walk cycles")
	}
}

func TestNativeFasterThanNested(t *testing.T) {
	nat, err := runAudited(t, quickConfig(DesignRadix, "GUPS", false))
	if err != nil {
		t.Fatal(err)
	}
	nested, err := runAudited(t, quickConfig(DesignNestedRadix, "GUPS", false))
	if err != nil {
		t.Fatal(err)
	}
	if nat.Cycles >= nested.Cycles {
		t.Errorf("native radix (%d) not faster than nested radix (%d)", nat.Cycles, nested.Cycles)
	}
}

func TestTHPFasterThan4K(t *testing.T) {
	r4k, _ := runAudited(t, quickConfig(DesignNestedRadix, "GUPS", false))
	rthp, err := runAudited(t, quickConfig(DesignNestedRadix, "GUPS", true))
	if err != nil {
		t.Fatal(err)
	}
	if rthp.Cycles >= r4k.Cycles {
		t.Errorf("THP (%d) not faster than 4KB (%d)", rthp.Cycles, r4k.Cycles)
	}
}

func TestAgileIdealBeatsNestedRadix(t *testing.T) {
	nr, _ := runAudited(t, quickConfig(DesignNestedRadix, "GUPS", false))
	ag, err := runAudited(t, quickConfig(DesignAgileIdeal, "GUPS", false))
	if err != nil {
		t.Fatal(err)
	}
	if ag.Cycles >= nr.Cycles {
		t.Errorf("ideal Agile (%d) not faster than nested radix (%d)", ag.Cycles, nr.Cycles)
	}
}

func TestWalkerStatsExposed(t *testing.T) {
	res, err := Run(quickConfig(DesignNestedECPT, "BC", true))
	if err != nil {
		t.Fatal(err)
	}
	if res.NestedECPT == nil {
		t.Fatal("NestedECPT stats missing")
	}
	if res.NestedECPT.GuestClasses.Total() == 0 {
		t.Error("guest classes empty")
	}
	res2, err := runAudited(t, quickConfig(DesignECPT, "BC", true))
	if err != nil {
		t.Fatal(err)
	}
	if res2.NativeECPT == nil {
		t.Error("NativeECPT stats missing")
	}
	res3, err := runAudited(t, quickConfig(DesignNestedHybrid, "BC", true))
	if err != nil {
		t.Fatal(err)
	}
	if res3.Hybrid == nil {
		t.Error("Hybrid stats missing")
	}
}

func TestMemoryAccounting(t *testing.T) {
	res, err := runAudited(t, quickConfig(DesignNestedECPT, "BC", false))
	if err != nil {
		t.Fatal(err)
	}
	if res.GuestPTBytes == 0 || res.HostPTBytes == 0 || res.PTEntries == 0 {
		t.Errorf("memory accounting empty: %d/%d/%d",
			res.GuestPTBytes, res.HostPTBytes, res.PTEntries)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := quickConfig(DesignRadix, "", false)
	if _, err := Run(cfg); err == nil {
		t.Error("empty workload accepted")
	}
	cfg = quickConfig(DesignRadix, "BC", false)
	cfg.MeasureAccesses = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero measure accepted")
	}
	cfg = quickConfig(Design(99), "BC", false)
	if _, err := NewMachine(cfg); err == nil {
		t.Error("invalid design accepted")
	}
	if _, err := Run(quickConfig(DesignRadix, "NoSuchApp", false)); err == nil {
		t.Error("unknown app accepted")
	}
	// Odd machine geometry: the first divided the L3 by uint64(-1), the
	// second built 2^30 co-runner generators, the third panicked in
	// cachesim.NewHierarchy, the fourth (FuzzConfigNormalize's find)
	// built a machine whose first walk could not converge.
	for _, tc := range []struct {
		name, field string
		set         func(*Config)
	}{
		{"negative cores", "Cores", func(c *Config) { c.Cores = -1 }},
		{"L3 share under a line", "Cores", func(c *Config) { c.Cores = 1 << 30 }},
		{"sized level without ways", "Hierarchy.L1.Ways", func(c *Config) { c.Hierarchy.L1.Ways = 0 }},
		{"more cuckoo ways than a walk may fault", "ECPTWays", func(c *Config) { c.ECPTWays = 64 }},
	} {
		cfg := quickConfig(DesignRadix, "BC", false)
		tc.set(&cfg)
		if _, err := NewMachine(cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: NewMachine returned %v, want an error naming %s", tc.name, err, tc.field)
		}
	}
}

func TestDesignPredicates(t *testing.T) {
	if DesignRadix.Nested() || !DesignNestedECPT.Nested() {
		t.Error("Nested predicate wrong")
	}
	if !DesignNestedECPT.UsesGuestECPT() || DesignNestedHybrid.UsesGuestECPT() {
		t.Error("UsesGuestECPT wrong")
	}
	if !DesignNestedHybrid.UsesHostECPT() || DesignNestedRadix.UsesHostECPT() {
		t.Error("UsesHostECPT wrong")
	}
	for d := Design(0); d < numDesigns; d++ {
		if d.String() == "" {
			t.Errorf("design %d has no name", d)
		}
	}
}

func TestScalingAppliedToStructures(t *testing.T) {
	cfg := quickConfig(DesignNestedECPT, "GUPS", true)
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eff := m.EffectiveConfig()
	if eff.TLBScale <= 1 || eff.CacheScale <= 1 {
		t.Errorf("scales not derived: %d/%d", eff.TLBScale, eff.CacheScale)
	}
	if eff.RadixWalk.NTLBEntries >= 24 {
		t.Errorf("NTLB not scaled: %d", eff.RadixWalk.NTLBEntries)
	}
	if eff.Hierarchy.L3.SizeBytes >= 16<<20 {
		t.Errorf("L3 not scaled: %d", eff.Hierarchy.L3.SizeBytes)
	}
	if eff.Cores != 8 {
		t.Errorf("Cores = %d", eff.Cores)
	}
}

// TestOddScalesAndCoresBuild: a -scale or Cores that is not a power of
// two must still normalize to a hierarchy the cache model accepts (both
// used to panic in its geometry check).
func TestOddScalesAndCoresBuild(t *testing.T) {
	for _, scale := range []uint64{1, 3, 12, 16, 48, 100} {
		for cores := 1; cores <= 8; cores++ {
			cfg := DefaultConfig(DesignNestedECPT, "GUPS", false)
			cfg.WorkloadOpts.Scale = scale
			cfg.Cores = cores
			if err := cfg.normalize(1 << 30); err != nil {
				t.Fatalf("scale %d, %d cores: %v", scale, cores, err)
			}
			cachesim.NewHierarchy(cfg.Hierarchy)
		}
	}
}

func TestInterferenceInjected(t *testing.T) {
	res, err := runAudited(t, quickConfig(DesignNestedECPT, "GUPS", false))
	if err != nil {
		t.Fatal(err)
	}
	// Co-runner traffic must appear once the app misses into the L3.
	if res.L3Stats.Misses[0]+res.L3Stats.Misses[1] > 1000 {
		m, _ := NewMachine(quickConfig(DesignNestedECPT, "GUPS", false))
		r2, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		_ = r2
		if got := m.mem.RemoteTraffic().Accesses; got == 0 {
			t.Error("no co-runner traffic recorded")
		}
	}
}

func TestEcptBeatsRadixOnGUPS(t *testing.T) {
	// The headline result at reduced scale: parallel nested translation
	// must outperform nested radix for the TLB-hostile workload. This
	// needs enough accesses to warm the MMU caches, so it runs longer
	// than the smoke tests.
	if testing.Short() {
		t.Skip("needs long runs for a stable comparison; single-goroutine, so the -short race tier loses nothing")
	}
	long := func(d Design) Config {
		cfg := DefaultConfig(d, "GUPS", false)
		cfg.WarmupAccesses = 60_000
		cfg.MeasureAccesses = 120_000
		return cfg
	}
	r, err := runAudited(t, long(DesignNestedRadix))
	if err != nil {
		t.Fatal(err)
	}
	e, err := runAudited(t, long(DesignNestedECPT))
	if err != nil {
		t.Fatal(err)
	}
	if e.Cycles >= r.Cycles {
		t.Errorf("Nested ECPTs (%d cycles) not faster than Nested Radix (%d)", e.Cycles, r.Cycles)
	}
	if e.WalkLatency.Mean() >= r.WalkLatency.Mean() {
		t.Errorf("ECPT mean walk %.0f not below radix %.0f",
			e.WalkLatency.Mean(), r.WalkLatency.Mean())
	}
}

// TestResultDoesNotPinMachine: a sweep keeps every run's *Result; if
// that pointer reached into the Machine, every finished machine's page
// tables would stay live until the sweep ended.
func TestResultDoesNotPinMachine(t *testing.T) {
	cfg := DefaultConfig(DesignNestedECPT, "GUPS", false)
	cfg.WorkloadOpts.Scale = 512
	cfg.WarmupAccesses, cfg.MeasureAccesses = 100, 100
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(m, func(*Machine) { close(freed) })
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	m = nil
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(res)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Errorf("the machine is still reachable through its Result (%d accesses) after Run returned", res.MemAccesses)
}
