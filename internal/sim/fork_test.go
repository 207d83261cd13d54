package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"nestedecpt/internal/core"
	"nestedecpt/internal/runner"
	"nestedecpt/internal/workload"
)

// forkConfig is quickConfig at a scale small enough that every design
// pre-populates in well under a second.
func forkConfig(d Design, app string, thp bool) Config {
	cfg := quickConfig(d, app, thp)
	cfg.WorkloadOpts = workload.Options{Scale: 256, Seed: 7}
	return cfg
}

// templateFor returns a config with cfg's set-up key that simulates
// something else: another walker over the same tables where the design
// has one (Ideal Agile and Nested Radix walk the same radix tables),
// Plain techniques, other run lengths and a batched measured phase.
func templateFor(cfg Config) Config {
	tpl := cfg
	switch cfg.Design {
	case DesignNestedRadix:
		tpl.Design = DesignAgileIdeal
	case DesignAgileIdeal:
		tpl.Design = DesignNestedRadix
	}
	tpl.Tech = core.PlainTechniques()
	tpl.NestedECPT = core.DefaultNestedECPTConfig(tpl.Tech)
	tpl.WarmupAccesses, tpl.MeasureAccesses = cfg.WarmupAccesses/2, cfg.MeasureAccesses+1_000
	tpl.BatchSize = 4
	return tpl
}

func mustPopulated(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Prepopulate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestForkMatchesFreshBuild is the fork witness: a run on a fork of a
// template pre-populated for a different config with the same set-up
// key equals, field for field, a run NewMachine built from scratch —
// twice over, so the first fork's paging cannot have leaked into the
// second — and the template itself, run afterwards, equals a fresh run
// of its own config, so neither fork leaked into it. Designs whose
// walker reserves host memory at construction refuse to fork.
func TestForkMatchesFreshBuild(t *testing.T) {
	apps, pages := []string{"GUPS", "BC", "MUMmer"}, []bool{false, true}
	if testing.Short() {
		apps, pages = []string{"GUPS"}, []bool{false}
	}
	for d := Design(0); d < numDesigns; d++ {
		for _, app := range apps {
			for _, thp := range pages {
				t.Run(fmt.Sprintf("%v/%s/thp=%v", d, app, thp), func(t *testing.T) {
					cfg := forkConfig(d, app, thp)
					tplCfg := templateFor(cfg)
					key, shares, err := SetupOf(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if tplKey, _, _ := SetupOf(tplCfg); tplKey != key {
						t.Fatalf("template config has key %+v, run has %+v", tplKey, key)
					}
					tpl := mustPopulated(t, tplCfg)
					if !shares {
						if d != DesignPOMTLB && d != DesignFlatNested {
							t.Fatalf("SetupOf says %v cannot share its set-up", d)
						}
						if _, err := tpl.Fork(cfg); err == nil {
							t.Fatalf("Fork for a %v run succeeded", d)
						}
						if _, err := mustPopulated(t, cfg).Fork(tplCfg); err == nil {
							t.Fatalf("Fork of a %v machine succeeded", d)
						}
						return
					}
					want, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					for i := range 2 {
						f, err := tpl.Fork(cfg)
						if err != nil {
							t.Fatal(err)
						}
						got, err := f.Run()
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("fork %d: result differs from a fresh build", i)
						}
					}
					wantTpl, err := Run(tplCfg)
					if err != nil {
						t.Fatal(err)
					}
					gotTpl, err := tpl.Run()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(wantTpl, gotTpl) {
						t.Fatal("the template, run after its forks, differs from a fresh build of its config")
					}
				})
			}
		}
	}
}

// TestForkRefuses checks Fork's preconditions: a populated, unstarted
// template with the run's set-up key.
func TestForkRefuses(t *testing.T) {
	cfg := forkConfig(DesignNestedECPT, "GUPS", false)
	fresh, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Fork(cfg); err == nil {
		t.Error("Fork of a machine that was never pre-populated succeeded")
	}
	tpl := mustPopulated(t, cfg)
	for name, other := range map[string]Config{
		"thp":    forkConfig(DesignNestedECPT, "GUPS", true),
		"app":    forkConfig(DesignNestedECPT, "BC", false),
		"design": forkConfig(DesignNestedHybrid, "GUPS", false),
		"ways":   func() Config { c := cfg; c.ECPTWays = 4; return c }(),
	} {
		if _, err := tpl.Fork(other); err == nil {
			t.Errorf("%s: Fork with a different set-up key succeeded", name)
		}
	}
	if _, err := tpl.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := tpl.Fork(cfg); err == nil {
		t.Error("Fork of a machine that has run succeeded")
	}
}

// TestForksRunConcurrently runs forks of one template side by side on
// the runner — the shape report.Simulate gives a shared set-up — and
// checks each against a fresh build. Under the race detector (make
// race) it proves the forks share no written state: the way arrays are
// read by all of them and copied by whichever writes.
func TestForksRunConcurrently(t *testing.T) {
	cfg := forkConfig(DesignNestedECPT, "GUPS", false)
	cfg.WarmupAccesses, cfg.MeasureAccesses = 2_000, 4_000
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tpl := mustPopulated(t, templateFor(cfg))
	forks := make([]*Machine, 3)
	for i := range forks {
		if forks[i], err = tpl.Fork(cfg); err != nil {
			t.Fatal(err)
		}
	}
	tasks := make([]runner.Task[*Result], len(forks))
	for i, f := range forks {
		tasks[i] = runner.Task[*Result]{Name: fmt.Sprintf("fork-%d", i), Run: f.RunContext}
	}
	for i, r := range runner.Run(context.Background(), tasks, runner.Options{Parallelism: len(tasks)}) {
		if r.Err != nil {
			t.Fatalf("fork %d: %v", i, r.Err)
		}
		if !reflect.DeepEqual(want, r.Value) {
			t.Errorf("fork %d: result differs from a fresh build", i)
		}
	}
}
