// Benchmarks regenerating every table and figure of the paper's
// evaluation at a reduced but representative scale. Each benchmark
// prints the corresponding rows/series once (so `go test -bench=.`
// reproduces the evaluation's shape) and reports the simulation cost
// per regeneration.
//
// For the full-scale evaluation use: go run ./cmd/experiments
package nestedecpt

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/core"
	"nestedecpt/internal/report"
)

// benchSettings keeps each benchmark's simulation volume small enough
// for `go test -bench=.` to complete in minutes. The suite sweeps its
// runs GOMAXPROCS wide (all figures print identically at any width;
// see report.Settings.Parallelism).
func benchSettings(apps ...string) report.Settings {
	return report.Settings{Warmup: 10_000, Measure: 30_000, Scale: 16, Seed: 42, Apps: apps,
		Parallelism: runtime.GOMAXPROCS(0)}
}

// benchSuite is shared across benchmarks so configurations reused by
// several figures (exactly like the paper's shared runs) simulate once.
var (
	benchSuiteOnce sync.Once
	benchSuiteInst *report.Suite
)

func sharedSuite() *report.Suite {
	benchSuiteOnce.Do(func() {
		benchSuiteInst = report.NewSuite(benchSettings("BC", "DC", "GUPS", "MUMmer", "SysBench"))
	})
	return benchSuiteInst
}

// once guards so each figure prints a single copy regardless of b.N.
var printed sync.Map

func emit(name string, f func(w io.Writer) error, b *testing.B) {
	var w io.Writer = io.Discard
	if _, dup := printed.LoadOrStore(name, true); !dup {
		w = os.Stdout
		fmt.Fprintf(w, "\n===== %s =====\n", name)
	}
	if err := f(w); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTable1Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit("Table 1", func(w io.Writer) error { report.Table1(w); return nil }, b)
	}
}

func BenchmarkTable2Parameters(b *testing.B) {
	s := sharedSuite()
	for i := 0; i < b.N; i++ {
		emit("Table 2", func(w io.Writer) error { report.Table2(w, s.Settings); return nil }, b)
	}
}

func BenchmarkTable3AreaPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit("Table 3", func(w io.Writer) error { report.Table3(w); return nil }, b)
	}
}

func BenchmarkTable4Applications(b *testing.B) {
	s := sharedSuite()
	for i := 0; i < b.N; i++ {
		emit("Table 4", func(w io.Writer) error { report.Table4(w, s.Settings); return nil }, b)
	}
}

func BenchmarkFigure9Speedup(b *testing.B) {
	s := sharedSuite()
	for i := 0; i < b.N; i++ {
		emit("Figure 9", s.Figure9, b)
	}
}

func BenchmarkFigure10MMUBusy(b *testing.B) {
	s := sharedSuite()
	for i := 0; i < b.N; i++ {
		emit("Figure 10", s.Figure10, b)
	}
}

func BenchmarkFigure11WalkLatency(b *testing.B) {
	s := sharedSuite()
	for i := 0; i < b.N; i++ {
		emit("Figure 11", s.Figure11, b)
	}
}

func BenchmarkFigure12AdaptiveHitRates(b *testing.B) {
	s := sharedSuite()
	for i := 0; i < b.N; i++ {
		emit("Figure 12", s.Figure12, b)
	}
}

func BenchmarkFigure13CacheCharacterization(b *testing.B) {
	s := sharedSuite()
	for i := 0; i < b.N; i++ {
		emit("Figure 13", s.Figure13, b)
	}
}

func BenchmarkFigure14WalkBreakdown(b *testing.B) {
	s := sharedSuite()
	for i := 0; i < b.N; i++ {
		emit("Figure 14", s.Figure14, b)
	}
}

func BenchmarkSection94STCSweep(b *testing.B) {
	s := sharedSuite()
	for i := 0; i < b.N; i++ {
		emit("Section 9.4", s.Section94, b)
	}
}

func BenchmarkSection95Memory(b *testing.B) {
	s := sharedSuite()
	for i := 0; i < b.N; i++ {
		emit("Section 9.5", s.Section95, b)
	}
}

func BenchmarkSection96OtherDesigns(b *testing.B) {
	s := sharedSuite()
	for i := 0; i < b.N; i++ {
		emit("Section 9.6", s.Section96, b)
	}
}

// benchSweep runs a fixed small design×app matrix (Figure 10's) on a
// fresh suite each iteration, so the sweep engine at width 1 and at
// GOMAXPROCS can be compared directly: the speedup of BenchmarkSweepEngineParallel
// over BenchmarkSweepEngineSequential is the sweep engine's scaling on
// this host (runs are independent, so it approaches min(GOMAXPROCS,
// runs) on multi-core machines).
func benchSweep(b *testing.B, parallel int) {
	for i := 0; i < b.N; i++ {
		set := report.Settings{Warmup: 2_000, Measure: 6_000, Scale: 16, Seed: 42,
			Apps: []string{"GUPS", "BC"}, Parallelism: parallel}
		s := report.NewSuite(set)
		if err := s.Figure10(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepEngineSequential(b *testing.B) { benchSweep(b, 1) }

func BenchmarkSweepEngineParallel(b *testing.B) { benchSweep(b, runtime.GOMAXPROCS(0)) }

// walkBenchNow is the fixed cycle stamp the walk benchmarks and the
// allocation-regression test walk at. A constant beyond the warmed
// machine's clock keeps the adaptive controller quiescent after its
// first interval instead of re-triggering every iteration.
const walkBenchNow = uint64(1) << 40

// warmedWalkMachine builds and runs a machine, then resolves a set of
// VAs the walker actually translates. It fails loudly if none resolve,
// so the walk benchmarks can never silently measure the fault path.
func warmedWalkMachine(tb testing.TB, design Design, app string, thp bool) (*Machine, []addr.GVA) {
	tb.Helper()
	cfg := DefaultConfig(design, app, thp)
	cfg.WarmupAccesses = 5_000
	cfg.MeasureAccesses = 5_000
	m, err := NewMachine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		tb.Fatal(err)
	}
	var vas []addr.GVA
	for i := uint64(0); i < 8192 && len(vas) < 1024; i++ {
		va := addr.GVA(0x4000_0000_0000 + i*4096)
		if _, err := m.Walker().Walk(walkBenchNow, va); err == nil {
			vas = append(vas, va)
		}
	}
	if len(vas) == 0 {
		tb.Fatalf("%v/%s: no mapped VAs resolved; workload layout changed?", design, app)
	}
	return m, vas
}

// BenchmarkSingleWalkNestedECPT measures raw walker throughput: how
// fast the simulator executes nested ECPT walks (host metric, not a
// paper figure). Every iteration walks a pre-resolved mapped address,
// so the loop measures translation cost, never the fault path.
func BenchmarkSingleWalkNestedECPT(b *testing.B) {
	m, vas := warmedWalkMachine(b, NestedECPT, "GUPS", true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Walker().Walk(walkBenchNow, vas[i%len(vas)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchWalkNestedECPT measures the batched walker hot path:
// WalkBatch over pre-resolved mapped addresses at the pipeline's batch
// sizes. Divide ns/op by the batch size for ns/walk; the number that
// counts is core.walkbatch32_ns_per_walk of `make endbench TRACE=1`, and
// alloc_test.go holds the batch path at 0 allocs.
func BenchmarkBatchWalkNestedECPT(b *testing.B) {
	for _, batch := range []int{8, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			m, vas := warmedWalkMachine(b, NestedECPT, "GUPS", true)
			w := m.Walker()
			// Feed sliding windows of a pre-extended pool so the timed
			// loop measures WalkBatch alone, never input staging.
			pool := make([]addr.GVA, len(vas)+batch)
			copy(pool, vas)
			copy(pool[len(vas):], vas)
			outs := make([]core.WalkResult, batch)
			errs := make([]error, batch)
			w.WalkBatch(walkBenchNow, pool[:batch], outs, errs) // grow scratch before timing
			off := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.WalkBatch(walkBenchNow, pool[off:off+batch], outs, errs)
				if off++; off == len(vas) {
					off = 0
				}
			}
			b.StopTimer()
			perWalk := float64(b.Elapsed().Nanoseconds()) / float64(b.N*batch)
			b.ReportMetric(perWalk, "ns/walk")
		})
	}
}

// BenchmarkSimulationThroughput measures end-to-end simulated accesses
// per second for the headline configuration.
func BenchmarkSimulationThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(NestedECPT, "BC", true)
		cfg.WarmupAccesses = 2_000
		cfg.MeasureAccesses = 10_000
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCuckooWays sweeps the cuckoo associativity d (the
// paper evaluates d=3): fewer ways mean fewer parallel probes per step
// but more displacement and resize pressure; more ways the opposite.
// This is the ablation DESIGN.md calls out for the d=3 choice.
func BenchmarkAblationCuckooWays(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit("Ablation: cuckoo ways (GUPS, 4KB)", func(w io.Writer) error {
			fmt.Fprintf(w, "%-6s %12s %10s %10s\n", "d", "cycles", "mean walk", "kicks")
			for _, d := range []int{2, 3, 4} {
				cfg := DefaultConfig(NestedECPT, "GUPS", false)
				cfg.WarmupAccesses, cfg.MeasureAccesses = 20_000, 60_000
				cfg.ECPTWays = d
				m, err := NewMachine(cfg)
				if err != nil {
					return err
				}
				res, err := m.Run()
				if err != nil {
					return err
				}
				kicks := m.Kernel().ECPTs().Table(0).Stats().Kicks
				fmt.Fprintf(w, "%-6d %12d %10.0f %10d\n", d, res.Cycles, res.WalkLatency.Mean(), kicks)
			}
			return nil
		}, b)
	}
}

// BenchmarkAblationInterference toggles the co-runner interference
// model, quantifying how much of the measured translation cost comes
// from the 8-core shared-L3 contention the paper's testbed has.
func BenchmarkAblationInterference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit("Ablation: co-runner interference (GUPS, 4KB)", func(w io.Writer) error {
			fmt.Fprintf(w, "%-8s %12s %12s\n", "cores", "NR cycles", "NE cycles")
			for _, cores := range []int{1, 8} {
				var cyc [2]uint64
				for j, d := range []Design{NestedRadix, NestedECPT} {
					cfg := DefaultConfig(d, "GUPS", false)
					cfg.WarmupAccesses, cfg.MeasureAccesses = 20_000, 60_000
					cfg.Cores = cores
					res, err := Run(cfg)
					if err != nil {
						return err
					}
					cyc[j] = res.Cycles
				}
				fmt.Fprintf(w, "%-8d %12d %12d\n", cores, cyc[0], cyc[1])
			}
			return nil
		}, b)
	}
}
