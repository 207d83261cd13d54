// Command benchmark is the repository's one benchmark for both clocks:
// simulated cycles (the paper's result) and host nanoseconds (how fast
// the Go code produces them). BENCHMARK.json at the repository root
// declares its workloads, metrics and regression bounds; README.md in
// this directory holds the baseline and the per-layer walk budget.
//
//	go run . -workload <name|all> -seed <n> [-seconds <s>] [-trace 0|1] [-json <file>]
//	go run . -compare a.jsonl b.jsonl
//
// One process runs one workload, so host_mem_mb is that workload's own
// high-water mark; "all" re-executes this binary once per workload.
// The last line of standard output is the run's result as one JSON
// object; the exit status is non-zero when a correctness check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runResult is what one invocation measured.
type runResult struct {
	workload string
	seed     uint64
	traced   bool
	check
	values    map[string]float64
	simDigest string
	// notes are printed beside the metrics (sample counts, p95, ...).
	notes []string
	// extra goes into the -json record beside the declared metrics.
	extra map[string]float64
}

func (r *runResult) set(name string, v float64) { r.values[name] = v }

func (r *runResult) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *runResult) declared() []metric {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Uint64("seed", 42, "input seed (42 while developing, 1337 held out)")
		seconds = flag.Float64("seconds", 6, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		jsonOut = flag.String("json", "", "append the run's record to this JSON-lines file")
		compare = flag.Bool("compare", false, "compare two JSON-lines files of runs: -compare a.jsonl b.jsonl")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare a.jsonl b.jsonl")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
	case *name == "all":
		os.Exit(runAll(*seed, *seconds, *trace, *jsonOut))
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal("unknown workload %q; BENCHMARK.json lists them", *name)
		}
		var res *runResult
		if *trace != 0 {
			res = runTraced(w, &fullSize, *seed, spansDir)
		} else {
			res = runUntraced(w, &fullSize, *seed, *seconds)
		}
		if err := res.emit(os.Stdout, *jsonOut); err != nil {
			fatal("%v", err)
		}
		if res.failed > 0 {
			os.Exit(1)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runAll runs every workload in its own process.
func runAll(seed uint64, seconds float64, trace int, jsonOut string) int {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	status := 0
	for _, w := range workloads {
		args := []string{
			"-workload", w.name,
			"-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace),
		}
		if jsonOut != "" {
			args = append(args, "-json", jsonOut)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// runUntraced sets the workload up sz.minSetups times, keeping the
// last, repeats its timed pass until the passes add up to seconds, and
// folds what they measured into the end-to-end metrics.
func runUntraced(w *workloadDef, sz *sizes, seed uint64, seconds float64) *runResult {
	out := &runResult{workload: w.name, seed: seed, values: map[string]float64{}}
	heap := startHeapSampler()
	m, err := measure(w, sz, seed, seconds, &out.check)
	heapMiB := heap.stop()
	if err != nil {
		out.attempted++
		out.fail(1, "%v", err)
		return out
	}
	hr := rateOf(m.passes)
	// Throughput counts the CPU time the machine was given: on a shared
	// host the stolen share swings between 0 and 18% from one pass to
	// the next and is the largest single source of run-to-run spread.
	stolen := m.stolenShare()
	out.simDigest = m.sim.digest
	out.set("setup_s", median(m.setups))
	out.set("host_ops_per_s", hr.opsPerS/(1-stolen))
	out.set("host_mem_mb", heapMiB)
	out.set("sim_cycles_per_op", m.sim.cyclesPerOp)
	out.set("sim_walk_mean_cycles", m.sim.walkMean)
	out.set("sim_walk_p99_cycles", m.sim.walkP99)
	out.set("host.allocs_per_op", hr.allocsOp)
	for k, v := range m.sim.layer {
		out.set(k, v)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.note("passes=%d set-up samples=%d chunk samples=%d", len(m.passes), len(m.setups), hr.samples)
	out.note("host_ns_per_op of the chunks, wall clock: min=%.2f p50=%.2f p95=%.2f", hr.nsPerOpMin, hr.nsPerOp50, hr.nsPerOp95)
	out.note("wall-clock ops/s %.6g, of which the host stole %.2f%% of the CPU time", hr.opsPerS, 100*stolen)
	out.note("host_allocs_per_op=%.4g runtime.MemStats.Sys=%.1f MiB", hr.allocsOp, float64(ms.Sys)/(1<<20))
	out.extra = map[string]float64{
		"wall_ops_per_s": hr.opsPerS, "steal_share": stolen,
		"host_ns_per_op_min": hr.nsPerOpMin, "host_ns_per_op_p50": hr.nsPerOp50, "host_ns_per_op_p95": hr.nsPerOp95,
		"chunk_samples": float64(hr.samples), "setup_samples": float64(len(m.setups)),
		"host_allocs_per_op": hr.allocsOp, "sys_mib": float64(ms.Sys) / (1 << 20),
	}
	return out
}

// measured is what the set-ups and passes of one run produced.
type measured struct {
	setups []float64
	passes []*pass
	sim    simStats
	// busy and steal are the CPU time, in clock ticks, the machine spent
	// running and waiting for the host to run it while passes were timed.
	busy, steal float64
}

// stolenShare is the share of the CPU time the machine asked for while
// passes were timed that the host did not give it.
func (m *measured) stolenShare() float64 {
	if m.busy+m.steal == 0 {
		return 0
	}
	return m.steal / (m.busy + m.steal)
}

func measure(w *workloadDef, sz *sizes, seed uint64, seconds float64, c *check) (*measured, error) {
	m := &measured{}
	var st state
	for i := 0; i < sz.minSetups; i++ {
		// Drop the previous set-up's machine before timing the next.
		st = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = w.setup(sz, seed); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		if !w.setupInPass {
			m.setups = append(m.setups, time.Since(t0).Seconds())
		}
	}
	var timed time.Duration
	for timed.Seconds() < seconds || len(m.passes) < st.minPasses() {
		b0, s0 := cpuTicks()
		p, err := st.pass()
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(m.passes), err)
		}
		b1, s1 := cpuTicks()
		m.busy += b1 - b0
		m.steal += s1 - s0
		m.passes = append(m.passes, p)
		timed += p.wall
		if w.setupInPass {
			m.setups = append(m.setups, p.setupS)
		}
	}
	m.sim = st.finish(c)
	return m, nil
}

// hostRate summarises the host-clock side of a run's passes.
type hostRate struct {
	opsPerS    float64
	nsPerOp50  float64
	nsPerOp95  float64
	nsPerOpMin float64
	samples    int
	allocsOp   float64
}

func rateOf(passes []*pass) hostRate {
	var ops, allocs uint64
	var wall time.Duration
	var chunks []float64
	for _, p := range passes {
		ops += p.ops
		wall += p.wall
		allocs += p.mallocs
		if len(p.chunkNs) > 0 {
			chunks = append(chunks, p.chunkNs...)
		} else {
			chunks = append(chunks, float64(p.wall.Nanoseconds())/float64(p.ops))
		}
	}
	return hostRate{
		opsPerS:    float64(ops) / wall.Seconds(),
		nsPerOp50:  median(chunks),
		nsPerOp95:  percentile(chunks, 0.95),
		nsPerOpMin: percentile(chunks, 0),
		samples:    len(chunks),
		allocsOp:   float64(allocs) / float64(ops),
	}
}

// record is one line of a -json file and the input of -compare.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	SimDigest string                 `json:"sim_digest"`
	Metrics   map[string]metricValue `json:"metrics"`
	Extra     map[string]float64     `json:"extra,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every declared metric by name with its unit, the checks'
// findings, and last the result object the driver reads.
func (r *runResult) emit(w io.Writer, jsonOut string) error {
	// An end-to-end metric nobody measured, or any value that is not a
	// number, is a failure of the run, not a hole in its output.
	for _, m := range r.declared() {
		v, ok := r.values[m.Name]
		switch {
		case !ok && !r.traced:
			r.fail(1, "end-to-end metric %s was not measured", m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.fail(1, "metric %s is %v", m.Name, v)
			r.values[m.Name] = 0
		}
	}
	rec := record{
		Workload: r.workload, Seed: r.seed, Correct: r.failed == 0,
		Attempted: max(r.attempted, 1), Failed: r.failed, SimDigest: r.simDigest,
		Metrics: map[string]metricValue{}, Extra: r.extra,
	}
	if r.traced {
		rec.Trace = 1
	}
	fmt.Fprintf(w, "workload %s seed %d trace %d\n", r.workload, r.seed, rec.Trace)
	for _, m := range r.declared() {
		v := r.values[m.Name]
		rec.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", m.Name, v, m.Unit)
	}
	if !r.traced {
		// Shown for the reader, not part of the end-to-end result.
		extra := make([]string, 0, len(r.values))
		for k := range r.values {
			if _, declared := rec.Metrics[k]; !declared {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		for _, k := range extra {
			fmt.Fprintf(w, "  (%s %.6g)\n", k, r.values[k])
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	fmt.Fprintf(w, "  sim_digest %s\n", r.simDigest)
	fmt.Fprintf(w, "  ops_attempted %d ops_failed %d fail_share %.6g\n", rec.Attempted, rec.Failed, float64(rec.Failed)/float64(rec.Attempted))
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	if jsonOut != "" {
		if err := appendRecord(jsonOut, rec); err != nil {
			return err
		}
	}
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuTicks reads the machine-wide busy and stolen CPU time from
// /proc/stat, in clock ticks; zeros where there is no such file.
func cpuTicks() (busy, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	v := func(i int) float64 { x, _ := strconv.ParseFloat(f[i], 64); return x }
	return v(1) + v(2) + v(3) + v(6) + v(7), v(8)
}
