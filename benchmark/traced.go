package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"nestedecpt/internal/report"
	"nestedecpt/internal/serve"
	"nestedecpt/internal/sim"
	"nestedecpt/internal/trace"
	"nestedecpt/internal/traceaudit"
)

// spansDir receives <workload>.spans.json. It is relative to the
// repository root, where run.sh starts the benchmark.
const spansDir = "benchmark/out"

// runTraced is the second pass: the layer probe, then the workload's
// own traced pass beside an untraced reference of the same size and
// seed. End-to-end metrics never come from here.
func runTraced(w *workloadDef, sz *sizes, seed uint64, spansDir string) *runResult {
	out := &runResult{workload: w.name, seed: seed, traced: true, values: map[string]float64{}}
	tr := newTracer()
	if err := probeLayers(sz, seed, out, tr); err != nil {
		out.attempted++
		out.fail(1, "%v", err)
	}
	runtime.GC()
	if err := w.traced(sz, seed, out, tr); err != nil {
		out.attempted++
		out.fail(1, "traced pass: %v", err)
	}
	if err := tr.write(filepath.Join(spansDir, w.name+".spans.json")); err != nil {
		out.attempted++
		out.fail(1, "spans: %v", err)
	}
	out.note("spans=%d timer read=%.1f ns empty span=%.1f ns", len(tr.spans), tr.readNs, tr.emptyNs)
	return out
}

// reference folds the untraced side of a traced pass into the result:
// what the simulated metrics expose per layer (hit rates, MPKI,
// fairness) and the allocations per op of the untraced pass p.
func reference(p *pass, sim simStats, out *runResult) {
	out.simDigest = sim.digest
	for k, v := range sim.layer {
		out.set(k, v)
	}
	out.set("host.allocs_per_op", float64(p.mallocs)/float64(p.ops))
}

// ---------------------------------------------------------------- sim

// tracedSim runs sim.Run as the reference, then the shadow pipeline on
// the same effective configuration with alternate chunks timed layer by
// layer, and holds the shadow's TLB and walk counts to sim.Run's. Both
// run the untraced passes' total in one piece: a pass of warm-up, then
// as many passes of measurement as the simulated metrics cover.
func tracedSim(sz *sizes, cfg sim.Config, statPasses int, out *runResult, tr *tracer) error {
	cfg.WarmupAccesses = cfg.MeasureAccesses
	cfg.MeasureAccesses *= uint64(statPasses)
	ref, err := newSimState(sz, cfg, 1)
	if err != nil {
		return err
	}
	p, err := ref.pass()
	if err != nil {
		return err
	}
	reference(p, ref.finish(&out.check), out)
	m, res := ref.m, ref.res
	stepNs := float64(p.wall.Nanoseconds()) / float64(p.ops)
	out.set("sim.step_ns", stepNs)

	s, err := newShadow(m.EffectiveConfig())
	if err != nil {
		return err
	}
	root := tr.begin(0, "sim", "shadow_pipeline")
	defer tr.end(root)
	setup := tr.begin(root, "sim", "prepopulate")
	if err := s.prepopulate(); err != nil {
		return err
	}
	tr.end(setup)
	for i := uint64(0); i < cfg.WarmupAccesses; i++ {
		if err := s.step(false); err != nil {
			return fmt.Errorf("shadow warm-up access %d: %w", i, err)
		}
	}
	s.tlb.ResetStats()
	s.walks = 0

	var tracedNs, plainNs float64
	var tracedSteps, plainSteps uint64
	for done, c := uint64(0), 0; done < cfg.MeasureAccesses; c++ {
		n := sz.shadowChunk
		if rem := cfg.MeasureAccesses - done; rem < n {
			n = rem
		}
		timed := c%2 == 0
		before, beforeCalls := s.busy, s.calls
		start := tr.now()
		t0 := time.Now()
		for i := uint64(0); i < n; i++ {
			if err := s.step(timed); err != nil {
				return fmt.Errorf("shadow measured access %d: %w", done+i, err)
			}
		}
		ns := float64(time.Since(t0).Nanoseconds())
		done += n
		if !timed {
			plainNs += ns
			plainSteps += n
			continue
		}
		tracedNs += ns
		tracedSteps += n
		cs := tr.add(root, "sim", "step_chunk", start, ns, n)
		for seg := 0; seg < numSegments; seg++ {
			busy := float64((s.busy[seg] - before[seg]).Nanoseconds())
			tr.add(cs, segmentNames[seg].layer, segmentNames[seg].name, start, busy, s.calls[seg]-beforeCalls[seg])
		}
	}

	out.attempted += 3
	if got, want := s.tlb.L1Stats(), res.L1TLB; got != want {
		out.fail(1, "shadow pipeline L1 TLB %v, sim.Run %v", got, want)
	}
	if got, want := s.tlb.L2Stats(), res.L2TLB; got != want {
		out.fail(1, "shadow pipeline L2 TLB %v, sim.Run %v", got, want)
	}
	if s.walks != res.Walks {
		out.fail(1, "shadow pipeline walked %d times, sim.Run %d", s.walks, res.Walks)
	}

	// What a clock read costs in place: the timed chunks' extra time per
	// step over the untimed ones, shared among the reads a step makes.
	var reads uint64 = tracedSteps // the mark each step starts from
	for seg := 0; seg < numSegments; seg++ {
		reads += s.calls[seg]
	}
	readNs := 0.0
	if plainSteps > 0 && tracedSteps > 0 {
		extra := tracedNs - plainNs*float64(tracedSteps)/float64(plainSteps)
		if extra > 0 {
			readNs = extra / float64(reads)
		}
	}
	out.note("clock read inside the pipeline: %.1f ns (%.1f ns in a loop of its own)", readNs, tr.readNs)

	// Layer time per step, less the one clock read each segment holds,
	// as a share of what sim.Run itself spends on a step; the remainder
	// is sim's own: cycle accounting, the fault check and the
	// co-runners' injected traffic.
	var layers float64
	for seg := 0; seg < numSegments; seg++ {
		perStep := (float64(s.busy[seg].Nanoseconds()) - float64(s.calls[seg])*readNs) / float64(tracedSteps)
		if name := segmentNames[seg].metric; name != "" {
			out.set(name, out.values[name]+perStep/stepNs)
			layers += perStep
		}
	}
	out.set("sim.self_share", 1-layers/stepNs)
	if plainSteps > 0 {
		out.set("trace.overhead_share", (tracedNs/float64(tracedSteps))/(plainNs/float64(plainSteps))-1)
	}
	return nil
}

// ----------------------------------------------------------- hot walk

// tracedHotWalk is walk_hot_thp's traced pass. The workload is the
// layer probe's own machine and loop, so the spans and the budget are
// already recorded; what remains is the untraced reference round and
// the price of the clock pairs.
func tracedHotWalk(sz *sizes, seed uint64, out *runResult, tr *tracer) error {
	st, err := newHotState(sz, seed)
	if err != nil {
		return err
	}
	p, err := st.pass()
	if err != nil {
		return err
	}
	reference(p, st.finish(&out.check), out)
	plain := median(p.chunkNs)
	// Expect well above zero: three to four clock pairs a walk cost more
	// than the walk.
	out.set("trace.overhead_share", out.values["core.walk_traced_ns"]/plain-1)
	return nil
}

// -------------------------------------------------------------- serve

// tracedServe measures the serve lane from outside: the workload
// untraced and with the serve trace on (replayed through the staleness
// audit), the read lane at one and two workers with churn off, and a
// hot walk loop on the serve configuration (what a translation costs
// without the service around it).
func tracedServe(sz *sizes, cfg serve.Config, out *runResult, tr *tracer) error {
	root := tr.begin(0, "serve", "traced_pass")
	defer tr.end(root)
	run := func(name string, c serve.Config) (*serve.Summary, time.Duration, error) {
		id := tr.begin(root, "serve", name)
		before := mallocs()
		t0 := time.Now()
		sum, err := serve.Run(context.Background(), c)
		total := time.Since(t0)
		allocs := mallocs() - before
		tr.end(id)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		start := tr.spans[id-1].StartNs
		tr.add(id, "serve", "build", start, float64((total - sum.Elapsed).Nanoseconds()), 1)
		tr.add(id, "serve", "workers", start+int64(total-sum.Elapsed), float64(sum.Elapsed.Nanoseconds()), sum.TotalOps)
		out.attempted += sum.TotalOps + sum.ChurnProbes
		if name == "reference" {
			out.set("host.allocs_per_op", float64(allocs)/float64(sum.TotalOps))
		}
		if sum.PendingReclaims != 0 {
			out.fail(uint64(sum.PendingReclaims), "%s: %d retired generations never reclaimed", name, sum.PendingReclaims)
		}
		return sum, total, nil
	}

	// Every rate below is the median of three runs, the sides of each
	// comparison taking turns: single runs of a third of a second differ
	// by more than the effects being measured.
	const turns = 3
	alternate := func(nameA string, a serve.Config, nameB string, b func() serve.Config) (sa, sb []*serve.Summary, build float64, err error) {
		var builds []float64
		for i := 0; i < turns; i++ {
			x, total, err := run(nameA, a)
			if err != nil {
				return nil, nil, 0, err
			}
			y, _, err := run(nameB, b())
			if err != nil {
				return nil, nil, 0, err
			}
			sa, sb = append(sa, x), append(sb, y)
			builds = append(builds, (total - x.Elapsed).Seconds())
		}
		return sa, sb, median(builds), nil
	}
	rate := func(sums []*serve.Summary) float64 {
		var r []float64
		for _, s := range sums {
			r = append(r, s.TranslationsPerSec)
		}
		return median(r)
	}

	// Each traced run records into its own collector: the audit replays
	// one run's generations at a time.
	var recs []*trace.Recorder
	var cols []*trace.Collector
	refs, tsums, build, err := alternate("reference", cfg, "traced", func() serve.Config {
		rec, col := trace.NewCollected()
		recs, cols = append(recs, rec), append(cols, col)
		traced := cfg
		traced.Trace, traced.ProbeEvery, traced.TraceSample = rec, 8, 64
		return traced
	})
	if err != nil {
		return err
	}
	first := serveStats(refs[0])
	for k, v := range first.layer {
		out.set(k, v)
	}
	out.simDigest = first.digest
	out.set("serve.build_s", build)

	findings, events := 0, 0
	for i, col := range cols {
		recs[i].Flush()
		events += len(col.Events())
		for _, f := range traceaudit.AuditServe(col.Events(), traceaudit.ServeSpec{}) {
			findings++
			out.fail(1, "serve audit: %v", f)
		}
	}
	out.set("serve.audit_findings", float64(findings))
	var probes, hits uint64
	for _, s := range tsums {
		probes += s.ChurnProbes
		hits += s.ChurnProbeHits
	}
	if probes > 0 {
		out.set("serve.probe_hit_rate", float64(hits)/float64(probes))
	}
	overhead := rate(refs)/rate(tsums) - 1
	out.set("trace.serve_overhead_share", overhead)
	out.set("trace.overhead_share", overhead)
	out.note("serve trace: %d events, %d probes over %d runs; untraced %.0f ops/s, traced %.0f ops/s", events, probes, turns, rate(refs), rate(tsums))

	// The read lane at one and two workers, churn off on both.
	w1, w2 := cfg, cfg
	w1.ChurnPagesPerRound, w1.Workers = 0, 1
	w2.ChurnPagesPerRound, w2.Workers = 0, 2
	s1, s2, _, err := alternate("steady_w1", w1, "steady_w2", func() serve.Config { return w2 })
	if err != nil {
		return err
	}
	out.set("serve.w1_ops_per_s", rate(s1))
	out.set("serve.w2_ops_per_s", rate(s2))
	out.set("serve.scaling_eff_w2", rate(s2)/(2*rate(s1)))

	scfg := sz.hotConfig(cfg.THP, cfg.Seed)
	scfg.WorkloadOpts.Scale = cfg.Scale
	pages := sz.hotPages
	if most := int((64 << 30) / cfg.Scale >> 12); pages > most {
		pages = most // GUPS's whole table at the serve scale
	}
	hm, err := newHotMachine(scfg, pages)
	if err != nil {
		return fmt.Errorf("serve-scale walk loop: %w", err)
	}
	out.set("serve.walk_overhead_ns", 1e9/rate(s1)-sz.walkLoop(hm, &out.check))
	return nil
}

// -------------------------------------------------------------- sweep

// progressSpans turns the runner's progress lines into spans, one per
// finished run, and times itself: the sweep's tracing hook is this
// writer and nothing else, so its overhead is the time spent in Write.
type progressSpans struct {
	tr     *tracer
	parent int
	spent  time.Duration
	runs   int
}

func (p *progressSpans) Write(line []byte) (int, error) {
	t0 := time.Now()
	// "# sweep 3/24 done <name> <dur>s elapsed <e>s eta <eta>s"
	f := strings.Fields(string(line))
	if len(f) >= 10 && f[1] == "sweep" {
		if i := slices.Index(f, "elapsed"); i >= 6 {
			var dur float64
			fmt.Sscanf(strings.TrimSuffix(f[i-1], "s"), "%g", &dur)
			end := p.tr.now()
			p.tr.add(p.parent, "runner", strings.Join(f[4:i-1], " "), end-int64(dur*1e9), dur*1e9, 1)
			p.runs++
		}
	}
	p.spent += time.Since(t0)
	return len(line), nil
}

// tracedSweep runs the sweep at full width with the progress hook, then
// sequentially: the two must render the same bytes, and their wall
// clocks are the runner's parallel speed-up.
func tracedSweep(sz *sizes, seed uint64, out *runResult, tr *tracer) error {
	root := tr.begin(0, "report", "traced_pass")
	defer tr.end(root)

	// The two reference cells, built and (below) run directly, are also
	// the sample of how a sweep cell's time splits into set-up and run.
	t0 := time.Now()
	refs, err := newSweepState(sz, seed)
	if err != nil {
		return err
	}
	setupS := time.Since(t0).Seconds()

	hook := &progressSpans{tr: tr}
	set := sz.sweepSettings(seed, runtime.GOMAXPROCS(0))
	set.Progress = hook
	var wide bytes.Buffer
	hook.parent = tr.begin(root, "report", "Figure9 parallel")
	before := mallocs()
	t0 = time.Now()
	err = report.NewSuite(set).Figure9(&wide)
	wideWall := time.Since(t0)
	allocs := mallocs() - before
	tr.end(hook.parent)
	if err != nil {
		return err
	}
	out.attempted++
	if hook.runs != sweepRuns {
		out.fail(1, "sweep reported %d finished runs, Figure 9 for %v has %d", hook.runs, sweepApps, sweepRuns)
	}
	refs.fig = wide.Bytes()
	t0 = time.Now()
	sim := refs.finish(&out.check)
	out.set("report.setup_share", setupS/(setupS+time.Since(t0).Seconds()))
	ops := sweepRuns * (sz.sweepWarmup + sz.sweepMeasure)
	reference(&pass{ops: ops, mallocs: allocs}, sim, out)
	out.set("trace.overhead_share", hook.spent.Seconds()/wideWall.Seconds())
	runtime.GC()

	var narrow bytes.Buffer
	id := tr.begin(root, "report", "Figure9 sequential")
	t0 = time.Now()
	err = report.NewSuite(sz.sweepSettings(seed, 1)).Figure9(&narrow)
	narrowWall := time.Since(t0)
	tr.end(id)
	if err != nil {
		return err
	}
	out.attempted++
	if !bytes.Equal(wide.Bytes(), narrow.Bytes()) {
		out.fail(1, "Figure 9 renders differently at parallelism %d and 1", runtime.GOMAXPROCS(0))
	}
	out.set("runner.parallel_speedup", narrowWall.Seconds()/wideWall.Seconds())
	out.note("sweep wall: parallel %.2fs (%.0f accesses/s), sequential %.2fs", wideWall.Seconds(), float64(ops)/wideWall.Seconds(), narrowWall.Seconds())
	return nil
}
