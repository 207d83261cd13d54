package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/core"
	"nestedecpt/internal/report"
	"nestedecpt/internal/serve"
	"nestedecpt/internal/sim"
	"nestedecpt/internal/stats"
	"nestedecpt/internal/vhash"
	"nestedecpt/internal/workload"
)

// sizes fixes how much work a set-up and a timed pass do. A run sets up
// minSetups times (keeping the last), then repeats the timed pass until
// the passes add up to -seconds: the box this runs on is disturbed for
// a second or two at a time, so a run wants many short passes it can
// take a robust statistic over, not one long one.
type sizes struct {
	// Simulations run at scale 16 and serves at scale 1024, the
	// repository's own defaults.
	simScale   uint64
	serveScale uint64

	// One sim.Run pass is measure/4 warm-up accesses and measure
	// measured ones; the simulated metrics cover the first statPasses
	// passes. sim_gups_4k's passes are the long ones: every sim.Run
	// re-checks that its VMAs are populated, which on a million 4KB
	// pages of Nested ECPTs costs 0.45s whatever the pass length.
	gupsMeasure    uint64
	gupsStatPasses int
	bcMeasure      uint64
	radixMeasure   uint64
	simStatPasses  int

	hotPages      int
	hotChunkWalks int
	hotChunks     int

	serveOpsPerWorker uint64

	sweepWarmup  uint64
	sweepMeasure uint64

	oracleSamples int
	minSetups     int

	// The layer probe and the shadow pipeline (layers.go, traced.go).
	batchCalls  int
	batchReps   int
	probeChunks int
	insertKeys  uint64
	shadowChunk uint64
}

var fullSize = sizes{
	simScale: 16, serveScale: 1024,
	gupsMeasure: 200_000, gupsStatPasses: 2, bcMeasure: 250_000, radixMeasure: 160_000, simStatPasses: 4,
	hotPages: 16_384, hotChunkWalks: 65_536, hotChunks: 16,
	serveOpsPerWorker: 250_000,
	sweepWarmup:       30_000, sweepMeasure: 80_000,
	oracleSamples: 4096, minSetups: 3,
	batchCalls: 16_384, batchReps: 7, probeChunks: 8, insertKeys: 65_536, shadowChunk: 25_000,
}

// testSize is a hundredth of fullSize on machines small enough to
// build in milliseconds; the tests run every workload at it.
var testSize = sizes{
	simScale: 1024, serveScale: 1024,
	gupsMeasure: 2_000, gupsStatPasses: 2, bcMeasure: 2_500, radixMeasure: 1_600, simStatPasses: 2,
	hotPages: 1_024, hotChunkWalks: 656, hotChunks: 2,
	serveOpsPerWorker: 2_500,
	sweepWarmup:       300, sweepMeasure: 800,
	oracleSamples: 64, minSetups: 1,
	batchCalls: 256, batchReps: 3, probeChunks: 2, insertKeys: 1_024, shadowChunk: 500,
}

const (
	serveVMs = 32
	// sweepRuns is Figure 9's run set for two applications: twelve
	// design columns each. The traced pass counts the runner's progress
	// lines against it.
	sweepRuns = 24
)

var sweepApps = []string{"GUPS", "BC"}

// pass is one run of a workload's timed phase.
type pass struct {
	ops  uint64
	wall time.Duration
	// chunkNs is the ns/op of each timed chunk inside the pass; empty
	// means the pass is its own single chunk.
	chunkNs []float64
	mallocs uint64
	// setupS is the set-up a pass could not keep out of itself
	// (serve.Run builds its engine on every call); zero otherwise.
	setupS float64
}

// check counts operations against failures and keeps the reasons.
type check struct {
	attempted uint64
	failed    uint64
	problems  []string
}

func (c *check) fail(n uint64, format string, args ...any) {
	c.failed += n
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func (c *check) merge(o check) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, p := range o.problems {
		if len(c.problems) < 8 {
			c.problems = append(c.problems, p)
		}
	}
}

// simStats is the simulated-clock side of a run.
type simStats struct {
	cyclesPerOp float64
	walkMean    float64
	walkP99     float64
	digest      string
	// layer holds per-layer values the run's own results expose (hit
	// rates, MPKI, fairness, ...), keyed by metric name.
	layer map[string]float64
}

// state is a workload after set-up.
type state interface {
	// pass runs the timed phase once.
	pass() (*pass, error)
	// minPasses is how many passes the simulated metrics need.
	minPasses() int
	// finish runs after the last pass: it checks the outputs against
	// the oracle and returns the simulated metrics.
	finish(c *check) simStats
}

// A workload is one named set of inputs.
type workloadDef struct {
	name string
	why  string
	// exact marks workloads whose simulated counters are a function of
	// the seed alone; -compare holds their simulated metrics to
	// equality on a shared seed.
	exact bool
	// setup is the workload's set-up phase; the runner times it.
	setup func(sz *sizes, seed uint64) (state, error)
	// setupInPass marks workloads whose set-up cannot be separated from
	// the pass; their set-up samples come from pass.setupS.
	setupInPass bool
	// traced is the workload's own traced pass (traced.go): it fills
	// per-layer values into out and spans into tr.
	traced func(sz *sizes, seed uint64, out *runResult, tr *tracer) error
}

var workloads = []workloadDef{
	simWorkload("sim_gups_4k",
		"half of all accesses walk with 3 probes a step: core, ecpt, vhash and cachesim/DRAM do the work, and set-up maps a million 4KB pages on both sides (the cuckoo insert/resize load)",
		func(sz *sizes, seed uint64) (sim.Config, int) {
			return sz.simConfig(sim.DesignNestedECPT, "GUPS", false, sz.gupsMeasure, seed), sz.gupsStatPasses
		}),
	simWorkload("sim_bc_thp",
		"L1 TLB hits 83% and only 14% of accesses walk: workload, tlbsim and the data side of cachesim dominate, the control on which an ecpt/vhash gain must show nothing",
		func(sz *sizes, seed uint64) (sim.Config, int) {
			return sz.simConfig(sim.DesignNestedECPT, "BC", true, sz.bcMeasure, seed), sz.simStatPasses
		}),
	simWorkload("sim_radix_gups_4k",
		"Nested Radix on the GUPS stream bypasses vhash, ecpt and the CWCs: the control for every ECPT-side change and the denominator of the paper's speed-up",
		func(sz *sizes, seed uint64) (sim.Config, int) {
			return sz.simConfig(sim.DesignNestedRadix, "GUPS", false, sz.radixMeasure, seed), sz.simStatPasses
		}),
	{
		name:   "walk_hot_thp",
		why:    "closed loop of Walker.Walk over 16384 resolved VAs with an advancing clock and no TLB, generator or data access: host-cache resident, shows instruction-path gains the simulations hide",
		exact:  true,
		setup:  func(sz *sizes, seed uint64) (state, error) { return newHotState(sz, seed) },
		traced: tracedHotWalk,
	},
	serveWorkload("serve_steady",
		"32 VMs, 2 workers, no churn: the read-only lock-free lane (epoch bracket, sealed views, workers x VMs walkers) and the only place 1 to 2 core scaling can show",
		true, 2, 0),
	serveWorkload("serve_churn",
		"32 VMs, 1 worker beside 1 churn shard mapping and unmapping 16 pages a round: COW generations, Publish and grace-period reclamation beside reads, each side on its own core",
		false, 1, 16),
	{
		name:   "sweep_fig9",
		why:    "Figure 9 for GUPS and BC through report and runner: 24 short set-up-dominated runs over all 12 design columns, what a cmd/experiments user pays",
		exact:  true,
		setup:  func(sz *sizes, seed uint64) (state, error) { return newSweepState(sz, seed) },
		traced: tracedSweep,
	},
}

// simWorkload is a simulation workload: config gives the run's
// configuration and how many passes its simulated metrics cover.
func simWorkload(name, why string, config func(sz *sizes, seed uint64) (sim.Config, int)) workloadDef {
	return workloadDef{
		name: name, why: why, exact: true,
		setup: func(sz *sizes, seed uint64) (state, error) {
			cfg, statPasses := config(sz, seed)
			return newSimState(sz, cfg, statPasses)
		},
		traced: func(sz *sizes, seed uint64, out *runResult, tr *tracer) error {
			cfg, statPasses := config(sz, seed)
			return tracedSim(sz, cfg, statPasses, out, tr)
		},
	}
}

// serveWorkload is a serve workload; its set-up happens inside each
// pass. exact says its simulated counters depend on the seed alone,
// which holds while no churn writer races the workers.
func serveWorkload(name, why string, exact bool, workers, churnPages int) workloadDef {
	return workloadDef{
		name: name, why: why, exact: exact, setupInPass: true,
		setup: func(sz *sizes, seed uint64) (state, error) {
			return &serveState{cfg: sz.serveConfig(seed, workers, churnPages), exact: exact}, nil
		},
		traced: func(sz *sizes, seed uint64, out *runResult, tr *tracer) error {
			return tracedServe(sz, sz.serveConfig(seed, workers, churnPages), out, tr)
		},
	}
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---------------------------------------------------------------- sim

// simConfig is one simulation: measure measured accesses after a
// quarter as many of warm-up.
func (sz *sizes) simConfig(design sim.Design, app string, thp bool, measure, seed uint64) sim.Config {
	cfg := sim.DefaultConfig(design, app, thp)
	cfg.WarmupAccesses = measure / 4
	cfg.MeasureAccesses = measure
	cfg.WorkloadOpts = workload.Options{Scale: sz.simScale, Seed: seed}
	return cfg
}

// buildMachine is the set-up of every simulation: construct and
// pre-populate. It returns the two phases' durations.
func buildMachine(cfg sim.Config) (m *sim.Machine, newS, prepS float64, err error) {
	t0 := time.Now()
	m, err = sim.NewMachine(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	if err := m.Prepopulate(); err != nil {
		return nil, 0, 0, err
	}
	return m, t1.Sub(t0).Seconds(), time.Since(t1).Seconds(), nil
}

// simState is a built, pre-populated machine. Each pass is one
// Machine.Run — warm-up, then measurement — continuing the same access
// stream, so passes are like work on a machine that stays warm.
type simState struct {
	sz  *sizes
	cfg sim.Config
	m   *sim.Machine
	// The simulated metrics cover the first statPasses passes,
	// however many the run length allows after them: Machine.Run keeps
	// adding to its walk and access counters but restarts its cycle,
	// TLB and cache counters, hence the sums kept here.
	statPasses   int
	passes       int
	cycles       uint64
	instructions uint64
	frozen       simStats
	// res is the machine's result after the latest pass; ops counts the
	// accesses of all passes.
	res *sim.Result
	ops uint64
}

func newSimState(sz *sizes, cfg sim.Config, statPasses int) (*simState, error) {
	m, _, _, err := buildMachine(cfg)
	if err != nil {
		return nil, err
	}
	return &simState{sz: sz, cfg: cfg, m: m, statPasses: statPasses}, nil
}

func (s *simState) minPasses() int { return s.statPasses }

func (s *simState) pass() (*pass, error) {
	before := mallocs()
	t0 := time.Now()
	res, err := s.m.Run()
	p := &pass{wall: time.Since(t0), ops: s.cfg.WarmupAccesses + s.cfg.MeasureAccesses}
	p.mallocs = mallocs() - before
	if err != nil {
		return nil, err
	}
	s.res = res
	s.ops += p.ops
	if s.passes < s.statPasses {
		s.cycles += res.Cycles
		passInstr := res.Instructions - s.instructions
		s.instructions = res.Instructions
		if s.passes == s.statPasses-1 {
			s.frozen = simResultStats(res, s.cycles, passInstr)
			if w, ok := s.m.Walker().(*core.NestedECPT); ok {
				necptCounts(w, s.frozen.layer)
			}
		}
	}
	s.passes++
	return p, nil
}

func (s *simState) finish(c *check) simStats {
	c.attempted += s.ops
	c.merge(oracleSample(s.m, s.cfg, s.sz.oracleSamples))
	return s.frozen
}

// simResultStats folds a machine's result into the simulated metrics
// and the digest over every counter the evaluation reports. cycles is
// the sum over the passes res accumulates; passInstr the instructions
// of the last pass alone, the base of its cache counters.
func simResultStats(res *sim.Result, cycles, passInstr uint64) simStats {
	h := sha256.New()
	fmt.Fprintln(h, cycles, res.Instructions, res.MemAccesses, res.L1TLB, res.L2TLB,
		res.Walks, res.WalkCycles, res.MMUBusyCycles, res.MMUAccesses, res.GuestFaults, res.HostFaults,
		res.L1Stats.Accesses, res.L1Stats.Misses, res.L2Stats.Accesses, res.L2Stats.Misses,
		res.L3Stats.Accesses, res.L3Stats.Misses, res.DRAM,
		res.GuestPTBytes, res.HostPTBytes, res.PTEntries, res.FootprintBytes,
		res.WalkLatency.Count(), res.WalkLatency.Max(), res.WalkLatency.Percentile(0.5))
	if st := res.NestedECPT; st != nil {
		fmt.Fprintln(h, st.Walks, st.Par1, st.Par2, st.Par3, st.STC, st.AdaptDisabled)
	}
	kinstr := float64(passInstr) / 1000
	misses := func(l [2]uint64) float64 { return float64(l[0] + l[1]) }
	return simStats{
		cyclesPerOp: float64(cycles) / float64(res.MemAccesses),
		walkMean:    res.WalkLatency.Mean(),
		walkP99:     float64(res.WalkLatency.Percentile(0.99)),
		digest:      fmt.Sprintf("%x", h.Sum(nil)),
		layer: map[string]float64{
			"tlbsim.l1_hit_rate":     res.L1TLB.HitRate(),
			"tlbsim.l2_hit_rate":     res.L2TLB.HitRate(),
			"cachesim.l2_mpki":       misses(res.L2Stats.Misses) / kinstr,
			"cachesim.l3_mpki":       misses(res.L3Stats.Misses) / kinstr,
			"cachesim.dram_accesses": float64(res.DRAM.Accesses),
		},
	}
}

// ----------------------------------------------------------- hot walk

// hotMachine is a warmed machine with a resolved VA set: what the
// closed walk loop and the layer probe run on.
type hotMachine struct {
	m    *sim.Machine
	cfg  sim.Config
	vas  []addr.GVA
	want []addr.HPA // oracle frame of each VA at the walker's page size
}

func (sz *sizes) hotConfig(thp bool, seed uint64) sim.Config {
	cfg := sz.simConfig(sim.DesignNestedECPT, "GUPS", thp, sz.gupsMeasure/40, seed)
	// No physical fragmentation: with the default 8% of 2MB allocations
	// failing, how many of the loop's 32 regions fall back to 4KB pages
	// (whose walks cost 2.7x) is the seed's luck, and would swamp the
	// host-time signal this loop exists for.
	cfg.HugePageFailureRate = -1
	return cfg
}

// newHotMachine builds and warms a machine, then resolves its VAs.
func newHotMachine(cfg sim.Config, n int) (*hotMachine, error) {
	m, err := sim.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	return resolveHot(m, cfg, n)
}

// resolveHot warms m with its configured short run and resolves the
// first n pages of the workload's VMAs, in an order the seed shuffles:
// each is walked once with faults on guest page-table pages serviced
// as sim does, so the timed loops never see the fault path, and its
// oracle frame is recorded.
func resolveHot(m *sim.Machine, cfg sim.Config, n int) (*hotMachine, error) {
	if _, err := m.Run(); err != nil {
		return nil, err
	}
	hm := &hotMachine{m: m, cfg: m.EffectiveConfig()}
	var err error
	hm.vas, err = firstPages(cfg, n)
	if err != nil {
		return nil, err
	}
	hm.want = make([]addr.HPA, len(hm.vas))
	now := uint64(1) << 32
	for i, va := range hm.vas {
		res, err := walkServiced(m.Walker(), m, now, va)
		if err != nil {
			return nil, fmt.Errorf("resolve %#x: %w", va, err)
		}
		now += res.Latency + 1
		hpa, ok := oracle(m, va)
		if !ok {
			return nil, fmt.Errorf("oracle cannot translate %#x", va)
		}
		hm.want[i] = addr.PageBase(hpa, res.Size)
	}
	return hm, nil
}

// firstPages returns the first n 4KB-page addresses of the workload's
// VMAs (64MB for the hot loop: simulated-cache and host-cache
// resident, like the repository's own walk benchmarks), in an order the
// seed shuffles.
func firstPages(cfg sim.Config, n int) ([]addr.GVA, error) {
	gen, err := workload.New(cfg.Workload, cfg.WorkloadOpts)
	if err != nil {
		return nil, err
	}
	vas := make([]addr.GVA, 0, n)
	for _, v := range gen.VMAs() {
		for off := uint64(0); off < v.Size && len(vas) < n; off += addr.Page4K.Bytes() {
			vas = append(vas, addr.Add(v.Base, off))
		}
	}
	if len(vas) < n {
		return nil, fmt.Errorf("workload %s maps only %d pages, need %d", cfg.Workload, len(vas), n)
	}
	rng := vhash.NewRNG(cfg.WorkloadOpts.Seed ^ 0x5eed)
	for i := len(vas) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		vas[i], vas[j] = vas[j], vas[i]
	}
	return vas, nil
}

// walkServiced walks va on w, repairing missing mappings in m's page
// tables the way sim's fault path does and retrying.
func walkServiced(w core.Walker, m *sim.Machine, now uint64, va addr.GVA) (core.WalkResult, error) {
	for attempt := 0; ; attempt++ {
		res, err := w.Walk(now, va)
		if err == nil {
			return res, nil
		}
		var nm *core.ErrNotMapped
		if !errors.As(err, &nm) || attempt > 64 {
			return res, err
		}
		if nm.Space == "host" {
			if m.Hypervisor() == nil {
				return res, nm
			}
			_, err = m.Hypervisor().EnsureMapped(nm.GPA, nm.PageTable)
		} else {
			_, _, err = m.Kernel().Touch(nm.GVA)
		}
		if err != nil {
			return res, err
		}
	}
}

// hotState is walk_hot_thp after set-up. A pass is sz.hotChunks chunks
// of sz.hotChunkWalks walks, each chunk one clock pair; the clock the
// walker sees advances by Latency+1 a walk, as serve's worker advances
// it (at a fixed stamp the DRAM model's busy-until queue never drains
// and the loop times a state no run reaches).
type hotState struct {
	sz  *sizes
	hm  *hotMachine
	now uint64
	i   int
	// First-pass totals, for the simulated metrics.
	passes int
	cycles uint64
	walks  uint64
	check  check
}

const hotClock0 = uint64(1) << 36

func newHotState(sz *sizes, seed uint64) (*hotState, error) {
	hm, err := newHotMachine(sz.hotConfig(true, seed), sz.hotPages)
	if err != nil {
		return nil, err
	}
	if r, ok := hm.m.Walker().(interface{ ResetStats() }); ok {
		r.ResetStats()
	}
	return &hotState{sz: sz, hm: hm, now: hotClock0}, nil
}

func (s *hotState) minPasses() int { return 1 }

func (s *hotState) pass() (*pass, error) {
	sz, hm, w := s.sz, s.hm, s.hm.m.Walker()
	p := &pass{chunkNs: make([]float64, 0, sz.hotChunks), ops: uint64(sz.hotChunks * sz.hotChunkWalks)}
	now, i := s.now, s.i
	before := mallocs()
	start := time.Now()
	for c := 0; c < sz.hotChunks; c++ {
		var bad uint64
		cs := time.Now()
		for k := 0; k < sz.hotChunkWalks; k++ {
			res, err := w.Walk(now, hm.vas[i])
			if err != nil || res.Frame != hm.want[i] {
				bad++
			}
			now += res.Latency + 1
			if i++; i == len(hm.vas) {
				i = 0
			}
		}
		p.chunkNs = append(p.chunkNs, float64(time.Since(cs).Nanoseconds())/float64(sz.hotChunkWalks))
		if bad > 0 {
			s.check.fail(bad, "%d of %d walks in a chunk failed or disagreed with the oracle", bad, sz.hotChunkWalks)
		}
	}
	p.wall = time.Since(start)
	p.mallocs = mallocs() - before
	s.check.attempted += p.ops
	// The walk path must not allocate. With an advancing clock the
	// adaptive controller still appends one hit-rate sample per 5M-cycle
	// interval to its two Figure 12 series, whose growth is the handful
	// of allocations (about 3 per million walks) this tolerates.
	if p.mallocs > 8+p.ops/10_000 {
		s.check.fail(p.mallocs, "%d heap allocations in %d timed walks: the walk path allocates", p.mallocs, p.ops)
	}
	if s.passes == 0 {
		s.cycles, s.walks = now-s.now, p.ops
	}
	s.passes++
	s.now, s.i = now, i
	return p, nil
}

func (s *hotState) finish(c *check) simStats {
	c.merge(s.check)
	// The latency distribution comes from one more, untimed lap over
	// the VA set, so Histogram.Observe stays out of the timed loop.
	w := s.hm.m.Walker()
	dist := stats.NewHistogram(20)
	now := s.now
	for _, va := range s.hm.vas {
		res, err := w.Walk(now, va)
		c.attempted++
		if err != nil {
			c.fail(1, "distribution lap: %v", err)
			continue
		}
		dist.Observe(res.Latency)
		now += res.Latency + 1
	}
	h := sha256.New()
	fmt.Fprintln(h, s.cycles, s.walks, dist.Count(), dist.Mean(), dist.Max())
	out := simStats{
		cyclesPerOp: float64(s.cycles) / float64(s.walks),
		walkMean:    float64(s.cycles)/float64(s.walks) - 1,
		walkP99:     float64(dist.Percentile(0.99)),
		digest:      fmt.Sprintf("%x", h.Sum(nil)),
		layer:       map[string]float64{},
	}
	necptCounts(w.(*core.NestedECPT), out.layer)
	return out
}

// -------------------------------------------------------------- serve

func (sz *sizes) serveConfig(seed uint64, workers, churnPages int) serve.Config {
	return serve.Config{
		VMs:                serveVMs,
		Workers:            workers,
		Workload:           "GUPS",
		Scale:              sz.serveScale,
		Seed:               seed,
		THP:                true,
		OpsPerWorker:       sz.serveOpsPerWorker,
		ChurnPagesPerRound: churnPages,
		Shards:             1,
	}
}

// serveState repeats serve.Run, which builds its engine on every call:
// a pass's set-up is the call's wall clock minus the worker pool's.
type serveState struct {
	cfg   serve.Config
	exact bool
	// first is the first pass's simulated side; later passes of an
	// exact workload must reproduce its digest.
	first simStats
	check check
}

func (s *serveState) minPasses() int { return 1 }

func (s *serveState) pass() (*pass, error) {
	before := mallocs()
	t0 := time.Now()
	sum, err := serve.Run(context.Background(), s.cfg)
	total := time.Since(t0)
	if err != nil {
		return nil, err
	}
	p := &pass{ops: sum.TotalOps, wall: sum.Elapsed, setupS: (total - sum.Elapsed).Seconds(), mallocs: mallocs() - before}
	s.check.attempted += sum.TotalOps
	if sum.PendingReclaims != 0 {
		s.check.fail(uint64(sum.PendingReclaims), "%d retired generations never reclaimed", sum.PendingReclaims)
	}
	switch st := serveStats(sum); {
	case s.first.digest == "":
		s.first = st
	case s.exact && st.digest != s.first.digest:
		s.check.fail(1, "a later pass's simulated counters differ from the first on the same seed")
	}
	return p, nil
}

func (s *serveState) finish(c *check) simStats {
	c.merge(s.check)
	return s.first
}

func serveStats(sum *serve.Summary) simStats {
	h := sha256.New()
	fmt.Fprintln(h, sum.TotalOps, sum.PerVMOps, sum.Latency.Count(), sum.MeanLatency, sum.P50, sum.P95, sum.P99, sum.Latency.Max())
	return simStats{
		// Each worker advances its clock by Latency+1 per translation.
		cyclesPerOp: sum.MeanLatency + 1,
		walkMean:    sum.MeanLatency,
		walkP99:     float64(sum.P99),
		digest:      fmt.Sprintf("%x", h.Sum(nil)),
		layer: map[string]float64{
			"serve.fairness":        sum.Fairness,
			"serve.churn_ops_per_s": float64(sum.ChurnOps) / sum.Elapsed.Seconds(),
			"serve.publishes_per_s": float64(sum.Publishes) / sum.Elapsed.Seconds(),
			"serve.retries_per_mop": float64(sum.Retries) / (float64(sum.TotalOps) / 1e6),
		},
	}
}

// -------------------------------------------------------------- sweep

func (sz *sizes) sweepSettings(seed uint64, parallelism int) report.Settings {
	return report.Settings{
		Warmup: sz.sweepWarmup, Measure: sz.sweepMeasure, Scale: sz.simScale, Seed: seed,
		Apps: sweepApps, Parallelism: parallelism,
	}
}

// sweepCell is the sim.Config report.Suite builds for one Figure 9
// cell on GUPS with 4KB pages. It restates the suite's recipe on
// purpose: the sweep re-simulates two cells directly and holds the
// rendered speed-up to their ratio, so a drift between this and the
// suite fails the run.
func (sz *sizes) sweepCell(design sim.Design, seed uint64) sim.Config {
	cfg := sz.simConfig(design, "GUPS", false, sz.sweepMeasure, seed)
	cfg.WarmupAccesses = sz.sweepWarmup
	if design == sim.DesignNestedECPT {
		cfg.Tech = report.TechAdvanced.Techniques()
		cfg.NestedECPT = core.DefaultNestedECPTConfig(cfg.Tech)
	}
	return cfg
}

// sweepState is sweep_fig9 after set-up. A sweep has no set-up of its
// own — every cell builds its machine inside the timed phase — so the
// set-up sample is the build of two of its cells' machines, Nested
// ECPTs and Nested Radix on GUPS with 4KB pages. After the sweep the
// two are run directly: the rendered figure is held to their ratio,
// and the Nested ECPT cell supplies the run's absolute simulated
// metrics (the figure prints ratios only).
type sweepState struct {
	sz           *sizes
	seed         uint64
	necpt, radix *sim.Machine
	fig          []byte
}

func newSweepState(sz *sizes, seed uint64) (*sweepState, error) {
	s := &sweepState{sz: sz, seed: seed}
	var err error
	if s.necpt, _, _, err = buildMachine(sz.sweepCell(sim.DesignNestedECPT, seed)); err != nil {
		return nil, err
	}
	if s.radix, _, _, err = buildMachine(sz.sweepCell(sim.DesignNestedRadix, seed)); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *sweepState) minPasses() int { return 1 }

func (s *sweepState) pass() (*pass, error) {
	suite := report.NewSuite(s.sz.sweepSettings(s.seed, runtime.GOMAXPROCS(0)))
	var fig bytes.Buffer
	before := mallocs()
	t0 := time.Now()
	err := suite.Figure9(&fig)
	p := &pass{wall: time.Since(t0), ops: sweepRuns * (s.sz.sweepWarmup + s.sz.sweepMeasure)}
	p.mallocs = mallocs() - before
	if err != nil {
		return nil, err
	}
	if s.fig != nil && !bytes.Equal(s.fig, fig.Bytes()) {
		return nil, fmt.Errorf("figure 9 rendered differently on a second sweep of the same seed")
	}
	s.fig = fig.Bytes()
	return p, nil
}

func (s *sweepState) finish(c *check) simStats {
	c.attempted += sweepRuns
	necpt, err := s.necpt.Run()
	if err != nil {
		c.fail(1, "reference cell: %v", err)
		return simStats{}
	}
	radix, err := s.radix.Run()
	if err != nil {
		c.fail(1, "reference cell: %v", err)
		return simStats{}
	}
	out := simResultStats(necpt, necpt.Cycles, necpt.Instructions)
	out.digest = digestBytes(s.fig)
	out.layer = checkFigure9(s.fig, float64(radix.Cycles)/float64(necpt.Cycles), c)
	return out
}

// checkFigure9 holds a rendered Figure 9 to the directly simulated
// GUPS NECPT-over-NRadix speed-up and returns the report-layer values
// the figure carries.
func checkFigure9(fig []byte, gupsSpeedup float64, c *check) map[string]float64 {
	f9, err := parseFigure9(string(fig))
	if err != nil {
		c.fail(sweepRuns, "figure 9 unreadable: %v", err)
		return nil
	}
	if got := f9.rows["GUPS"][2]; math.Abs(got-gupsSpeedup) > 0.00051 {
		c.fail(1, "figure 9 GUPS NECPT speed-up %.3f, direct simulation of the two cells gives %.4f", got, gupsSpeedup)
	}
	for app, row := range f9.rows {
		for i, v := range row {
			if !(v > 0) {
				c.fail(1, "figure 9 %s column %d is %v", app, i, v)
			}
		}
	}
	sp4k := f9.geo[2] / f9.geo[0]
	spTHP := f9.geo[3] / f9.geo[1]
	return map[string]float64{
		"report.speedup_4k":      sp4k,
		"report.speedup_thp":     spTHP,
		"report.speedup_err_4k":  math.Abs(sp4k-paperSpeedup4K) / paperSpeedup4K,
		"report.speedup_err_thp": math.Abs(spTHP-paperSpeedupTHP) / paperSpeedupTHP,
	}
}

func digestBytes(b []byte) string {
	h := sha256.Sum256(b)
	return fmt.Sprintf("%x", h[:])
}

// figure9 is the parsed table: twelve speed-up columns per application
// and their geometric means.
type figure9 struct {
	rows map[string][]float64
	geo  []float64
}

func parseFigure9(text string) (*figure9, error) {
	f := &figure9{rows: map[string][]float64{}}
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(strings.ReplaceAll(line, "|", " "))
		if len(fields) != 13 {
			continue
		}
		vals := make([]float64, 0, 12)
		for _, s := range fields[1:] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				vals = nil
				break
			}
			vals = append(vals, v)
		}
		if vals == nil {
			continue // the header row
		}
		if fields[0] == "GeoMean" {
			f.geo = vals
		} else {
			f.rows[fields[0]] = vals
		}
	}
	if f.geo == nil || len(f.rows) != len(sweepApps) {
		return nil, fmt.Errorf("found %d application rows and geomean=%v", len(f.rows), f.geo != nil)
	}
	return f, nil
}

// ------------------------------------------------------------ helpers

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
