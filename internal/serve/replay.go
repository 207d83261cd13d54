package serve

import (
	"nestedecpt/internal/core"
	"nestedecpt/internal/runner"
	"nestedecpt/internal/trace"
	"nestedecpt/internal/vhash"
)

// Replay mode: the same engine, driven by a single-goroutine seeded
// scheduler instead of live goroutines. Every step runs one whole
// worker action (engine.step, the very function the live workers loop
// over: a workload walk plus its probe) or one whole churn round
// (engine.churnRound) to completion, so a given (config, seed) pair
// always produces the same schedule, the same trace, and the same
// audit verdict — which is what lets an interleaving the auditor flags
// be committed as a deterministic regression test.

// ReplayConfig configures one deterministic replay.
type ReplayConfig struct {
	// VMs / Shards / Workers size the replayed service (defaults 4 / 2
	// / 2). Workers here are scheduler actors, not goroutines.
	VMs     int
	Shards  int
	Workers int
	// Steps is how many scheduler steps to run (default 400).
	Steps int
	// Seed drives the schedule, the workloads, and the probe targets.
	Seed uint64
	// ChurnPagesPerRound / WindowPages / SpanPages shape the churn:
	// replay defaults (8 / 4 / 16) are deliberately tiny so the same
	// addresses get unmapped and remapped within a few rounds.
	ChurnPagesPerRound int
	WindowPages        int
	SpanPages          int
	// ProbeEvery is the worker probe cadence (default 1: every step).
	ProbeEvery int
	// Workload / Scale / THP mirror Config (defaults GUPS / 2048 /
	// false).
	Workload string
	Scale    uint64
	THP      bool

	// StaleTLB injects workerState.staleTLB, a deliberately broken
	// per-worker translation cache in front of the probe lane. The audit
	// must flag the dead translations it serves — the regression tests
	// assert it does.
	StaleTLB bool
}

// normalized fills zero fields with replay defaults.
func (c ReplayConfig) normalized() ReplayConfig {
	if c.VMs <= 0 {
		c.VMs = 4
	}
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.Shards > c.VMs {
		c.Shards = c.VMs
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Steps <= 0 {
		c.Steps = 400
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ChurnPagesPerRound <= 0 {
		c.ChurnPagesPerRound = 8
	}
	if c.WindowPages <= 0 {
		c.WindowPages = 4
	}
	if c.SpanPages <= c.WindowPages {
		c.SpanPages = 4 * c.WindowPages
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 1
	}
	if c.Workload == "" {
		c.Workload = "GUPS"
	}
	if c.Scale == 0 {
		c.Scale = 2048
	}
	return c
}

// ReplayResult is what one replay produced: the serve-lane trace to
// audit, and the probe accounting.
type ReplayResult struct {
	// Events is the complete serve-lane trace in emission order.
	Events []trace.Event
	// Probes / ProbeHits count the churn-lane probes and their
	// successful translations.
	Probes    uint64
	ProbeHits uint64
	// StaleServes counts probes served from the StaleTLB cache instead
	// of a walk (0 unless ReplayConfig.StaleTLB).
	StaleServes uint64
	// Publishes counts the churn rounds that ran.
	Publishes uint64
}

// replayShard is one scheduler-driven writer actor: it owns the VMs
// with vm % shards == id and churns them round-robin.
type replayShard struct {
	id  int
	vms []int
	pos int
}

// Replay builds the service and drives it through a deterministic
// seeded schedule on the calling goroutine, returning the serve-lane
// trace for traceaudit.AuditServe (use ServeSpec{Strict: true}: whole
// steps never interleave, so the generation windows are exact).
func Replay(cfg ReplayConfig) (*ReplayResult, error) {
	cfg = cfg.normalized()
	rec, col := trace.NewCollected()
	scfg := Config{
		VMs:                cfg.VMs,
		Workers:            cfg.Workers,
		Workload:           cfg.Workload,
		Scale:              cfg.Scale,
		Seed:               cfg.Seed,
		THP:                cfg.THP,
		OpsPerWorker:       1, // unused: the scheduler bounds the run by Steps
		Shards:             cfg.Shards,
		ChurnPagesPerRound: cfg.ChurnPagesPerRound,
		ChurnWindowPages:   cfg.WindowPages,
		ChurnSpanPages:     cfg.SpanPages,
		ProbeEvery:         cfg.ProbeEvery,
		Trace:              rec,
		TraceSample:        1,
	}.normalized()
	e, err := build(scfg)
	if err != nil {
		return nil, err
	}
	e.syncHost = true // host requests apply inline: one goroutine owns everything

	workers := make([]*workerState, scfg.Workers)
	for i := range workers {
		w, err := e.newWorker(i)
		if err != nil {
			return nil, err
		}
		defer w.close()
		if cfg.StaleTLB {
			w.staleTLB = make(map[servePage]core.WalkResult)
		}
		workers[i] = w
	}
	shards := make([]*replayShard, e.shards)
	for s := range shards {
		sh := &replayShard{id: s}
		for vm := s; vm < len(e.kerns); vm += e.shards {
			sh.vms = append(sh.vms, vm)
		}
		shards[s] = sh
	}

	sched := vhash.NewRNG(runner.Seed(cfg.Seed, "serve/replay/schedule"))
	out := &ReplayResult{}
	actors := len(workers) + len(shards)
	for step := 0; step < cfg.Steps; step++ {
		a := sched.Intn(actors)
		var err error
		if a < len(workers) {
			err = e.step(workers[a])
		} else {
			err = e.replayShardStep(shards[a-len(workers)])
		}
		if err != nil {
			return nil, err
		}
	}
	for _, w := range workers {
		out.Probes += w.res.probes
		out.ProbeHits += w.res.probeHits
		out.StaleServes += w.res.staleServes
	}
	out.Publishes = e.publishes.Load()
	rec.Flush()
	out.Events = col.Events()
	return out, nil
}

// replayShardStep runs one churn round on the shard's next VM.
func (e *engine) replayShardStep(s *replayShard) error {
	vm := s.vms[s.pos]
	s.pos = (s.pos + 1) % len(s.vms)
	return e.churnRound(s.id, vm)
}
