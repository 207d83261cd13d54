// Package report runs the paper's experiments and renders every table
// and figure of the evaluation (§8–§9) as text. A Suite caches
// simulation results so that figures sharing configurations (e.g.
// Figures 9, 10 and 13) reuse runs instead of repeating them.
//
// Every figure is one sweep. Its exact run set is enumerated by
// replaying its renderer against placeholder results (so the set can
// never drift from what the renderer actually asks for); Simulate runs
// the uncached ones on the runner engine at Settings.Parallelism
// width, building each distinct set-up (sim.SetupKey) once per sweep
// and running every run that shares it on its own copy-on-write fork;
// rendering then reads the cache sequentially. Every run's randomness
// derives from its own config, never from shared generator state, so
// the report is byte-identical at every width.
package report

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"nestedecpt/internal/core"
	"nestedecpt/internal/runner"
	"nestedecpt/internal/sim"
	"nestedecpt/internal/stats"
	"nestedecpt/internal/trace"
	"nestedecpt/internal/traceaudit"
	"nestedecpt/internal/workload"
)

// TechLevel enumerates the cumulative technique stacks of Figure 9's
// bar breakdown: Plain, then +STC, then +Step-1 PTE-hCWT caching, then
// +Step-3 adaptive caching, then +4KB page-table allocation (the full
// Advanced design).
type TechLevel int

// Technique stacks in the order Figure 9 accumulates them.
const (
	TechPlain TechLevel = iota
	TechSTC
	TechStep1
	TechStep3
	TechAdvanced
	numTechLevels
)

// String names the increment this level adds.
func (t TechLevel) String() string {
	switch t {
	case TechPlain:
		return "Plain"
	case TechSTC:
		return "+STC"
	case TechStep1:
		return "+Step1 PTE-hCWT"
	case TechStep3:
		return "+Step3 adaptive"
	case TechAdvanced:
		return "+4KB PT alloc"
	}
	return fmt.Sprintf("TechLevel(%d)", int(t))
}

// Techniques returns the core.Techniques for this cumulative level.
func (t TechLevel) Techniques() core.Techniques {
	var tech core.Techniques
	if t >= TechSTC {
		tech.STC = true
	}
	if t >= TechStep1 {
		tech.Step1PTECaching = true
	}
	if t >= TechStep3 {
		tech.Step3AdaptivePTE = true
	}
	if t >= TechAdvanced {
		tech.PageTable4KB = true
	}
	return tech
}

// Settings control how heavy each simulation run is and how the suite
// schedules runs.
type Settings struct {
	Warmup  uint64
	Measure uint64
	Scale   uint64
	Seed    uint64
	// Apps selects the applications; nil means all of Table 4.
	Apps []string
	// Progress, when non-nil, receives the runner's "# sweep i/n" line
	// per completed run.
	Progress io.Writer
	// Parallelism bounds concurrent simulations exactly as
	// runner.Options.Parallelism does: <= 0 means GOMAXPROCS. Report
	// output is byte-identical at every width.
	Parallelism int
	// RunTimeout, when positive, bounds each simulation run's wall
	// clock; an expired run fails the sweep instead of hanging it.
	RunTimeout time.Duration
	// Trace records a walk trace of every run's measured phase;
	// retrieve them with Suite.Traces. Traces accumulate in run-plan
	// order, so the set is identical at every Parallelism.
	Trace bool
	// BatchSize, when > 1, runs every simulation with the batched
	// walk pipeline (sim.Config.BatchSize); BatchMSHRs sets its
	// overlap width.
	BatchSize  int
	BatchMSHRs int
}

// DefaultSettings returns the full evaluation scale.
func DefaultSettings() Settings {
	return Settings{Warmup: 100_000, Measure: 400_000, Scale: 16, Seed: 42}
}

// QuickSettings returns a reduced scale for benchmarks and smoke runs.
func QuickSettings() Settings {
	return Settings{
		Warmup: 30_000, Measure: 80_000, Scale: 16, Seed: 42,
		Apps: []string{"BC", "GUPS", "SysBench"},
	}
}

func (s Settings) apps() []string {
	if len(s.Apps) > 0 {
		return s.Apps
	}
	return workload.Names()
}

// runKey identifies one simulation configuration.
type runKey struct {
	design sim.Design
	app    string
	thp    bool
	tech   TechLevel
	stc    int // STC entries override (0 = default), for the §9.4 sweep
}

// String renders the run's full identity, for progress lines and
// error messages.
func (k runKey) String() string {
	s := fmt.Sprintf("%v/%s", k.design, k.app)
	if k.thp {
		s += "/THP"
	}
	if k.design == sim.DesignNestedECPT {
		s += "/" + k.tech.String()
		if k.stc > 0 {
			s += fmt.Sprintf("/stc=%d", k.stc)
		}
	}
	return s
}

// RunTrace is one run's collected walk trace.
type RunTrace struct {
	// Name is the run's identity (runKey.String()).
	Name string
	// Events is the measured phase's event stream.
	Events []trace.Event
	// Spec is the audit specification the run's config implies.
	Spec traceaudit.Spec
}

// Suite caches simulation results across experiments.
type Suite struct {
	Settings Settings
	ctx      context.Context
	results  map[runKey]*sim.Result
	// traces collects per-run walk traces (Settings.Trace) in the
	// order runs are first simulated.
	traces []RunTrace

	// planning is set while a renderer is replayed against placeholder
	// results to enumerate the runs it needs; planKeys collects them in
	// first-request order and planSeen dedups.
	planning bool
	planKeys []runKey
	planSeen map[runKey]bool
}

// NewSuite returns an empty suite with the given settings.
func NewSuite(s Settings) *Suite {
	return &Suite{Settings: s, ctx: context.Background(), results: make(map[runKey]*sim.Result)}
}

// WithContext attaches ctx to the suite: simulations started after
// this honor its cancellation and deadline. It returns the suite.
func (s *Suite) WithContext(ctx context.Context) *Suite {
	if ctx == nil {
		ctx = context.Background()
	}
	s.ctx = ctx
	return s
}

// config builds the sim.Config for a key.
func (s *Suite) config(k runKey) sim.Config {
	cfg := sim.DefaultConfig(k.design, k.app, k.thp)
	cfg.WarmupAccesses = s.Settings.Warmup
	cfg.MeasureAccesses = s.Settings.Measure
	cfg.WorkloadOpts = workload.Options{Scale: s.Settings.Scale, Seed: s.Settings.Seed}
	cfg.BatchSize = s.Settings.BatchSize
	cfg.BatchMSHRs = s.Settings.BatchMSHRs
	if k.design == sim.DesignNestedECPT {
		cfg.Tech = k.tech.Techniques()
		cfg.NestedECPT = core.DefaultNestedECPTConfig(cfg.Tech)
		if k.stc > 0 {
			cfg.NestedECPT.STCEntries = k.stc
		}
	}
	return cfg
}

// run returns the cached result for key. During planning it records
// the key and returns a placeholder instead, so renderers double as
// their own run-set enumerators; outside planning a miss is an error.
func (s *Suite) run(k runKey) (*sim.Result, error) {
	if r, ok := s.results[k]; ok {
		return r, nil
	}
	if !s.planning {
		return nil, fmt.Errorf("report: run %v was not planned", k)
	}
	if !s.planSeen[k] {
		s.planSeen[k] = true
		s.planKeys = append(s.planKeys, k)
	}
	return planResult(), nil
}

// planResult returns a placeholder a renderer can format without
// panicking (non-nil histograms and walker stats, nonzero divisors).
// Planning renders to io.Discard, so the values are never seen.
func planResult() *sim.Result {
	r := &sim.Result{
		Instructions:  1000,
		Cycles:        1000,
		MemAccesses:   1,
		Walks:         1,
		WalkCycles:    1,
		MMUBusyCycles: 1,
		MMUAccesses:   1,
		WalkLatency:   stats.NewHistogram(20),
	}
	r.NestedECPT = &core.NestedECPTStats{
		GuestClasses: stats.NewDistribution(),
		HostClasses:  stats.NewDistribution(),
	}
	r.NativeECPT = &core.NativeECPTStats{Classes: stats.NewDistribution()}
	r.Hybrid = &core.HybridStats{HostClasses: stats.NewDistribution()}
	return r
}

// plan replays render against placeholder results and returns the
// uncached runs it requested, in first-request order. Because the
// renderer itself is the enumerator, the planned set can never drift
// from the runs rendering will perform.
func (s *Suite) plan(render func(io.Writer) error) []runKey {
	s.planning = true
	s.planKeys = nil
	s.planSeen = make(map[runKey]bool)
	// Rendering against placeholders cannot fail a run; any residual
	// error would resurface during the real render.
	_ = render(io.Discard)
	keys := s.planKeys
	s.planning = false
	s.planKeys, s.planSeen = nil, nil
	return keys
}

// Simulate runs every config as one task on the runner engine, named
// by names[i], and returns the results and, when traced, each run's
// walk trace, both in cfgs order. Runs are independent and derive
// their randomness from their own configs, so the results do not
// depend on opts.Parallelism. The first failed run, in cfgs order,
// fails the call; a panicking run fails it too, not the process.
//
// Runs that share a set-up (sim.SetupOf: same address space, same
// guest and host configs, differing only in what they simulate over
// it) build and pre-populate it once: the first of them to start builds
// it, and each runs on its own copy-on-write fork (sim.Machine.Fork),
// which runs exactly as a fresh build would. A run alone with its
// set-up builds its own machine.
func Simulate(ctx context.Context, names []string, cfgs []sim.Config, traced bool, opts runner.Options) ([]*sim.Result, []RunTrace, error) {
	groups := setupGroups(cfgs)
	tasks := make([]runner.Task[*sim.Result], len(cfgs))
	collectors := make([]*trace.Collector, len(cfgs))
	for i, cfg := range cfgs {
		// A nil recorder runs the simulation untraced.
		var rec *trace.Recorder
		if traced {
			rec, collectors[i] = trace.NewCollected()
		}
		g := groups[i]
		tasks[i] = runner.Task[*sim.Result]{Name: names[i], Run: func(ctx context.Context) (*sim.Result, error) {
			if g == nil {
				return sim.RunTraced(ctx, cfg, rec)
			}
			m, err := g.fork(cfg)
			if err != nil {
				return nil, err
			}
			m.SetRecorder(rec)
			return m.RunContext(ctx)
		}}
	}
	out := runner.Run(ctx, tasks, opts)
	if err := runner.FirstError(out); err != nil {
		return nil, nil, err
	}
	results := make([]*sim.Result, len(out))
	var traces []RunTrace
	for i, r := range out {
		results[i] = r.Value
		if traced {
			traces = append(traces, RunTrace{Name: names[i], Events: collectors[i].Events(), Spec: sim.AuditSpec(cfgs[i])})
		}
	}
	return results, traces, nil
}

// setupGroup is one set-up several runs of a sweep share.
type setupGroup struct {
	mu sync.Mutex
	// built is set once a member has tried to build template; err is
	// that build's failure, which every member reports.
	built    bool
	template *sim.Machine
	err      error
	// forks counts the members yet to fork; the last drops template.
	forks int
}

// setupGroups returns each config's shared set-up, nil for a config
// alone with its set-up or one whose design cannot share it (a config
// SetupOf rejects fails in its own run, as it would unshared).
func setupGroups(cfgs []sim.Config) []*setupGroup {
	groups := make([]*setupGroup, len(cfgs))
	byKey := make(map[sim.SetupKey]*setupGroup)
	for i, cfg := range cfgs {
		key, shares, err := sim.SetupOf(cfg)
		if err != nil || !shares {
			continue
		}
		g := byKey[key]
		if g == nil {
			g = new(setupGroup)
			byKey[key] = g
		}
		g.forks++
		groups[i] = g
	}
	for i, g := range groups {
		if g != nil && g.forks < 2 {
			groups[i] = nil
		}
	}
	return groups
}

// fork returns a machine for cfg over the group's set-up, building and
// pre-populating the set-up first if no member has yet.
func (g *setupGroup) fork(cfg sim.Config) (*sim.Machine, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.built {
		g.built = true
		g.template, g.err = buildSetup(cfg)
	}
	if g.err != nil {
		return nil, g.err
	}
	m, err := g.template.Fork(cfg)
	if g.forks--; g.forks == 0 {
		g.template = nil
	}
	return m, err
}

// buildSetup builds and pre-populates cfg's machine as a fork
// template. Every member of the group reports its error, not only the
// one that happened to build.
func buildSetup(cfg sim.Config) (*sim.Machine, error) {
	m, err := sim.NewMachine(cfg)
	if err == nil {
		err = m.Prepopulate()
	}
	if err != nil {
		return nil, fmt.Errorf("report: building the shared set-up: %w", err)
	}
	return m, nil
}

// Traces returns every collected run trace (Settings.Trace), in the
// order the runs were first simulated.
func (s *Suite) Traces() []RunTrace { return s.traces }

// WriteTraces serializes traces as JSONL, one run-header line per run,
// in slice order.
func WriteTraces(w io.Writer, traces []RunTrace) error {
	tw := trace.NewWriter(w)
	for _, rt := range traces {
		tw.RunHeader(rt.Name)
		tw.Events(rt.Events)
	}
	return tw.Flush()
}

// sweep plans render's uncached runs, simulates them, memoizes their
// results and traces in plan order, then renders from the cache.
func (s *Suite) sweep(w io.Writer, render func(io.Writer) error) error {
	keys := s.plan(render)
	names := make([]string, len(keys))
	cfgs := make([]sim.Config, len(keys))
	for i, k := range keys {
		names[i], cfgs[i] = k.String(), s.config(k)
	}
	results, traces, err := Simulate(s.ctx, names, cfgs, s.Settings.Trace, runner.Options{
		Parallelism: s.Settings.Parallelism,
		Timeout:     s.Settings.RunTimeout,
		Progress:    s.Settings.Progress,
		Label:       "sweep",
	})
	if err != nil {
		return err
	}
	for i, k := range keys {
		s.results[k] = results[i]
	}
	s.traces = append(s.traces, traces...)
	return render(w)
}

// baseline returns the Nested Radix (4KB pages) result for app — the
// normalization denominator throughout §9.
func (s *Suite) baseline(app string) (*sim.Result, error) {
	return s.run(runKey{design: sim.DesignNestedRadix, app: app})
}

// nested returns the cached result for one of the nested designs.
func (s *Suite) nested(d sim.Design, app string, thp bool) (*sim.Result, error) {
	k := runKey{design: d, app: app, thp: thp}
	if d == sim.DesignNestedECPT {
		k.tech = TechAdvanced
	}
	return s.run(k)
}
