// Package serve is a long-running multi-VM translation service: tens
// to hundreds of guests, each with its own guest ECPT set, translate
// through one shared host ECPT set under a GOMAXPROCS-wide worker
// pool. Walks are lock-free — every worker reads immutable,
// epoch-versioned table snapshots (ecpt.EnterConcurrent) while a
// single churn goroutine keeps mutating the tables (demand paging,
// cuckoo inserts, elastic resizes) and publishing new generations,
// reclaimed through epoch grace periods.
//
// Where internal/sim measures one core's translation behaviour in
// simulated cycles, serve measures the consolidation story of §2.3:
// aggregate wall-clock translation throughput, per-VM fairness, and
// tail latency (in simulated cycles) when many guests share the host
// MMU structures concurrently.
package serve

import (
	"time"

	"nestedecpt/internal/trace"
)

// Config configures one service run.
type Config struct {
	// VMs is the number of guests sharing the host.
	VMs int
	// Workers is the worker-pool width; <= 0 means GOMAXPROCS.
	Workers int
	// Workload names the Table 4 application every guest runs.
	Workload string
	// Scale divides the paper's footprints (workload.Options.Scale).
	// Serve defaults much higher than the simulator's 16: a density
	// experiment wants many small guests, not one faithful one.
	Scale uint64
	// Seed drives every generator and allocator in the run.
	Seed uint64
	// THP enables transparent huge pages in guests and host.
	THP bool

	// OpsPerWorker, when non-zero, stops each worker after that many
	// translations — the deterministic mode tests and benchmarks use.
	// When zero, the run is wall-clock-bounded by Duration.
	OpsPerWorker uint64
	// Duration bounds the run in wall-clock time when OpsPerWorker is
	// zero. Zero means one second.
	Duration time.Duration

	// ChurnPagesPerRound is how many pages the churn mutator touches
	// per guest per round (demand-mapping fresh pages and unmapping old
	// ones in a churn-private VMA, then publishing new generations).
	// Zero disables churn: the tables stay frozen at their first
	// published snapshot.
	ChurnPagesPerRound int
	// ChurnInterval is the pause between churn rounds. Zero means
	// 200µs.
	ChurnInterval time.Duration

	// Shards is the number of independent churn mutators. Guests are
	// partitioned round-robin (vm % Shards); each shard mutates and
	// publishes only its own guests' table sets, so one slow shard
	// never delays another's publishes. Host-side mappings still funnel
	// through one dedicated host writer (the host set keeps a single
	// mutator). Zero means 1 — the original single-mutator engine;
	// values above VMs are clamped to VMs.
	Shards int

	// ChurnWindowPages bounds the live churn pages per guest and
	// ChurnSpanPages the VA span churn cycles through before wrapping.
	// Zero means 2048 / 8192. Replay schedules shrink them to force
	// rapid unmap/remap of the same addresses.
	ChurnWindowPages int
	ChurnSpanPages   int

	// ProbeEvery, when non-zero, makes each worker walk one
	// recently-churned address after every ProbeEvery workload
	// translations. Churn pages are the only pages a publish can take
	// away, so these probes are the serve-mode audit's staleness
	// witnesses: they may fault (the page was unmapped — expected), but
	// a success must agree with the generation window the reader
	// pinned. Probes are always traced, never retried, and counted
	// separately from workload ops.
	ProbeEvery int

	// Trace, when non-nil, receives the serve-lane events
	// (TranslateBegin/End, MapPublish/UnmapPublish) that
	// traceaudit.AuditServe replays. Nil disables serve tracing.
	Trace *trace.Recorder
	// TraceSample emits TranslateBegin/End for one in every TraceSample
	// workload translations per worker — sampling keeps a long run's
	// trace bounded. Zero traces no workload walks (churn probes are
	// always traced).
	TraceSample int
}

// DefaultConfig returns a small smoke-test service: a handful of
// guests, GUPS at a dense scale, one second of wall-clock load.
func DefaultConfig() Config {
	return Config{
		VMs:                8,
		Workload:           "GUPS",
		Scale:              1024,
		Seed:               42,
		THP:                true,
		Duration:           time.Second,
		ChurnPagesPerRound: 16,
	}
}

// VMDensityConfig returns the VM-density experiment configuration the
// nestedserve CLI, the vmdensity example, and CI's throughput smoke
// job share: 48 guests hammering one shared host ECPT set.
func VMDensityConfig() Config {
	cfg := DefaultConfig()
	cfg.VMs = 48
	cfg.Duration = 2 * time.Second
	return cfg
}

// normalized fills zero fields with defaults.
func (c Config) normalized() Config {
	d := DefaultConfig()
	if c.VMs <= 0 {
		c.VMs = d.VMs
	}
	if c.Workload == "" {
		c.Workload = d.Workload
	}
	if c.Scale == 0 {
		c.Scale = d.Scale
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.OpsPerWorker == 0 && c.Duration == 0 {
		c.Duration = time.Second
	}
	if c.ChurnInterval == 0 {
		c.ChurnInterval = 200 * time.Microsecond
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Shards > c.VMs {
		c.Shards = c.VMs
	}
	if c.ChurnWindowPages <= 0 {
		c.ChurnWindowPages = 2048
	}
	if c.ChurnSpanPages <= c.ChurnWindowPages {
		c.ChurnSpanPages = 4 * c.ChurnWindowPages
	}
	return c
}
