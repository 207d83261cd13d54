// Command nestedserve runs the multi-VM translation service: many
// guests, each with its own guest ECPT set over one shared host ECPT
// set, translated by a GOMAXPROCS-wide pool of lock-free walkers while
// sharded churn mutators keep publishing new table generations.
//
// Usage:
//
//	nestedserve                          # the VM-density experiment (48 guests, 2s)
//	nestedserve -vms 96 -duration 5s     # denser, longer
//	nestedserve -ops 10000 -churn 0      # deterministic fixed-op run, frozen tables
//	nestedserve -minrate 1000000         # exit non-zero under 1M translations/sec
//	nestedserve -shards 4 -audit         # sharded writers, audited serve lane
//	nestedserve -cpuprofile cpu.pprof    # profile the run (also -memprofile)
//
// The -minrate gate is what CI's throughput smoke job uses: a short
// run must sustain the floor or the job fails. The -audit gate is the
// serve-mode conformance check: the run's TranslateBegin/End and
// MapPublish/UnmapPublish events replay through traceaudit.AuditServe,
// and any finding — a translation served after its unmap published, a
// frame no pinned generation maps, a non-monotone publish — fails the
// run. -trace writes the same serve-lane events to a JSONL file.
//
// The engine's epoch/generation protocol (DESIGN.md §10) is enforced
// statically: nestedlint's epochguard, sealedwrite, and atomicmix
// analyzers check the //nestedlint:writer annotations on the serve
// engine's mutator paths and the Enter/Exit bracketing of its workers
// (DESIGN.md §11).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"nestedecpt/internal/profiling"
	"nestedecpt/internal/report"
	"nestedecpt/internal/serve"
	"nestedecpt/internal/trace"
	"nestedecpt/internal/traceaudit"
	"nestedecpt/internal/workload"
)

// options is one validated invocation: the engine config plus the
// CLI-level gates that wrap it.
type options struct {
	cfg       serve.Config
	minRate   float64
	tracePath string
	audit     bool
	// cpuProfile / memProfile are pprof output paths ("" = off).
	cpuProfile string
	memProfile string
}

// tracing reports whether the run records the serve lane at all.
func (o *options) tracing() bool { return o.audit || o.tracePath != "" }

// parseOptions parses and validates argv up front, so a bad
// combination fails with one clear error before guests are built
// (a 48-guest construction is seconds of work a typo shouldn't buy).
func parseOptions(args []string) (*options, error) {
	fs := flag.NewFlagSet("nestedserve", flag.ContinueOnError)
	def := serve.VMDensityConfig()
	vms := fs.Int("vms", def.VMs, "number of guest VMs sharing the host ECPT set")
	workers := fs.Int("workers", 0, "worker-pool width (0 = GOMAXPROCS)")
	app := fs.String("app", def.Workload, "application every guest runs (Table 4 name): "+strings.Join(workload.Names(), ", "))
	scale := fs.Uint64("scale", def.Scale, "footprint scale divisor vs the paper")
	seed := fs.Uint64("seed", def.Seed, "deterministic seed")
	thp := fs.Bool("thp", def.THP, "enable transparent huge pages")
	duration := fs.Duration("duration", def.Duration, "wall-clock run length (ignored when -ops > 0)")
	ops := fs.Uint64("ops", 0, "translations per worker; > 0 switches to the deterministic fixed-op mode")
	churn := fs.Int("churn", def.ChurnPagesPerRound, "pages mapped/unmapped per guest per churn round (0 freezes the tables)")
	churnInterval := fs.Duration("churn-interval", 0, "pause between churn rounds (0 = default)")
	shards := fs.Int("shards", 1, "independent churn mutators; guests are partitioned vm % shards")
	probeEvery := fs.Int("probe-every", 0, "walk one recently-churned page after every N workload translations (0 = only when -audit defaults it to 8)")
	tracePath := fs.String("trace", "", "write the serve-lane trace (translate + publish events) to this JSONL file")
	traceSample := fs.Int("trace-sample", 0, "also trace one in N workload translations per worker (0 = churn probes only)")
	audit := fs.Bool("audit", false, "replay the serve lane through the conformance auditor; findings fail the run")
	minRate := fs.Float64("minrate", 0, "fail (exit 1) if aggregate translations/sec falls below this floor")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	if *vms < 1 {
		return nil, fmt.Errorf("-vms %d: need at least one guest", *vms)
	}
	if *workers < 0 {
		return nil, fmt.Errorf("-workers %d: cannot be negative", *workers)
	}
	valid := false
	for _, n := range workload.Names() {
		if n == *app {
			valid = true
			break
		}
	}
	if !valid {
		return nil, fmt.Errorf("-app %q: unknown workload (have %s)", *app, strings.Join(workload.Names(), ", "))
	}
	if *ops == 0 && *duration <= 0 {
		return nil, fmt.Errorf("-duration %v: need a positive duration when -ops is 0", *duration)
	}
	if *churn < 0 {
		return nil, fmt.Errorf("-churn %d: cannot be negative", *churn)
	}
	if *churnInterval < 0 {
		return nil, fmt.Errorf("-churn-interval %v: cannot be negative", *churnInterval)
	}
	if *shards < 1 {
		return nil, fmt.Errorf("-shards %d: need at least one churn mutator", *shards)
	}
	if *shards > *vms {
		return nil, fmt.Errorf("-shards %d exceeds -vms %d: a shard with no guests churns nothing", *shards, *vms)
	}
	if *shards > 1 && *churn == 0 {
		return nil, fmt.Errorf("-shards %d with -churn 0: sharded mutators need churn to mutate", *shards)
	}
	if *probeEvery < 0 {
		return nil, fmt.Errorf("-probe-every %d: cannot be negative", *probeEvery)
	}
	if *probeEvery > 0 && *churn == 0 {
		return nil, fmt.Errorf("-probe-every %d with -churn 0: churn probes need churn pages to probe", *probeEvery)
	}
	if *traceSample < 0 {
		return nil, fmt.Errorf("-trace-sample %d: cannot be negative", *traceSample)
	}
	if *traceSample > 0 && *tracePath == "" && !*audit {
		return nil, fmt.Errorf("-trace-sample %d without -trace or -audit: sampled events would go nowhere", *traceSample)
	}
	if *audit && *churn == 0 {
		return nil, fmt.Errorf("-audit with -churn 0: frozen tables publish nothing to audit")
	}
	if *minRate < 0 {
		return nil, fmt.Errorf("-minrate %v: cannot be negative", *minRate)
	}
	// A profile that cannot be written should not cost a guest build
	// first (the heap profile is only created at exit).
	for _, prof := range []struct{ flag, path string }{{"-cpuprofile", *cpuprofile}, {"-memprofile", *memprofile}} {
		if prof.path == "" {
			continue
		}
		if st, err := os.Stat(filepath.Dir(prof.path)); err != nil || !st.IsDir() {
			return nil, fmt.Errorf("%s %q: %s is not an existing directory", prof.flag, prof.path, filepath.Dir(prof.path))
		}
	}

	o := &options{
		cfg: serve.Config{
			VMs:                *vms,
			Workers:            *workers,
			Workload:           *app,
			Scale:              *scale,
			Seed:               *seed,
			THP:                *thp,
			Duration:           *duration,
			OpsPerWorker:       *ops,
			ChurnPagesPerRound: *churn,
			ChurnInterval:      *churnInterval,
			Shards:             *shards,
			ProbeEvery:         *probeEvery,
			TraceSample:        *traceSample,
		},
		minRate:    *minRate,
		tracePath:  *tracePath,
		audit:      *audit,
		cpuProfile: *cpuprofile,
		memProfile: *memprofile,
	}
	if o.audit && o.cfg.ProbeEvery == 0 {
		// The audit's staleness witnesses are the churn probes; an
		// audited run without a cadence gets the default one.
		o.cfg.ProbeEvery = 8
	}
	return o, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("nestedserve: ")

	o, err := parseOptions(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		log.Fatal(err)
	}

	var col *trace.Collector
	if o.tracing() {
		o.cfg.Trace, col = trace.NewCollected()
	}

	// SIGINT/SIGTERM cancel the run; the engine drains its workers and
	// still reports what it measured.
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()

	stopProf, err := profiling.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	sum, err := serve.Run(ctx, o.cfg)
	// Flush profiles before reporting so a failed run still yields a
	// readable CPU profile of what preceded the failure.
	if perr := stopProf(); perr != nil {
		log.Print(perr)
	}
	if err != nil {
		log.Fatal(err)
	}
	report.RenderServe(os.Stdout, sum)
	fmt.Printf("total runtime     %v (including guest construction and prepopulation)\n",
		time.Since(start).Round(time.Millisecond))

	var events []trace.Event
	if o.tracing() {
		o.cfg.Trace.Flush()
		events = col.Events()
	}
	if o.tracePath != "" {
		f, err := os.Create(o.tracePath)
		if err != nil {
			log.Fatal(err)
		}
		tw := trace.NewWriter(f)
		tw.RunHeader("serve")
		tw.Events(events)
		if err := tw.Flush(); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace             %d events -> %s\n", len(events), o.tracePath)
	}
	if o.audit {
		vs := traceaudit.AuditServe(events, traceaudit.ServeSpec{})
		for _, v := range vs {
			fmt.Fprintf(os.Stderr, "audit: %v\n", v)
		}
		if len(vs) > 0 {
			log.Fatalf("%d serve-audit violations", len(vs))
		}
		fmt.Printf("audit             clean (%d events, %d churn probes)\n", len(events), sum.ChurnProbes)
	}

	if o.minRate > 0 && sum.TranslationsPerSec < o.minRate {
		log.Fatalf("throughput %.0f translations/sec below the -minrate floor %.0f",
			sum.TranslationsPerSec, o.minRate)
	}
}
