// Command nestedsim runs one or more (design, workload) simulations
// and prints their headline statistics.
//
// Usage:
//
//	nestedsim -design nested-ecpt -app GUPS -thp -accesses 1000000
//	nestedsim -design nested-radix,nested-ecpt -app GUPS   # comparison
//	nestedsim -design all -parallel 4                      # full sweep
//
// Multiple designs (comma-separated, or "all") run concurrently through
// report.Simulate, the sweep engine cmd/experiments uses; results print
// in the order given, regardless of completion order. Every run
// derives its randomness from its own seed, so outputs are identical at
// any -parallel value.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"nestedecpt/internal/core"
	"nestedecpt/internal/profiling"
	"nestedecpt/internal/report"
	"nestedecpt/internal/runner"
	"nestedecpt/internal/sim"
	"nestedecpt/internal/traceaudit"
	"nestedecpt/internal/workload"
)

var designNames = map[string]sim.Design{
	"radix":         sim.DesignRadix,
	"ecpt":          sim.DesignECPT,
	"nested-radix":  sim.DesignNestedRadix,
	"nested-ecpt":   sim.DesignNestedECPT,
	"nested-hybrid": sim.DesignNestedHybrid,
	"agile":         sim.DesignAgileIdeal,
	"pom-tlb":       sim.DesignPOMTLB,
	"flat-nested":   sim.DesignFlatNested,
}

// designOrder lists the -design all sweep in Table 1 order.
var designOrder = []string{
	"radix", "ecpt", "nested-radix", "nested-ecpt", "nested-hybrid",
	"agile", "pom-tlb", "flat-nested",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("nestedsim: ")

	design := flag.String("design", "nested-ecpt", "comma-separated designs, or \"all\": radix, ecpt, nested-radix, nested-ecpt, nested-hybrid, agile, pom-tlb, flat-nested")
	app := flag.String("app", "GUPS", "application (Table 4 name): "+strings.Join(workload.Names(), ", "))
	thp := flag.Bool("thp", false, "enable transparent huge pages")
	plain := flag.Bool("plain", false, "use the Plain (§3) instead of Advanced (§4) nested ECPT design")
	warmup := flag.Uint64("warmup", 200_000, "warm-up accesses")
	accesses := flag.Uint64("accesses", 1_000_000, "measured accesses")
	scale := flag.Uint64("scale", 64, "footprint scale divisor vs the paper")
	seed := flag.Uint64("seed", 42, "deterministic seed")
	batch := flag.Int("batch", 0, "accesses per pipeline step; >1 batches page walks through the MSHR overlap model")
	mshrs := flag.Int("mshrs", 0, "in-flight walker probes per batched stage (0 = default, 1 = serialized)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulations when several designs are given")
	verbose := flag.Bool("v", false, "print per-run progress and ETA")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write a JSONL walk trace of the measured phase to this file")
	audit := flag.Bool("audit", false, "replay each run's trace through the conformance auditor (implies tracing)")
	flag.Parse()
	tracing := *tracePath != "" || *audit

	var names []string
	if *design == "all" {
		names = designOrder
	} else {
		names = strings.Split(*design, ",")
	}
	runNames := make([]string, len(names))
	cfgs := make([]sim.Config, len(names))
	for i, name := range names {
		d, ok := designNames[strings.TrimSpace(name)]
		if !ok {
			log.Fatalf("unknown design %q", name)
		}
		cfg := sim.DefaultConfig(d, *app, *thp)
		cfg.WarmupAccesses = *warmup
		cfg.MeasureAccesses = *accesses
		cfg.WorkloadOpts = workload.Options{Scale: *scale, Seed: *seed}
		cfg.BatchSize = *batch
		cfg.BatchMSHRs = *mshrs
		if *plain {
			cfg.Tech = core.PlainTechniques()
			cfg.NestedECPT = core.DefaultNestedECPTConfig(cfg.Tech)
		}
		runNames[i], cfgs[i] = fmt.Sprintf("%v/%s", d, *app), cfg
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := runner.Options{Parallelism: *parallel, Label: "run"}
	if *verbose {
		opts.Progress = os.Stderr
	}
	results, traces, err := report.Simulate(ctx, runNames, cfgs, tracing, opts)

	// Flush profiles before reporting so a failed run still yields a
	// readable CPU profile of the simulation that preceded it.
	if perr := stopProf(); perr != nil {
		log.Print(perr)
	}
	if err != nil {
		log.Fatal(err)
	}

	violations := 0
	for i, r := range results {
		if i > 0 {
			fmt.Println()
		}
		printResult(r)
		if !tracing {
			continue
		}
		rt := traces[i]
		report.WriteTraceSummary(os.Stdout, report.Summarize(rt.Events))
		if *audit {
			vs := traceaudit.Audit(rt.Events, rt.Spec)
			violations += len(vs)
			for _, v := range vs {
				fmt.Fprintf(os.Stderr, "audit %s: %v\n", rt.Name, v)
			}
			if len(vs) == 0 {
				fmt.Printf("audit             clean (%d events)\n", len(rt.Events))
			}
		}
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := report.WriteTraces(f, traces); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if violations > 0 {
		log.Fatalf("%d audit violations", violations)
	}
}

func printResult(r *sim.Result) {
	w := os.Stdout
	fmt.Fprintf(w, "design            %s  (THP=%v)\n", r.Config.Design, r.Config.THP)
	fmt.Fprintf(w, "workload          %s  (footprint %.1f MB)\n", r.Config.Workload, float64(r.FootprintBytes)/(1<<20))
	fmt.Fprintf(w, "instructions      %d\n", r.Instructions)
	fmt.Fprintf(w, "cycles            %d  (IPC %.3f)\n", r.Cycles, r.IPC())
	fmt.Fprintf(w, "L1 TLB            %v\n", &r.L1TLB)
	fmt.Fprintf(w, "L2 TLB            %v\n", &r.L2TLB)
	fmt.Fprintf(w, "page walks        %d  (%.2f /k-instr, mean %.0f cyc, p95 %d cyc)\n",
		r.Walks, r.WalksPKI(), r.WalkLatency.Mean(), r.WalkLatency.Percentile(0.95))
	if r.Batches > 0 {
		fmt.Fprintf(w, "walk batches      %d  (%.2f walks/batch, overlap speedup %.2fx)\n",
			r.Batches, float64(r.Walks)/float64(r.Batches), r.WalkOverlapSpeedup())
	}
	fmt.Fprintf(w, "MMU busy cycles   %d (%.1f%% of cycles)\n", r.MMUBusyCycles, 100*float64(r.MMUBusyCycles)/float64(r.Cycles))
	fmt.Fprintf(w, "MMU RPKI          %.2f\n", r.MMURPKI())
	fmt.Fprintf(w, "L2 MPKI           %.2f   L3 MPKI %.2f\n", r.L2MPKI(), r.L3MPKI())
	fmt.Fprintf(w, "faults (measure)  guest=%d host=%d\n", r.GuestFaults, r.HostFaults)
	fmt.Fprintf(w, "PT memory         guest=%.1f MB host=%.1f MB (%d entries)\n",
		float64(r.GuestPTBytes)/(1<<20), float64(r.HostPTBytes)/(1<<20), r.PTEntries)
	if st := r.NestedECPT; st != nil {
		fmt.Fprintf(w, "walk classes      guest[%s] host[%s]\n", st.GuestClasses, st.HostClasses)
		fmt.Fprintf(w, "parallel accesses step1=%.1f step2=%.1f step3=%.1f\n",
			st.Par1.Value(), st.Par2.Value(), st.Par3.Value())
		if st.STC.Total() > 0 {
			fmt.Fprintf(w, "STC               %v\n", &st.STC)
		}
	}
	if st := r.NativeECPT; st != nil {
		fmt.Fprintf(w, "walk classes      [%s]  parallel=%.1f\n", st.Classes, st.Par.Value())
	}
	if st := r.Hybrid; st != nil {
		fmt.Fprintf(w, "host walk classes [%s]  parallel=%.1f\n", st.HostClasses, st.HostPar.Value())
	}
}
