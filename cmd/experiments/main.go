// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments                  # everything, full settings
//	experiments -exp fig9        # one experiment
//	experiments -quick           # reduced workloads and run length
//	experiments -apps GUPS,BC    # subset of applications
//	experiments -parallel 8      # sweep 8 simulations concurrently
//	experiments -seed 7          # another workload seed (default 42)
//
// The sweep fans the design × workload × configuration matrix out
// over -parallel worker goroutines (default: GOMAXPROCS). Report
// output is byte-identical at every -parallel value; only wall-clock
// time changes. Interrupting (SIGINT/SIGTERM) cancels in-flight
// simulations cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"nestedecpt/internal/profiling"
	"nestedecpt/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	exp := flag.String("exp", "all", "experiment: all, table1..table4, fig9..fig14, stc (sec 9.4), memory (sec 9.5), others (sec 9.6)")
	quick := flag.Bool("quick", false, "reduced apps and run length")
	apps := flag.String("apps", "", "comma-separated application subset")
	warmup := flag.Uint64("warmup", 0, "override warm-up accesses")
	measure := flag.Uint64("measure", 0, "override measured accesses")
	scale := flag.Uint64("scale", 0, "override footprint scale divisor")
	seed := flag.Uint64("seed", 42, "workload seed; every run's kernel and hypervisor seeds derive from it")
	batch := flag.Int("batch", 0, "accesses per pipeline step; >1 batches page walks through the MSHR overlap model")
	mshrs := flag.Int("mshrs", 0, "in-flight walker probes per batched stage (0 = default, 1 = serialized)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulations (0 = GOMAXPROCS)")
	runTimeout := flag.Duration("run-timeout", 0, "per-simulation timeout (0 = none), e.g. 10m")
	verbose := flag.Bool("v", false, "print per-run progress and ETA")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write a JSONL walk trace of every run's measured phase to this file")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}

	settings := report.DefaultSettings()
	if *quick {
		settings = report.QuickSettings()
	}
	if *apps != "" {
		settings.Apps = strings.Split(*apps, ",")
	}
	if *warmup > 0 {
		settings.Warmup = *warmup
	}
	if *measure > 0 {
		settings.Measure = *measure
	}
	if *scale > 0 {
		settings.Scale = *scale
	}
	if *verbose {
		settings.Progress = os.Stderr
	}
	settings.Seed = *seed
	settings.BatchSize = *batch
	settings.BatchMSHRs = *mshrs
	settings.Parallelism = *parallel
	settings.RunTimeout = *runTimeout
	settings.Trace = *tracePath != ""

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	suite := report.NewSuite(settings).WithContext(ctx)
	w := os.Stdout
	start := time.Now()

	switch *exp {
	case "all":
		err = suite.All(w)
	case "table1":
		report.Table1(w)
	case "table2":
		report.Table2(w, settings)
	case "table3":
		report.Table3(w)
	case "table4":
		report.Table4(w, settings)
	case "fig9":
		err = suite.Figure9(w)
	case "fig10":
		err = suite.Figure10(w)
	case "fig11":
		err = suite.Figure11(w)
	case "fig12":
		err = suite.Figure12(w)
	case "fig13":
		err = suite.Figure13(w)
	case "fig14":
		err = suite.Figure14(w)
	case "stc":
		err = suite.Section94(w)
	case "memory":
		err = suite.Section95(w)
	case "others":
		err = suite.Section96(w)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		stopProf()
		os.Exit(2)
	}
	// Flush profiles before any fatal exit so an interrupted or failed
	// sweep still yields a readable CPU profile.
	if perr := stopProf(); perr != nil {
		log.Print(perr)
	}
	if err != nil && err != io.EOF {
		log.Fatal(err)
	}
	if *tracePath != "" {
		f, ferr := os.Create(*tracePath)
		if ferr != nil {
			log.Fatal(ferr)
		}
		if werr := report.WriteTraces(f, suite.Traces()); werr != nil {
			f.Close()
			log.Fatal(werr)
		}
		if cerr := f.Close(); cerr != nil {
			log.Fatal(cerr)
		}
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "# total wall clock %.1fs at -parallel %d\n",
			time.Since(start).Seconds(), *parallel)
	}
}
