package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// verdicts of one workload x end-to-end metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians and quartiles, the relative difference and a verdict, and
// flags every sim_digest that changed for the same workload and seed.
// It reports whether anything regressed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	return compareRuns(w, a, b), nil
}

func compareRuns(w io.Writer, a, b []record) bool {
	regressed := false
	fmt.Fprintf(w, "%-18s %-22s %4s %12s %25s %4s %12s %25s %8s  %s\n",
		"workload", "metric", "n", "median A", "[q1, q3]", "n", "median B", "[q1, q3]", "diff", "verdict")
	for _, wl := range workloads {
		ra, rb := untracedOf(a, wl.name), untracedOf(b, wl.name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range endToEnd {
			va, vb := valuesOf(ra, m.Name), valuesOf(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			exact := wl.exact && strings.HasPrefix(m.Name, "sim_") && sameBySeed(ra, rb, m.Name)
			c := judge(m, va, vb, exact)
			if c.verdict == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(w, "%-18s %-22s %4d %12.6g [%11.6g,%11.6g] %4d %12.6g [%11.6g,%11.6g] %+7.2f%%  %s\n",
				wl.name, m.Name, len(va), c.medA, c.q1A, c.q3A, len(vb), c.medB, c.q1B, c.q3B, 100*c.diff, c.verdict+c.why)
		}
		for _, x := range ra {
			for _, y := range rb {
				if x.Seed == y.Seed && x.SimDigest != y.SimDigest {
					note := "simulated counters changed"
					if !wl.exact {
						note = "expected: this workload's counters depend on thread timing"
					}
					fmt.Fprintf(w, "%-18s sim_digest seed %d: %.12s -> %.12s (%s)\n", wl.name, x.Seed, x.SimDigest, y.SimDigest, note)
				}
			}
		}
		for _, r := range append(append([]record(nil), ra...), rb...) {
			if !r.Correct {
				fmt.Fprintf(w, "%-18s seed %d: %d of %d operations failed\n", wl.name, r.Seed, r.Failed, r.Attempted)
				regressed = true
			}
		}
	}
	return regressed
}

func untracedOf(recs []record, workload string) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == workload && r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out
}

func valuesOf(recs []record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// sameBySeed reports whether every seed present on both sides reads the
// same value everywhere, and at least one seed is shared.
func sameBySeed(a, b []record, metric string) bool {
	shared := false
	for _, x := range a {
		for _, y := range b {
			if x.Seed != y.Seed {
				continue
			}
			shared = true
			if x.Metrics[metric].Value != y.Metrics[metric].Value {
				return false
			}
		}
	}
	return shared
}

type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	// diff is B's median relative to A's, positive when B is worse.
	diff    float64
	verdict string
	why     string
}

// setupFloorS is the change in set-up time too small to call a
// regression whatever share of the median it is: several workloads set
// up in 20-60ms.
const setupFloorS = 0.05

// judge applies the benchmark's own rule: B regressed when its median
// is worse than A's by more than the metric's bound; where either
// side's quartile spread is wider than the bound the pair is
// unresolved, unless every run of B is better than every run of A (ok)
// or every run is worse and the medians differ by more than the bound
// (regressed). A metric that is exact for a seed and read the same on
// every shared seed is ok whatever its spread across seeds. setup_s is
// judged on its medians alone, and never regresses by less than
// setupFloorS.
func judge(m metric, a, b []float64, exact bool) comparison {
	var c comparison
	c.q1A, c.medA, c.q3A = quartiles(a)
	c.q1B, c.medB, c.q3B = quartiles(b)
	c.diff = (c.medB - c.medA) / c.medA
	if m.Better == "higher" {
		c.diff = -c.diff
	}
	if exact {
		c.verdict, c.why = verdictOK, " (identical on every shared seed)"
		return c
	}
	if m.Name == "setup_s" {
		c.verdict = verdictOK
		if c.diff > m.Bound && c.medB-c.medA >= setupFloorS {
			c.verdict = verdictRegressed
		}
		return c
	}
	spread := (c.q3A - c.q1A) / c.medA
	if s := (c.q3B - c.q1B) / c.medB; s > spread {
		spread = s
	}
	worse := func(x, y float64) bool { // x worse than y
		if m.Better == "higher" {
			return x < y
		}
		return x > y
	}
	allBetter, allWorse := true, true
	for _, y := range b {
		for _, x := range a {
			if !worse(x, y) {
				allBetter = false
			}
			if !worse(y, x) {
				allWorse = false
			}
		}
	}
	switch {
	case spread > m.Bound && allBetter:
		c.verdict, c.why = verdictOK, " (every B run better than every A run)"
	case spread > m.Bound && allWorse && c.diff > m.Bound:
		c.verdict, c.why = verdictRegressed, " (every B run worse than every A run)"
	case spread > m.Bound:
		c.verdict, c.why = verdictUnresolved, fmt.Sprintf(" (spread %.1f%% wider than the %.0f%% bound)", 100*spread, 100*m.Bound)
	case c.diff > m.Bound:
		c.verdict = verdictRegressed
	default:
		c.verdict = verdictOK
	}
	return c
}
