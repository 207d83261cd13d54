package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// manifest is BENCHMARK.json's shape.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestManifestMatchesTables holds BENCHMARK.json to the tables the
// program reports from, and both to the manifest's limits.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if n := len(m.Workloads); n != len(workloads) || n < 2 || n > 8 {
		t.Fatalf("%d workloads in the manifest, %d in the program, want 2..8", n, len(workloads))
	}
	if n := len(m.EndToEnd); n != len(endToEnd) || n > 16 {
		t.Fatalf("%d end-to-end metrics in the manifest, %d in the program, want at most 16", n, len(endToEnd))
	}
	if n := len(m.PerLayer); n != len(perLayer) || n > 128 {
		t.Fatalf("%d per-layer metrics in the manifest, %d in the program, want at most 128", n, len(perLayer))
	}
	seen := map[string]bool{}
	once := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not made of [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range m.Workloads {
		once(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest has %q, program %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for i, e := range m.EndToEnd {
		once(e.Name)
		d := endToEnd[i]
		if e.Bound == nil || e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || *e.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: manifest %+v, program %+v", i, e, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, p := range m.PerLayer {
		once(p.Name)
		d := perLayer[i]
		if p.Name != d.Name || p.Unit != d.Unit || p.Better != d.Better {
			t.Errorf("per-layer metric %d: manifest %+v, program %+v", i, p, d)
		}
		if d.Moves == "" {
			t.Errorf("%s: no end-to-end metric and workload it should move", d.Name)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
}

// lastLine parses the result object a run prints last.
func lastLine(t *testing.T, out string) (correct bool, attempted, failed uint64, metrics map[string]metricValue) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   *bool                  `json:"correct"`
		Attempted *uint64                `json:"attempted"`
		Failed    *uint64                `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if res.Correct == nil || res.Attempted == nil || res.Failed == nil || res.Metrics == nil {
		t.Fatalf("result object lacks a key: %s", lines[len(lines)-1])
	}
	return *res.Correct, *res.Attempted, *res.Failed, res.Metrics
}

// TestEveryWorkloadEmitsEveryMetric runs both passes of every workload
// at a hundredth of the size and checks that each declared name is
// printed once, with a finite value, and that nothing failed.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spans := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		for _, pass := range []struct {
			name     string
			declared []metric
			run      func() *runResult
		}{
			{"untraced", endToEnd, func() *runResult { return runUntraced(w, &testSize, 42, 0) }},
			{"traced", perLayer, func() *runResult { return runTraced(w, &testSize, 42, spans) }},
		} {
			t.Run(w.name+"/"+pass.name, func(t *testing.T) {
				res := pass.run()
				var buf bytes.Buffer
				if err := res.emit(&buf, ""); err != nil {
					t.Fatal(err)
				}
				correct, attempted, failed, metrics := lastLine(t, buf.String())
				if !correct || failed != 0 || attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", correct, attempted, failed, buf.String())
				}
				if len(metrics) != len(pass.declared) {
					t.Errorf("%d metrics in the result, %d declared", len(metrics), len(pass.declared))
				}
				for _, d := range pass.declared {
					v, ok := metrics[d.Name]
					if !ok {
						t.Errorf("%s missing from the result", d.Name)
						continue
					}
					if v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s = %v %q, want a finite value in %q", d.Name, v.Value, v.Unit, d.Unit)
					}
					if pass.name == "untraced" && v.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", d.Name)
					}
					if n := strings.Count(buf.String(), "\n  "+d.Name+" "); n != 1 {
						t.Errorf("%s printed %d times, want once", d.Name, n)
					}
				}
				if pass.name == "traced" {
					if _, err := os.Stat(spans + "/" + w.name + ".spans.json"); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
			})
		}
	}
}

// TestOracleFires corrupts one expected frame and one walk result and
// expects both forms of the oracle check to count a failure.
func TestOracleFires(t *testing.T) {
	hm, err := newHotMachine(testSize.hotConfig(true, 42), testSize.hotPages)
	if err != nil {
		t.Fatal(err)
	}
	var clean check
	testSize.walkLoop(hm, &clean)
	if clean.failed != 0 || clean.attempted == 0 {
		t.Fatalf("untouched machine: %d of %d walks failed: %v", clean.failed, clean.attempted, clean.problems)
	}
	hm.want[3] ^= 1 << 21 // a different 2MB frame
	var c check
	testSize.walkLoop(hm, &c)
	if c.failed == 0 {
		t.Error("a wrong expected frame went unnoticed by the walk loop")
	}

	va := hm.vas[0]
	want, ok := oracle(hm.m, va)
	if !ok {
		t.Fatal("oracle cannot translate a resolved VA")
	}
	res, err := hm.m.Walker().Walk(1<<40, va)
	if err != nil {
		t.Fatal(err)
	}
	if !frameAgrees(res.Frame, res.Size, va, want) {
		t.Error("oracle rejects a correct walk")
	}
	if frameAgrees(res.Frame+1<<21, res.Size, va, want) {
		t.Error("oracle accepts a walk that landed on the wrong frame")
	}
}

// synthetic builds untraced records of one workload, one per value.
func synthetic(workload, metric string, values ...float64) []record {
	var recs []record
	for i, v := range values {
		recs = append(recs, record{
			Workload: workload, Seed: uint64(i + 1), Correct: true, Attempted: 1, SimDigest: "d",
			Metrics: map[string]metricValue{metric: {Value: v, Unit: "1/s"}},
		})
	}
	return recs
}

func TestCompareVerdicts(t *testing.T) {
	base := synthetic("serve_steady", "host_ops_per_s", 100, 101, 99, 100, 102)
	for _, tc := range []struct {
		name string
		b    []record
		want string
		fail bool
	}{
		{"within the bound", synthetic("serve_steady", "host_ops_per_s", 87, 88, 86, 87, 89), verdictOK, false},
		{"40% slower", synthetic("serve_steady", "host_ops_per_s", 60, 61, 59, 60, 62), verdictRegressed, true},
		{"spread wider than the bound", synthetic("serve_steady", "host_ops_per_s", 50, 100, 150, 75, 125), verdictUnresolved, false},
		{"wide but every run better", synthetic("serve_steady", "host_ops_per_s", 150, 200, 250, 180, 220), verdictOK, false},
	} {
		var buf bytes.Buffer
		regressed := compareRuns(&buf, base, tc.b)
		line := ""
		for _, l := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(l, "serve_steady") && strings.Contains(l, "host_ops_per_s") {
				line = l
			}
		}
		if !strings.Contains(line, "  "+tc.want) || regressed != tc.fail {
			t.Errorf("%s: want verdict %q (regressed=%v), got regressed=%v and\n%s", tc.name, tc.want, tc.fail, regressed, buf.String())
		}
	}

	// Exact metrics: identical per seed is ok however far the seeds
	// spread; one changed value on a shared seed is judged like any
	// other metric, and the changed digest is flagged.
	exactA := synthetic("sim_gups_4k", "sim_cycles_per_op", 300, 340, 380)
	var buf bytes.Buffer
	if compareRuns(&buf, exactA, synthetic("sim_gups_4k", "sim_cycles_per_op", 300, 340, 380)) ||
		!strings.Contains(buf.String(), "identical on every shared seed") {
		t.Errorf("identical exact metric not recognised:\n%s", buf.String())
	}
	changed := synthetic("sim_gups_4k", "sim_cycles_per_op", 400, 440, 480)
	changed[0].SimDigest = "e"
	buf.Reset()
	if !compareRuns(&buf, exactA, changed) || !strings.Contains(buf.String(), "simulated counters changed") {
		t.Errorf("changed exact metric and digest not flagged:\n%s", buf.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}
