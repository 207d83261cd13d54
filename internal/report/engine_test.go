package report

// Regression tests for the sweep engine's core guarantee: report
// output, simulation results and failure behaviour are a pure function
// of the settings, never of the parallelism level or scheduling order.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"nestedecpt/internal/memsim"
	"nestedecpt/internal/runner"
	"nestedecpt/internal/sim"
)

// render produces Figure 10 (a design × app sweep with shared runs)
// at the given parallelism and returns the bytes and the suite.
func renderFig10(t *testing.T, parallelism int) ([]byte, *Suite) {
	t.Helper()
	set := tinySettings()
	set.Parallelism = parallelism
	s := NewSuite(set)
	var buf bytes.Buffer
	if err := s.Figure10(&buf); err != nil {
		t.Fatalf("parallelism %d: %v", parallelism, err)
	}
	return buf.Bytes(), s
}

func TestParallelEngineByteIdentical(t *testing.T) {
	sequential, seqSuite := renderFig10(t, 1)
	if len(sequential) == 0 {
		t.Fatal("sequential render produced no output")
	}
	for _, p := range []int{2, 8} {
		parallel, parSuite := renderFig10(t, p)
		if !bytes.Equal(sequential, parallel) {
			t.Errorf("parallelism %d output differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				p, sequential, parallel)
		}
		// Beyond the rendered bytes, the memoized Result structs must
		// match field for field: every run derives its randomness from
		// its own identity, not from sweep scheduling.
		if len(parSuite.results) != len(seqSuite.results) {
			t.Fatalf("parallelism %d cached %d runs, sequential cached %d",
				p, len(parSuite.results), len(seqSuite.results))
		}
		for k, seq := range seqSuite.results {
			par, ok := parSuite.results[k]
			if !ok {
				t.Fatalf("parallelism %d: run %v missing from cache", p, k)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("parallelism %d: run %v result differs from sequential", p, k)
			}
		}
	}
}

// TestPlanMatchesRender checks the plan/prefetch/render contract:
// planning enumerates exactly the runs rendering performs (no more,
// no fewer), and planning itself simulates nothing.
func TestPlanMatchesRender(t *testing.T) {
	set := tinySettings()
	set.Parallelism = 4
	s := NewSuite(set)

	planned := s.plan(s.figure10)
	if len(planned) == 0 {
		t.Fatal("plan enumerated no runs")
	}
	if len(s.results) != 0 {
		t.Fatalf("planning cached %d results; it must not simulate", len(s.results))
	}
	seen := make(map[runKey]bool, len(planned))
	for _, k := range planned {
		if seen[k] {
			t.Fatalf("plan repeated run %v", k)
		}
		seen[k] = true
	}

	if err := s.Figure10(io.Discard); err != nil {
		t.Fatal(err)
	}
	if len(s.results) != len(planned) {
		t.Fatalf("render cached %d runs, plan predicted %d", len(s.results), len(planned))
	}
	for _, k := range planned {
		if _, ok := s.results[k]; !ok {
			t.Fatalf("planned run %v was never simulated", k)
		}
	}
}

// TestPlannedSuiteReusesCache checks a second figure rendered on the
// same suite only simulates runs the first figure did not already
// simulate, and rendering a figure again simulates nothing.
func TestPlannedSuiteReusesCache(t *testing.T) {
	set := tinySettings()
	set.Parallelism = 4
	s := NewSuite(set)
	if err := s.Figure10(io.Discard); err != nil {
		t.Fatal(err)
	}
	cached := len(s.results)
	planned := s.plan(s.figure9)
	for _, k := range planned {
		if _, ok := s.results[k]; ok {
			t.Fatalf("plan re-requested cached run %v", k)
		}
	}
	if err := s.Figure9(io.Discard); err != nil {
		t.Fatal(err)
	}
	cached += len(planned)
	if got := len(s.results); got != cached {
		t.Fatalf("second figure grew the cache to %d runs, want %d", got, cached)
	}

	if again := s.plan(s.figure9); len(again) != 0 {
		t.Fatalf("re-rendering Figure 9 planned %d runs, want 0", len(again))
	}
	if err := s.Figure9(io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := len(s.results); got != cached {
		t.Fatalf("re-rendering Figure 9 grew the cache to %d runs, want %d", got, cached)
	}
	if _, err := s.run(runKey{design: sim.DesignNestedECPT, app: "GUPS", stc: 3}); err == nil {
		t.Fatal("an unplanned run outside planning returned no error")
	}
}

// TestSweepSameAtEveryWidth checks width 1 is the same engine as any
// other width: a per-run timeout fails the render with an error naming
// the run, progress comes from the runner, one line per planned run,
// and a shared set-up that cannot be built fails every run sharing it —
// with an error, not a hang or a nil dereference — and no other run.
func TestSweepSameAtEveryWidth(t *testing.T) {
	progressLine := regexp.MustCompile(`^# sweep (\d+)/(\d+) (done|FAIL) (.+?) +\d+\.\d+s elapsed +\d+\.\ds eta +\d+\.\ds$`)
	// progressStatus parses progress into run name → done/FAIL, one
	// line per planned run.
	progressStatus := func(t *testing.T, planned []runKey, progress string) map[string]string {
		t.Helper()
		lines := strings.Split(strings.TrimSuffix(progress, "\n"), "\n")
		if len(lines) != len(planned) {
			t.Fatalf("%d progress lines for %d planned runs:\n%s", len(lines), len(planned), progress)
		}
		names := make(map[string]bool, len(planned))
		for _, k := range planned {
			names[k.String()] = true
		}
		status := make(map[string]string, len(planned))
		for _, line := range lines {
			m := progressLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("progress line %q is not the runner's sweep form", line)
			}
			if m[2] != strconv.Itoa(len(planned)) || !names[m[4]] {
				t.Fatalf("progress line %q: want a line of %d naming a planned run", line, len(planned))
			}
			delete(names, m[4])
			status[m[4]] = m[3]
		}
		return status
	}
	// brokenSetup marks the runs whose set-up the set-up-failure case
	// breaks: Figure 9's five Nested ECPT 4KB runs, which share one.
	brokenSetup := func(k runKey) bool { return k.design == sim.DesignNestedECPT && !k.thp }
	type sweepCase struct {
		name    string
		timeout time.Duration
		// fig selects the figure whose plan the case sweeps; tweak, when
		// set, edits the planned configs and sweeps them with Simulate.
		fig   func(*Suite, io.Writer) error
		tweak func(runKey, *sim.Config)
		check func(t *testing.T, planned []runKey, err error, progress string)
	}
	// setupFailure is the case whose guests get guestMem bytes in the
	// runs brokenSetup marks.
	setupFailure := func(name string, guestMem uint64, purpose memsim.Purpose) sweepCase {
		return sweepCase{name, 0, (*Suite).figure9, func(k runKey, cfg *sim.Config) {
			if brokenSetup(k) {
				cfg.GuestMemBytes = guestMem
			}
		}, func(t *testing.T, planned []runKey, err error, progress string) {
			if err == nil {
				t.Fatal("a sweep over a set-up that cannot be built succeeded")
			}
			var first runKey
			for _, k := range planned {
				if brokenSetup(k) {
					first = k
					break
				}
			}
			if !strings.Contains(err.Error(), first.String()) || !strings.Contains(err.Error(), "set-up") {
				t.Fatalf("err = %v, want it to name the run %q and its set-up", err, first)
			}
			var pe *runner.PanicError
			if errors.As(err, &pe) {
				t.Fatalf("err = %v is a panic, want the set-up's error", err)
			}
			var oom *memsim.OutOfMemoryError
			if !errors.As(err, &oom) || oom.Purpose != purpose {
				t.Fatalf("err = %v, want a %s *memsim.OutOfMemoryError", err, purpose)
			}
			status := progressStatus(t, planned, progress)
			for _, k := range planned {
				want := "done"
				if brokenSetup(k) {
					want = "FAIL"
				}
				if got := status[k.String()]; got != want {
					t.Fatalf("run %v: %s, want %s", k, got, want)
				}
			}
		}}
	}
	cases := []sweepCase{
		{"run-timeout", time.Nanosecond, (*Suite).figure10, nil, func(t *testing.T, planned []runKey, err error, _ string) {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if name := planned[0].String(); !strings.Contains(err.Error(), name) {
				t.Fatalf("err = %v, want it to name the first run %q", err, name)
			}
		}},
		{"progress", 0, (*Suite).figure10, nil, func(t *testing.T, planned []runKey, err error, progress string) {
			if err != nil {
				t.Fatal(err)
			}
			for name, status := range progressStatus(t, planned, progress) {
				if status != "done" {
					t.Fatalf("run %s: %s, want done", name, status)
				}
			}
		}},
		// A guest too small for the data: pre-populating the shared
		// set-up returns an error, once a mapping's CWT pages no
		// longer fit.
		setupFailure("setup-error", 1<<20, memsim.PurposeCWT),
		// A guest too small for its own page tables: building the
		// shared set-up returns out-of-memory.
		setupFailure("setup-panic", 64<<10, memsim.PurposePageTable),
	}
	for _, c := range cases {
		for _, width := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/width%d", c.name, width), func(t *testing.T) {
				set := tinySettings()
				set.Apps = []string{"GUPS"}
				set.Parallelism = width
				set.RunTimeout = c.timeout
				var progress bytes.Buffer
				set.Progress = &progress
				s := NewSuite(set)
				fig := func(w io.Writer) error { return c.fig(s, w) }
				planned := s.plan(fig)
				var err error
				if c.tweak == nil {
					err = s.sweep(io.Discard, fig)
				} else {
					names := make([]string, len(planned))
					cfgs := make([]sim.Config, len(planned))
					for i, k := range planned {
						names[i], cfgs[i] = k.String(), s.config(k)
						c.tweak(k, &cfgs[i])
					}
					_, _, err = Simulate(context.Background(), names, cfgs, false, runner.Options{
						Parallelism: width, Progress: &progress, Label: "sweep",
					})
				}
				c.check(t, planned, err, progress.String())
			})
		}
	}
}
