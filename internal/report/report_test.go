package report

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"nestedecpt/internal/core"
	"nestedecpt/internal/sim"
)

func tinySettings() Settings {
	return Settings{Warmup: 2_000, Measure: 6_000, Scale: 16, Seed: 42, Apps: []string{"GUPS", "BC"}}
}

func TestTechLevels(t *testing.T) {
	if TechPlain.Techniques() != core.PlainTechniques() {
		t.Error("TechPlain wrong")
	}
	if TechAdvanced.Techniques() != core.AdvancedTechniques() {
		t.Error("TechAdvanced wrong")
	}
	if !TechSTC.Techniques().STC || TechSTC.Techniques().Step1PTECaching {
		t.Error("TechSTC not cumulative")
	}
	if s := TechStep1.Techniques(); !s.STC || !s.Step1PTECaching || s.Step3AdaptivePTE {
		t.Error("TechStep1 not cumulative")
	}
	for tl := TechPlain; tl < numTechLevels; tl++ {
		if tl.String() == "" {
			t.Errorf("level %d unnamed", tl)
		}
	}
}

func TestStaticTablesRender(t *testing.T) {
	var b bytes.Buffer
	Table1(&b)
	if !strings.Contains(b.String(), "Nested Hybrid") {
		t.Error("Table 1 incomplete")
	}
	b.Reset()
	Table2(&b, tinySettings())
	if !strings.Contains(b.String(), "STC") {
		t.Error("Table 2 missing STC row")
	}
	b.Reset()
	Table3(&b)
	if !strings.Contains(b.String(), "Nested ECPTs") {
		t.Error("Table 3 incomplete")
	}
	b.Reset()
	Table4(&b, tinySettings())
	out := b.String()
	if !strings.Contains(out, "GUPS") || !strings.Contains(out, "MUMmer") {
		t.Error("Table 4 incomplete")
	}
}

func TestFiguresRender(t *testing.T) {
	s := NewSuite(tinySettings())
	checks := []struct {
		name string
		f    func() error
		want string
	}{
		{"fig9", func() error { return s.Figure9(&strings.Builder{}) }, ""},
		{"fig10", func() error { return s.Figure10(&strings.Builder{}) }, ""},
	}
	for _, c := range checks {
		if err := c.f(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	var b bytes.Buffer
	if err := s.Figure9(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "GeoMean") {
		t.Error("Figure 9 missing geomean row")
	}
	b.Reset()
	if err := s.Figure13(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "RPKI") {
		t.Error("Figure 13 missing RPKI")
	}
	b.Reset()
	if err := s.Figure14(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Direct") {
		t.Error("Figure 14 missing classes")
	}
}

// TestSuiteCachesRuns checks a simulated run is memoized: run returns
// the cached result, and rendering the same figure again reuses it
// instead of simulating anew.
func TestSuiteCachesRuns(t *testing.T) {
	set := tinySettings()
	set.Apps = []string{"GUPS"}
	s := NewSuite(set)
	k := runKey{design: sim.DesignNestedRadix, app: "GUPS"}
	if err := s.Figure10(io.Discard); err != nil {
		t.Fatal(err)
	}
	first, err := s.run(k)
	if err != nil {
		t.Fatal(err)
	}
	cached := len(s.results)
	if err := s.Figure10(io.Discard); err != nil {
		t.Fatal(err)
	}
	second, err := s.run(k)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("re-rendering replaced the cached result")
	}
	if got := len(s.results); got != cached {
		t.Errorf("re-rendering grew the cache to %d runs, want %d", got, cached)
	}
}

func TestFigure11And12Render(t *testing.T) {
	set := tinySettings()
	set.Apps = []string{"MUMmer"}
	s := NewSuite(set)
	var b bytes.Buffer
	if err := s.Figure11(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "mean:") {
		t.Error("Figure 11 missing summary")
	}
	b.Reset()
	if err := s.Figure12(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "MUMmer") {
		t.Error("Figure 12 missing app row")
	}
}

func TestSectionsRender(t *testing.T) {
	s := NewSuite(tinySettings())
	var b bytes.Buffer
	if err := s.Section95(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "NE total") {
		t.Error("Section 9.5 incomplete")
	}
	b.Reset()
	if err := s.Section96(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, col := range []string{"Agile", "POM-TLB", "Flat", "NECPT"} {
		if !strings.Contains(out, col) {
			t.Errorf("Section 9.6 missing %s", col)
		}
	}
}

func TestSection94STCSweep(t *testing.T) {
	set := tinySettings()
	set.Apps = []string{"GUPS"}
	s := NewSuite(set)
	var b bytes.Buffer
	if err := s.Section94(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "10 entries") || !strings.Contains(out, "step1=") {
		t.Errorf("Section 9.4 incomplete:\n%s", out)
	}
}

func TestDefaultAndQuickSettings(t *testing.T) {
	d := DefaultSettings()
	if len(d.apps()) != 11 {
		t.Errorf("default apps = %d", len(d.apps()))
	}
	q := QuickSettings()
	if len(q.apps()) == 0 || q.Measure >= d.Measure {
		t.Error("quick settings not reduced")
	}
}
