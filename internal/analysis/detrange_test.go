package analysis_test

import (
	"testing"

	"nestedecpt/internal/analysis"
	"nestedecpt/internal/analysis/analysistest"
)

func TestDetRange(t *testing.T) {
	analysistest.Run(t, analysis.DetRange, "testdata/src/detrangetest")
}

// TestDetRangeAppliesTo pins the analyzer's scope: every simulation
// package — the walkers and tables as much as the sweep engine that
// renders them — is in; only the commands, this suite, and the
// wall-clock serve engine are out.
func TestDetRangeAppliesTo(t *testing.T) {
	for _, path := range []string{
		"nestedecpt",
		"nestedecpt/internal/core",
		"nestedecpt/internal/ecpt",
		"nestedecpt/internal/cachesim",
		"nestedecpt/internal/sim",
		"nestedecpt/internal/report",
		"nestedecpt/internal/runner",
		"nestedecpt/internal/stats",
		"nestedecpt/internal/workload",
	} {
		if !analysis.DetRange.AppliesTo(path) {
			t.Errorf("DetRange must apply to %s", path)
		}
	}
	for _, path := range []string{
		"nestedecpt/cmd/nestedsim",
		"nestedecpt/internal/analysis",
		"nestedecpt/internal/analysis/analysistest",
		"nestedecpt/internal/serve",
	} {
		if analysis.DetRange.AppliesTo(path) {
			t.Errorf("DetRange must not apply to %s", path)
		}
	}
}
