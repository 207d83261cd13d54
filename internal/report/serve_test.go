package report

import (
	"strings"
	"testing"
	"time"

	"nestedecpt/internal/serve"
)

// TestRenderServe feeds a fixed Summary and checks the rendering is
// byte-stable and carries every headline number.
func TestRenderServe(t *testing.T) {
	s := &serve.Summary{
		Workload:           "GUPS",
		VMs:                48,
		Workers:            8,
		Scale:              1024,
		Shards:             4,
		Elapsed:            2 * time.Second,
		TotalOps:           2_400_000,
		TranslationsPerSec: 1_200_000,
		PerVMOps:           []uint64{50_000, 50_001, 49_999},
		Fairness:           0.9999,
		P50:                140,
		P95:                320,
		P99:                480,
		MeanLatency:        171.5,
		Retries:            3,
		Publishes:          920,
		ChurnOps:           14_720,
		COWBytes:           9_891_840,
		ChurnProbes:        600,
		ChurnProbeHits:     410,
		PendingReclaims:    0,
	}
	var a, b strings.Builder
	RenderServe(&a, s)
	RenderServe(&b, s)
	if a.String() != b.String() {
		t.Fatal("RenderServe is not deterministic for a fixed Summary")
	}
	out := a.String()
	for _, want := range []string{
		"48 VMs x GUPS (scale 1/1024), 8 workers, 4 churn shards",
		"1200000 translations/sec",
		"0.9999",
		"p50=140 p95=320 p99=480",
		"min=49999 max=50001 over 3 VMs",
		"920 publishes, 14720 page ops, 3 torn-walk retries",
		"copy-on-write     9891840 B copied, 672 B per churn page op",
		"600 walked, 410 translated, 190 faulted",
		"0 generations pending",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRenderServeEmpty checks an idle run renders without the latency
// or per-VM lines rather than printing nonsense.
func TestRenderServeEmpty(t *testing.T) {
	var sb strings.Builder
	RenderServe(&sb, &serve.Summary{Workload: "GUPS", Scale: 1024})
	out := sb.String()
	if strings.Contains(out, "walk latency") || strings.Contains(out, "min=") ||
		strings.Contains(out, "churn probes") || strings.Contains(out, "copy-on-write") {
		t.Errorf("empty summary rendered data lines:\n%s", out)
	}
}
