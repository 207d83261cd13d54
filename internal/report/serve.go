package report

import (
	"fmt"
	"io"
	"time"

	"nestedecpt/internal/serve"
)

// RenderServe prints one multi-VM service run: aggregate wall-clock
// throughput, per-VM fairness, walk-latency tail percentiles in
// simulated cycles, and the generation-churn counters. Output is a
// pure function of the Summary (slices are walked in index order, no
// wall-clock reads), so a deterministic run renders byte-identically.
func RenderServe(w io.Writer, s *serve.Summary) {
	fmt.Fprintf(w, "nestedserve       %d VMs x %s (scale 1/%d), %d workers, %d churn shards\n",
		s.VMs, s.Workload, s.Scale, s.Workers, s.Shards)
	fmt.Fprintf(w, "throughput        %.0f translations/sec (%d ops in %v)\n",
		s.TranslationsPerSec, s.TotalOps, s.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "fairness          %.4f (Jain's index over per-VM ops)\n", s.Fairness)
	if s.TotalOps > 0 {
		fmt.Fprintf(w, "walk latency      p50=%d p95=%d p99=%d cycles (mean %.1f)\n",
			s.P50, s.P95, s.P99, s.MeanLatency)
	}
	if min, max, spread := perVMSpread(s.PerVMOps); spread {
		fmt.Fprintf(w, "per-VM ops        min=%d max=%d over %d VMs\n", min, max, len(s.PerVMOps))
	}
	fmt.Fprintf(w, "generation churn  %d publishes, %d page ops, %d torn-walk retries\n",
		s.Publishes, s.ChurnOps, s.Retries)
	if s.ChurnOps > 0 {
		fmt.Fprintf(w, "copy-on-write     %d B copied, %.0f B per churn page op\n",
			s.COWBytes, float64(s.COWBytes)/float64(s.ChurnOps))
	}
	if s.ChurnProbes > 0 {
		fmt.Fprintf(w, "churn probes      %d walked, %d translated, %d faulted on unmapped pages\n",
			s.ChurnProbes, s.ChurnProbeHits, s.ChurnProbes-s.ChurnProbeHits)
	}
	fmt.Fprintf(w, "reclamation       %d generations pending after final collect\n", s.PendingReclaims)
}

// perVMSpread returns the min and max per-VM op counts; spread is
// false for an empty slice.
func perVMSpread(ops []uint64) (min, max uint64, spread bool) {
	if len(ops) == 0 {
		return 0, 0, false
	}
	min, max = ops[0], ops[0]
	for _, n := range ops[1:] {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	return min, max, true
}
