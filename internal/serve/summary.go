package serve

import (
	"time"

	"nestedecpt/internal/runner"
	"nestedecpt/internal/stats"
)

// Summary aggregates one service run: aggregate throughput in wall
// clock, per-VM fairness, and walk-latency percentiles in simulated
// core cycles.
type Summary struct {
	// Workload / VMs / Workers / Scale / Shards echo the configuration
	// (Shards is the effective writer-shard count after clamping).
	Workload string
	VMs      int
	Workers  int
	Scale    uint64
	Shards   int

	// Elapsed is the wall-clock worker-pool runtime.
	Elapsed time.Duration
	// TotalOps is the aggregate completed translations.
	TotalOps uint64
	// TranslationsPerSec is TotalOps over Elapsed.
	TranslationsPerSec float64

	// PerVMOps is each guest's completed translations, across workers.
	PerVMOps []uint64
	// Fairness is Jain's index over PerVMOps: 1 is perfectly fair,
	// 1/VMs is one guest monopolizing the pool.
	Fairness float64

	// Latency is the merged walk-latency distribution in simulated
	// cycles; P50/P95/P99 are its tail percentiles and MeanLatency its
	// average.
	Latency     *stats.Histogram
	P50         uint64
	P95         uint64
	P99         uint64
	MeanLatency float64

	// Retries counts walks that observed a torn snapshot pair and
	// re-ran; each retried walk still completes within the retry bound.
	Retries uint64

	// Publishes is how many churn rounds published new generations;
	// ChurnOps how many page map/unmap operations drove them.
	Publishes uint64
	ChurnOps  uint64
	// COWBytes is the host bytes copy-on-write copied to stage those
	// generations (table pages, page directories, CWT pages), summed
	// over the host set and every guest set.
	COWBytes uint64
	// ChurnProbes is how many churn-lane audit probes the workers ran
	// (Config.ProbeEvery); ChurnProbeHits how many of them translated
	// successfully (the rest faulted on already-unmapped pages — the
	// expected outcome the audit checks for staleness).
	ChurnProbes    uint64
	ChurnProbeHits uint64
	// PendingReclaims is how many retired generations still awaited
	// their grace period after the final collect, summed over the host
	// and every guest epoch domain — 0 means every dead generation was
	// reclaimed.
	PendingReclaims int
}

// summarize merges the workers' measurements.
func (e *engine) summarize(results []runner.Result[*workerResult], elapsed time.Duration) *Summary {
	s := &Summary{
		Workload:  e.cfg.Workload,
		VMs:       e.cfg.VMs,
		Workers:   len(results),
		Scale:     e.cfg.Scale,
		Shards:    e.shards,
		Elapsed:   elapsed,
		PerVMOps:  make([]uint64, e.cfg.VMs),
		Latency:   stats.NewHistogram(20),
		Publishes: e.publishes.Load(),
		ChurnOps:  e.churnOps.Load(),
	}
	for _, r := range results {
		w := r.Value
		for vm, n := range w.ops {
			s.PerVMOps[vm] += n
			s.TotalOps += n
		}
		s.Retries += w.retries
		s.ChurnProbes += w.probes
		s.ChurnProbeHits += w.probeHits
		s.Latency.Merge(w.latency)
	}
	if elapsed > 0 {
		s.TranslationsPerSec = float64(s.TotalOps) / elapsed.Seconds()
	}
	s.Fairness = jain(s.PerVMOps)
	s.P50 = s.Latency.Percentile(0.50)
	s.P95 = s.Latency.Percentile(0.95)
	s.P99 = s.Latency.Percentile(0.99)
	s.MeanLatency = s.Latency.Mean()
	s.COWBytes = e.hyp.ECPTs().COWBytes()
	for _, k := range e.kerns {
		s.COWBytes += k.ECPTs().COWBytes()
	}
	s.PendingReclaims = e.hostDom.Pending()
	for _, dom := range e.vmDoms {
		s.PendingReclaims += dom.Pending()
	}
	return s
}

// jain computes Jain's fairness index over per-VM op counts.
func jain(xs []uint64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		f := float64(x)
		sum += f
		sq += f * f
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}
