package core

import (
	"nestedecpt/internal/addr"
	"nestedecpt/internal/cachesim"
	"nestedecpt/internal/kernel"
	"nestedecpt/internal/mmucache"
	"nestedecpt/internal/stats"
	"nestedecpt/internal/trace"
	"nestedecpt/internal/vhash"
)

// NativeECPTConfig configures the native (non-virtualized) ECPT walker
// of Skarlatos et al. — the paper's ECPTs / ECPTs THP baselines.
type NativeECPTConfig struct {
	// CWC sizes the single cuckoo walk cache. The native design caches
	// PUD- and PMD-CWT entries but no PTE-CWT (§4.2's history).
	CWC CWCConfig
}

// DefaultNativeECPTConfig mirrors the guest-side sizes of Table 2.
func DefaultNativeECPTConfig() NativeECPTConfig {
	return NativeECPTConfig{CWC: CWCConfig{PMD: 16, PUD: 2}}
}

// NativeECPTStats aggregates native walker measurements.
type NativeECPTStats struct {
	Walks   uint64
	Classes *stats.Distribution
	Par     stats.Average
}

// NativeECPT walks a single ECPT set whose table addresses are real
// physical addresses: one parallel step per translation.
type NativeECPT struct {
	// guestECPT is the whole table side of the walk (the kernel's set,
	// the single CWC, plan and candidate scratch) and carries the trace
	// recorder. The kernel's addresses are guest-physical; in the native
	// design they are also the machine's physical addresses, so probe PAs
	// cross into HPA via addr.IdentityHPA at the memory boundary.
	guestECPT
	cfg NativeECPTConfig
	mem MemSystem
	st  NativeECPTStats
	// probes is the walk's parallel access group, reused across walks to
	// keep the hot path allocation-free.
	probes []addr.HPA

	// stageLat captures the walk's single AccessParallel group latency
	// — the memory stage WalkBatch overlaps across lanes.
	stageLat [1]uint64

	// BatchState provides SetBatchMSHRs and the batch scratch.
	BatchState
}

// NewNativeECPT builds the walker over the kernel's ECPT set.
func NewNativeECPT(cfg NativeECPTConfig, mem MemSystem, kern *kernel.Kernel) *NativeECPT {
	if kern.ECPTs() == nil {
		panic("core: NativeECPT requires kernel ECPTs")
	}
	return &NativeECPT{
		guestECPT: guestECPT{
			tracer: tracer{kind: trace.WalkerNativeECPT},
			set:    kern.ECPTs(),
			cwc:    NewCWC("CWC", cfg.CWC),
		},
		cfg: cfg,
		mem: mem,
		st:  NativeECPTStats{Classes: stats.NewDistribution()},
	}
}

// Name implements Walker.
func (w *NativeECPT) Name() string { return "ECPTs" }

// Stats returns a snapshot of the walker statistics.
func (w *NativeECPT) Stats() NativeECPTStats { return w.st }

// CWC exposes the cuckoo walk cache.
func (w *NativeECPT) CWC() *CWC { return w.cwc }

// SetRecorder attaches a trace recorder to the walker and its walk
// cache. A nil recorder disables tracing.
func (w *NativeECPT) SetRecorder(r *trace.Recorder) {
	w.rec = r
	w.cwc.SetTrace(r, trace.CacheCWC, trace.WalkerNativeECPT)
}

// ResetStats clears measurement state at the end of warm-up.
func (w *NativeECPT) ResetStats() {
	w.st = NativeECPTStats{Classes: stats.NewDistribution()}
	w.cwc.ResetStats()
}

// Walk implements Walker: one CWC consult, then one parallel group of
// ECPT probes.
//
//nestedlint:hotpath
func (w *NativeECPT) Walk(now uint64, va addr.GVA) (WalkResult, error) {
	var res WalkResult
	err := w.walkInto(now, va, &res)
	return res, err
}

// WalkBatch implements Walker: the batch latency overlaps each lane's
// ECPT probe group (see stagedWalkBatch).
//
//nestedlint:hotpath
func (w *NativeECPT) WalkBatch(now uint64, gvas []addr.GVA, out []WalkResult, errs []error) uint64 {
	return stagedWalkBatch(w, &w.BatchState, &w.tracer, now, gvas, out, errs)
}

// stages implements stagedLane.
//
//nestedlint:hotpath
func (w *NativeECPT) stages() []uint64 { return w.stageLat[:] }

// walkInto is the walk lane shared by Walk and WalkBatch: one full
// translation into *res (overwriting it), recording the probe-group
// latency in w.stageLat.
//
//nestedlint:hotpath
func (w *NativeECPT) walkInto(now uint64, va addr.GVA, res *WalkResult) error {
	*res = WalkResult{}
	w.stageLat[0] = 0
	w.st.Walks++

	w.walkBegin(now, va)
	w.stepBegin(now, 1, trace.SpaceGuest, va, 0)
	planWalk(w.set, w.cwc, va, addr.Page1G, true, &w.plan)
	lat := uint64(mmucache.LatencyRT + vhash.LatencyCycles)
	if w.plan.fault {
		w.fault(now+lat, trace.SpaceGuest, va, 0)
		return &ErrNotMapped{Space: "guest", GVA: va}
	}
	w.st.Classes.Observe(w.plan.class.String())
	// A native CWT refill is a plain physical fetch.
	if r := w.plan.refill; r.pa != 0 {
		if w.rec != nil {
			w.rec.Emit(trace.Event{
				Now: now + lat, Kind: trace.KindRefill, Walker: trace.WalkerNativeECPT,
				Space: trace.SpaceGuest, Size: r.size, Way: trace.WayNone,
				GPA: r.pa, Aux: r.key, Flag: true,
			})
		}
		rlat, _ := w.mem.Access(now+lat, addr.IdentityHPA(r.pa), cachesim.SourceMMU)
		res.BackgroundCycles += rlat
		res.BackgroundAccesses++
		w.cwc.Insert(r.size, r.key)
	}

	w.expand(now+lat, va)
	w.probes = w.probes[:0]
	var frame addr.GPA
	found := false
	for _, c := range w.cand {
		w.probes = append(w.probes, addr.IdentityHPA(c.probe.PA))
		if c.probe.Match {
			frame, res.Size, found = c.probe.Frame, c.size, true
		}
	}
	w.stageLat[0] = w.mem.AccessParallel(now+lat, w.probes, cachesim.SourceMMU)
	lat += w.stageLat[0]
	res.Accesses += len(w.probes)
	res.Parallel1 = len(w.probes)
	w.st.Par.Observe(uint64(len(w.probes)))
	if !found {
		w.fault(now+lat, trace.SpaceGuest, va, 0)
		return &ErrNotMapped{Space: "guest", GVA: va}
	}

	res.Frame = addr.IdentityHPA(frame)
	res.Latency = lat
	w.walkEnd(now+lat, trace.SpaceGuest, va, res)
	return nil
}
