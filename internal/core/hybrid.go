package core

import (
	"nestedecpt/internal/addr"
	"nestedecpt/internal/cachesim"
	"nestedecpt/internal/hypervisor"
	"nestedecpt/internal/kernel"
	"nestedecpt/internal/mmucache"
	"nestedecpt/internal/stats"
	"nestedecpt/internal/trace"
	"nestedecpt/internal/vhash"
)

// HybridConfig configures the §6 migration design: legacy radix page
// tables in the guest, ECPTs in the host.
type HybridConfig struct {
	// PWCEntriesPerLevel sizes the guest page walk cache (Table 2
	// hybrid row: 16 entries).
	PWCEntriesPerLevel int
	// NTLBEntries sizes the nested TLB (24 entries).
	NTLBEntries int
	// HostCWC sizes the host cuckoo walk cache
	// ("16PTE(Rows 1-3)+16PMD+2PUD").
	HostCWC CWCConfig
	// PTERows is the number of walk rows (1 = gL4 ... 5 = data) whose
	// host translations consult the PTE-hCWT class; §6 observes that
	// PTE-CWT locality decays down the walk and uses it in rows 1–3.
	PTERows int
}

// DefaultHybridConfig returns the Table 2 hybrid parameters.
func DefaultHybridConfig() HybridConfig {
	return HybridConfig{
		PWCEntriesPerLevel: 16,
		NTLBEntries:        24,
		HostCWC:            CWCConfig{PTE: 16, PMD: 16, PUD: 2},
		PTERows:            3,
	}
}

// HybridStats aggregates hybrid walker measurements.
type HybridStats struct {
	Walks       uint64
	HostClasses *stats.Distribution
	HostPar     stats.Average
}

// Hybrid is the §6 migration walker: a guest radix walk whose host
// translations each use one parallel ECPT step instead of four
// sequential radix levels — Figure 8's nine sequential steps in the
// worst case (4 × (host step + guest read) + final host step).
type Hybrid struct {
	*RadixWalker
	host *hybridHost
}

// hybridHost is the Hybrid design's host dimension: one host-ECPT
// probe step per gPA, guarded by a single hCWC whose PTE class is only
// consulted in the upper rows.
type hybridHost struct {
	hostECPT
	hcwc *CWC
	// pteRows is HybridConfig.PTERows.
	pteRows     int
	hostClasses *stats.Distribution
	hostPar     stats.Average
	// scratch, reused across walks to keep the hot path allocation-free.
	paBuf []addr.HPA
	plan  probePlan[addr.HPA]
}

// NewHybrid builds the walker over the guest radix table and host
// ECPTs.
func NewHybrid(cfg HybridConfig, mem MemSystem, guest *kernel.Kernel, host *hypervisor.Hypervisor) *Hybrid {
	if host.ECPTs() == nil {
		panic("core: Hybrid requires host ECPTs")
	}
	h := &hybridHost{
		hostECPT:    hostECPT{mem: mem, set: host.ECPTs()},
		hcwc:        NewCWC("hCWC", cfg.HostCWC),
		pteRows:     cfg.PTERows,
		hostClasses: stats.NewDistribution(),
	}
	w := NewRadixWalker("Nested Hybrid", cfg.PWCEntriesPerLevel, cfg.NTLBEntries, mem, guest, h)
	w.kind, w.stepByLevel = trace.WalkerHybrid, true
	return &Hybrid{RadixWalker: w, host: h}
}

// Stats returns a snapshot of the walker statistics.
func (w *Hybrid) Stats() HybridStats {
	return HybridStats{Walks: w.walks, HostClasses: w.host.hostClasses, HostPar: w.host.hostPar}
}

// ResetStats clears measurement state at the end of warm-up.
func (w *Hybrid) ResetStats() {
	w.walks = 0
	w.host.hostClasses = stats.NewDistribution()
	w.host.hostPar = stats.Average{}
	w.host.hcwc.ResetStats()
}

func (h *hybridHost) setRecorder(r *trace.Recorder, kind trace.WalkerKind) {
	h.tracer = tracer{rec: r, kind: kind}
	h.hcwc.SetTrace(r, trace.CacheHCWC, kind)
}

// Translate implements HostDim: one Step-3-style host ECPT translation
// of gpa (the replacement for each hL4..hL1 row of Figure 8). row
// selects the per-row PTE-hCWT policy.
//
//nestedlint:hotpath
func (h *hybridHost) Translate(now uint64, gpa addr.GPA, row int, res *WalkResult) (hpa addr.HPA, size addr.PageSize, lat uint64, err error) {
	planWalk(h.set, h.hcwc, gpa, addr.Page1G, row <= h.pteRows, &h.plan)
	lat = mmucache.LatencyRT + vhash.LatencyCycles
	if h.plan.fault {
		return 0, 0, lat, &ErrNotMapped{Space: "host", GPA: gpa}
	}
	h.hostClasses.Observe(h.plan.class.String())
	var found bool
	h.paBuf, hpa, size, found = h.probe(now+lat, gpa, &h.plan, h.hcwc, uint8(row), false, h.paBuf[:0], res)
	lat += h.mem.AccessParallel(now+lat, h.paBuf, cachesim.SourceMMU)
	res.Accesses += len(h.paBuf)
	h.hostPar.Observe(uint64(len(h.paBuf)))
	if !found {
		return 0, 0, lat, &ErrNotMapped{Space: "host", GPA: gpa}
	}
	return hpa, size, lat, nil
}
