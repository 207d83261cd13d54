package core

import (
	"math"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/cachesim"
	"nestedecpt/internal/hypervisor"
	"nestedecpt/internal/kernel"
	"nestedecpt/internal/mmucache"
	"nestedecpt/internal/stats"
	"nestedecpt/internal/trace"
	"nestedecpt/internal/vhash"
)

// Techniques selects which of the Advanced design's §4 techniques are
// active. All false reproduces the Plain Nested ECPT design of §3;
// all true is the Advanced design the paper calls simply Nested ECPTs.
type Techniques struct {
	// STC adds the Shortcut Translation Cache for gCWT refills (§4.1).
	STC bool
	// Step1PTECaching caches PTE-hCWT entries in the Step-1 hCWC (§4.2).
	Step1PTECaching bool
	// Step3AdaptivePTE adaptively caches PTE-hCWT entries in the
	// Step-3 hCWC (§4.2).
	Step3AdaptivePTE bool
	// PageTable4KB exploits that page tables are only 4KB-mapped in
	// the host, probing only the PTE-hECPT in Step 1 (§4.3).
	PageTable4KB bool
}

// PlainTechniques returns the §3 design point.
func PlainTechniques() Techniques { return Techniques{} }

// AdvancedTechniques returns the full §4 design point.
func AdvancedTechniques() Techniques {
	return Techniques{STC: true, Step1PTECaching: true, Step3AdaptivePTE: true, PageTable4KB: true}
}

// NestedECPTConfig configures the nested ECPT walker's MMU structures
// (Table 2's Nested ECPT rows).
type NestedECPTConfig struct {
	Tech     Techniques
	GuestCWC CWCConfig
	// HostCWC1 guards Step 1 (locating gECPT entries in the host);
	// HostCWC3 guards Step 3 (locating data pages in the host). The
	// paper uses separate hCWCs for the two steps (§8).
	HostCWC1   CWCConfig
	HostCWC3   CWCConfig
	STCEntries int
	// AdaptIntervalCycles is the monitoring interval for adaptive
	// PTE-hCWT caching (Figure 12 samples every 5M cycles).
	AdaptIntervalCycles uint64
	// AdaptDisableBelow / AdaptEnableAbove are the §9.2 thresholds.
	AdaptDisableBelow float64
	AdaptEnableAbove  float64
}

// DefaultNestedECPTConfig returns Table 2's structure sizes for the
// given technique set.
func DefaultNestedECPTConfig(tech Techniques) NestedECPTConfig {
	cfg := NestedECPTConfig{
		Tech:                tech,
		GuestCWC:            CWCConfig{PMD: 16, PUD: 2},
		HostCWC1:            CWCConfig{PMD: 4, PUD: 2},
		HostCWC3:            CWCConfig{PMD: 8, PUD: 2},
		STCEntries:          10,
		AdaptIntervalCycles: 5_000_000,
		AdaptDisableBelow:   0.5,
		AdaptEnableAbove:    0.85,
	}
	if tech.Step1PTECaching {
		// Table 2 lists 4 PTE entries; our PTE-hCWT entries cover 1MB
		// each where the paper's format covers ~4MB, so 16 entries give
		// the same reach over the gECPT region (the property behind the
		// 99% Step-1 hit rate of §9.4).
		cfg.HostCWC1.PTE = 32
	}
	if tech.Step3AdaptivePTE {
		cfg.HostCWC3.PTE = 16
	}
	return cfg
}

// NestedECPTStats aggregates the walker-level measurements the
// evaluation reports.
type NestedECPTStats struct {
	Walks uint64
	// GuestClasses / HostClasses reproduce Figure 14 (right and left
	// bars respectively).
	GuestClasses *stats.Distribution
	HostClasses  *stats.Distribution
	// Par1/2/3 reproduce §9.4's average parallel accesses per step.
	Par1, Par2, Par3 stats.Average
	// STC is the shortcut translation cache hit rate (§9.4: ~99%).
	STC stats.Counter
	// PTESeries / PMDSeries are Figure 12's per-interval hCWC hit
	// rates for PTE and PMD hCWT entries in the Step-3 hCWC.
	PTESeries, PMDSeries stats.Series
	// AdaptDisabled counts intervals with PTE caching off.
	AdaptDisabled uint64
	// LastFaultAddr records the most recent faulting address, erased to
	// a space-free magnitude via statAddr (fault-injection diagnostics).
	LastFaultAddr uint64
}

// statAddr erases an address to a plain uint64 for statistics
// observation. Stats record space-free magnitudes — every
// address-valued observation in this package funnels through here so
// the erasure is auditable in one place. The generic signature is what
// keeps addrspace quiet: a type-parameter conversion is domain-
// preserving by instantiation, so no //nestedlint:domaincast is
// needed (the escape audit flagged the one that used to sit here as
// stale).
func statAddr[A addr.Addr](v A) uint64 { return uint64(v) }

// NestedECPT is the paper's walker: three sequential steps of parallel
// probes against guest and host elastic cuckoo page tables.
type NestedECPT struct {
	// guestECPT is the guest side of Step 1 (gCWC consult, candidate
	// expansion) and carries the walker's trace recorder; host is the
	// probe step behind Step 1's hPTE lookups, Step 3 and the background
	// gCWT translation.
	guestECPT
	host hostECPT

	cfg NestedECPTConfig
	mem MemSystem

	hCWC1 *CWC
	hCWC3 *CWC
	stc   *mmucache.Cache[addr.GPA, addr.HPA]

	lastAdapt uint64
	// adaptBackoff implements the convergence §9.2 describes
	// ("applications typically converge soon to one of the two
	// states"): each disable doubles the number of qualifying windows
	// required before PTE caching is re-enabled, so an application
	// whose PTE entries genuinely do not cache well settles into the
	// disabled state instead of oscillating.
	adaptBackoff  uint64
	adaptCooldown uint64
	st            NestedECPTStats

	// scratch buffers, reused across walks to keep the hot path
	// allocation-free: the parallel access groups of the three steps,
	// all host-physical probe targets. A background gCWT-refill
	// translation (§4.1) runs before Step 1's host lookups, so it
	// borrows step1PAs and hPlan, the host plan of the current step.
	step1PAs []addr.HPA
	step2PAs []addr.HPA
	step3PAs []addr.HPA
	hPlan    probePlan[addr.HPA]

	// stageLat captures the three AccessParallel group latencies of the
	// most recent walk — the per-step memory costs WalkBatch overlaps
	// across lanes. A step a walk never reaches (fault) stays zero.
	stageLat [3]uint64

	// BatchState provides SetBatchMSHRs and the batch scratch.
	BatchState
}

// NewNestedECPT wires a walker to the guest's ECPTs and the host's
// ECPTs. The guest kernel and the hypervisor must both maintain ECPTs.
func NewNestedECPT(cfg NestedECPTConfig, mem MemSystem, guest *kernel.Kernel, host *hypervisor.Hypervisor) *NestedECPT {
	if guest.ECPTs() == nil || host.ECPTs() == nil {
		panic("core: NestedECPT requires guest and host ECPTs")
	}
	w := &NestedECPT{
		guestECPT: guestECPT{
			tracer: tracer{kind: trace.WalkerNestedECPT},
			set:    guest.ECPTs(),
			cwc:    NewCWC("gCWC", cfg.GuestCWC),
		},
		host:  hostECPT{tracer: tracer{kind: trace.WalkerNestedECPT}, mem: mem, set: host.ECPTs()},
		cfg:   cfg,
		mem:   mem,
		hCWC1: NewCWC("hCWC1", cfg.HostCWC1),
		hCWC3: NewCWC("hCWC3", cfg.HostCWC3),
	}
	if cfg.Tech.STC {
		w.stc = mmucache.New[addr.GPA, addr.HPA]("STC", cfg.STCEntries)
	}
	w.st.GuestClasses = stats.NewDistribution()
	w.st.HostClasses = stats.NewDistribution()
	return w
}

// Name implements Walker.
func (w *NestedECPT) Name() string {
	switch w.cfg.Tech {
	case Techniques{}:
		return "Plain Nested ECPTs"
	case AdvancedTechniques():
		return "Nested ECPTs"
	}
	return "Nested ECPTs (partial techniques)"
}

// Stats returns a snapshot of the walker statistics.
func (w *NestedECPT) Stats() NestedECPTStats { return w.st }

// CWCs exposes the three cuckoo walk caches for characterization.
func (w *NestedECPT) CWCs() (gcwc, hcwc1, hcwc3 *CWC) { return w.cwc, w.hCWC1, w.hCWC3 }

// SetRecorder attaches a trace recorder to the walker and all of its
// MMU caches. A nil recorder disables tracing.
func (w *NestedECPT) SetRecorder(r *trace.Recorder) {
	w.rec, w.host.rec = r, r
	w.cwc.SetTrace(r, trace.CacheGCWC, trace.WalkerNestedECPT)
	w.hCWC1.SetTrace(r, trace.CacheHCWC1, trace.WalkerNestedECPT)
	w.hCWC3.SetTrace(r, trace.CacheHCWC3, trace.WalkerNestedECPT)
	if w.stc != nil {
		w.stc.SetTrace(r, trace.CacheSTC, trace.WalkerNestedECPT, trace.NoSize)
	}
}

// ResetStats clears all measurement state at the end of warm-up.
func (w *NestedECPT) ResetStats() {
	w.st = NestedECPTStats{GuestClasses: stats.NewDistribution(), HostClasses: stats.NewDistribution()}
	w.cwc.ResetStats()
	w.hCWC1.ResetStats()
	w.hCWC3.ResetStats()
	if w.stc != nil {
		w.stc.ResetStats()
	}
}

// Walk implements Walker: the three-step nested ECPT walk of Figure 6.
//
//nestedlint:hotpath
func (w *NestedECPT) Walk(now uint64, va addr.GVA) (WalkResult, error) {
	var res WalkResult
	err := w.walkInto(now, va, &res)
	return res, err
}

// WalkBatch implements Walker: the batch latency overlaps the three
// per-step memory stages across lanes (see stagedWalkBatch).
//
//nestedlint:hotpath
func (w *NestedECPT) WalkBatch(now uint64, gvas []addr.GVA, out []WalkResult, errs []error) uint64 {
	return stagedWalkBatch(w, &w.BatchState, &w.tracer, now, gvas, out, errs)
}

// stages implements stagedLane.
//
//nestedlint:hotpath
func (w *NestedECPT) stages() []uint64 { return w.stageLat[:] }

// hostFault reports a walk that ended on a gPA with no host mapping.
func (w *NestedECPT) hostFault(now uint64, va addr.GVA, gpa addr.GPA, pageTable bool) error {
	w.st.LastFaultAddr = statAddr(gpa)
	w.fault(now, trace.SpaceHost, va, gpa)
	return &ErrNotMapped{Space: "host", GPA: gpa, PageTable: pageTable}
}

// guestFault reports a walk that found no guest mapping for va.
func (w *NestedECPT) guestFault(now uint64, va addr.GVA) error {
	w.st.LastFaultAddr = statAddr(va)
	w.fault(now, trace.SpaceGuest, va, 0)
	return &ErrNotMapped{Space: "guest", GVA: va}
}

// walkInto is the walk lane shared by Walk and WalkBatch: it performs
// one full translation into *res (overwriting it) and records the
// step-latency breakdown in w.stageLat.
//
//nestedlint:hotpath
func (w *NestedECPT) walkInto(now uint64, va addr.GVA, res *WalkResult) error {
	*res = WalkResult{}
	w.stageLat = [3]uint64{}
	w.walkBegin(now, va)
	w.maybeAdapt(now)
	w.st.Walks++
	var lat uint64
	hset := w.host.set

	// ---------- Step 1: gVA -> hPTEs locating the gECPT entries ----------
	// Consult the gCWC (all classes probed in parallel; one MMU-cache
	// round trip) and hash the guest VPNs.
	w.stepBegin(now, 1, trace.SpaceGuest, va, 0)
	planWalk(w.set, w.cwc, va, addr.Page1G, true, &w.plan)
	lat += mmucache.LatencyRT + vhash.LatencyCycles
	if w.plan.fault {
		return w.guestFault(now+lat, va)
	}
	w.st.GuestClasses.Observe(w.plan.class.String())
	if w.plan.refill.pa != 0 {
		if err := w.queueGuestRefill(now+lat, w.plan.refill, res); err != nil {
			return err
		}
	}
	w.expand(now+lat, va)

	// Locate every candidate through the host ECPTs; all resulting
	// hECPT probes form one parallel group, guarded by the Step-1 hCWC
	// and, when enabled, the 4KB page-table-page knowledge, which
	// starts the descent at the PTE level.
	lat += mmucache.LatencyRT + vhash.LatencyCycles
	w.step1PAs = w.step1PAs[:0]
	top := addr.Page1G
	if w.cfg.Tech.PageTable4KB {
		top = addr.Page4K
	}
	for ci := range w.cand {
		c := &w.cand[ci]
		planWalk(hset, w.hCWC1, c.probe.PA, top, true, &w.hPlan)
		if w.hPlan.fault {
			return w.hostFault(now+lat, va, c.probe.PA, true)
		}
		w.st.HostClasses.Observe(w.hPlan.class.String())
		var matched bool
		w.step1PAs, c.hpa, _, matched = w.host.probe(now+lat, c.probe.PA, &w.hPlan, w.hCWC1, 1, false, w.step1PAs, res)
		if !matched {
			return w.hostFault(now+lat, va, c.probe.PA, true)
		}
	}
	w.stageLat[0] = w.mem.AccessParallel(now+lat, w.step1PAs, cachesim.SourceMMU)
	lat += w.stageLat[0]
	res.Accesses += len(w.step1PAs)
	res.Parallel1 = len(w.step1PAs)
	w.st.Par1.Observe(uint64(len(w.step1PAs)))

	// ---------- Step 2: read the candidate gECPT entries ----------
	// The hardware cannot tell which tag-matching hPTE corresponds to
	// the wanted guest VPN (§3.1), so it reads all candidates and
	// checks their guest tags.
	w.stepBegin(now+lat, 2, trace.SpaceGuest, va, 0)
	w.step2PAs = w.step2PAs[:0]
	var dataGPA addr.GPA
	var gsize addr.PageSize
	found := false
	for ci := range w.cand {
		c := &w.cand[ci]
		w.step2PAs = append(w.step2PAs, c.hpa)
		if c.probe.Match {
			dataGPA = addr.Translate(c.probe.Frame, va, c.size)
			gsize = c.size
			found = true
		}
	}
	w.stageLat[1] = w.mem.AccessParallel(now+lat, w.step2PAs, cachesim.SourceMMU)
	lat += w.stageLat[1]
	res.Accesses += len(w.step2PAs)
	res.Parallel2 = len(w.step2PAs)
	w.st.Par2.Observe(uint64(len(w.step2PAs)))
	if !found {
		return w.guestFault(now+lat, va)
	}

	// ---------- Step 3: data gPA -> hPA ----------
	w.stepBegin(now+lat, 3, trace.SpaceHost, va, dataGPA)
	planWalk(hset, w.hCWC3, dataGPA, addr.Page1G, true, &w.hPlan)
	lat += mmucache.LatencyRT + vhash.LatencyCycles
	if w.hPlan.fault {
		return w.hostFault(now+lat, va, dataGPA, false)
	}
	w.st.HostClasses.Observe(w.hPlan.class.String())
	var hpa addr.HPA
	var hsize addr.PageSize
	w.step3PAs, hpa, hsize, found = w.host.probe(now+lat, dataGPA, &w.hPlan, w.hCWC3, 3, false, w.step3PAs[:0], res)
	w.stageLat[2] = w.mem.AccessParallel(now+lat, w.step3PAs, cachesim.SourceMMU)
	lat += w.stageLat[2]
	res.Accesses += len(w.step3PAs)
	res.Parallel3 = len(w.step3PAs)
	w.st.Par3.Observe(uint64(len(w.step3PAs)))
	if !found {
		return w.hostFault(now+lat, va, dataGPA, false)
	}

	res.Size = minSize(gsize, hsize)
	res.Frame = addr.PageBase(hpa, res.Size)
	res.Latency = lat
	w.walkEnd(now+lat, trace.SpaceHost, va, res)
	return nil
}

// queueGuestRefill performs the background gCWT fetch a guest-side
// plan requested. Guest CWT entries live at gPAs and must first be
// translated — through the STC when the technique is on (§4.1),
// otherwise through a full host lookup, which is exactly the overhead
// the STC removes.
func (w *NestedECPT) queueGuestRefill(now uint64, r refill[addr.GPA], res *WalkResult) error {
	if w.rec != nil {
		w.rec.Emit(trace.Event{
			Now: now, Kind: trace.KindRefill, Walker: trace.WalkerNestedECPT,
			Space: trace.SpaceGuest, Size: r.size, Way: trace.WayNone,
			GPA: r.pa, Aux: r.key, Flag: true,
		})
	}
	// The STC is keyed by the gCWT entry address (§4.1 caches the
	// translations of gCWT entries); the value is the frame of the
	// 4KB host page holding it.
	key := r.pa
	var hpa addr.HPA
	translated := false
	if w.stc != nil {
		res.BackgroundCycles += mmucache.LatencyRT
		if frame, ok := w.stc.Lookup(key); ok {
			w.st.STC.Hit()
			hpa = addr.Translate(frame, r.pa, addr.Page4K)
			translated = true
		} else {
			w.st.STC.Miss()
		}
	}
	if !translated {
		// Full background translation of the gCWT entry's gPA,
		// "similar to Step 3" (§4.1): consult the Step-3 hCWC and
		// probe the hECPTs, all in the background (Step 0). A fault
		// means the gCWT page has no host mapping yet: surface the EPT
		// violation so the hypervisor demand-maps it.
		planWalk(w.host.set, w.hCWC3, r.pa, addr.Page1G, true, &w.hPlan)
		res.BackgroundCycles += mmucache.LatencyRT + vhash.LatencyCycles
		if w.hPlan.fault {
			w.st.LastFaultAddr = statAddr(r.pa)
			return &ErrNotMapped{Space: "host", GPA: r.pa, PageTable: true}
		}
		var ok bool
		w.step1PAs, hpa, _, ok = w.host.probe(now, r.pa, &w.hPlan, w.hCWC3, 0, true, w.step1PAs[:0], res)
		res.BackgroundCycles += w.mem.AccessParallel(now, w.step1PAs, cachesim.SourceMMU)
		res.BackgroundAccesses += len(w.step1PAs)
		if !ok {
			w.st.LastFaultAddr = statAddr(r.pa)
			return &ErrNotMapped{Space: "host", GPA: r.pa, PageTable: true}
		}
		if w.stc != nil {
			w.stc.Insert(key, addr.PageBase(hpa, addr.Page4K))
		}
	}
	// Fetch the gCWT entry itself at its hPA.
	lat, _ := w.mem.Access(now, hpa, cachesim.SourceMMU)
	res.BackgroundCycles += lat
	res.BackgroundAccesses++
	w.cwc.Insert(r.size, r.key)
	return nil
}

// maybeAdapt runs the §4.2 adaptive controller once per interval.
func (w *NestedECPT) maybeAdapt(now uint64) {
	if !w.cfg.Tech.Step3AdaptivePTE {
		return
	}
	if now-w.lastAdapt < w.cfg.AdaptIntervalCycles {
		return
	}
	w.lastAdapt = now
	pte := w.hCWC3.WindowStats(addr.Page4K)
	pmd := w.hCWC3.WindowStats(addr.Page2M)
	if w.rec != nil {
		// One event per monitoring interval, whether or not anything
		// toggles; the window hit rates travel as float bits so the
		// auditor can re-check every toggle against the §4.2 thresholds.
		w.rec.Emit(trace.Event{
			Now: now, Kind: trace.KindAdaptInterval, Walker: trace.WalkerNestedECPT,
			Space: trace.SpaceHost, Size: trace.NoSize, Way: trace.WayNone,
			Cache: trace.CacheHCWC3,
			Aux:   math.Float64bits(pte.HitRate()), Aux2: math.Float64bits(pmd.HitRate()),
		})
	}
	if pte.Total() > 0 {
		w.st.PTESeries.Append(pte.HitRate())
	}
	if pmd.Total() > 0 {
		w.st.PMDSeries.Append(pmd.HitRate())
	}
	if w.hCWC3.Has(addr.Page4K) {
		if pte.Total() >= 16 && pte.HitRate() < w.cfg.AdaptDisableBelow {
			w.hCWC3.SetEnabled(addr.Page4K, false)
			w.traceToggle(now, false, pte)
			if w.adaptBackoff == 0 {
				w.adaptBackoff = 1
			} else if w.adaptBackoff < 1<<20 {
				w.adaptBackoff *= 2
			}
			w.adaptCooldown = w.adaptBackoff
		}
	} else {
		w.st.AdaptDisabled++
		if pmd.Total() >= 16 && pmd.HitRate() > w.cfg.AdaptEnableAbove {
			if w.adaptCooldown > 0 {
				w.adaptCooldown--
			} else {
				w.hCWC3.SetEnabled(addr.Page4K, true)
				w.traceToggle(now, true, pmd)
			}
		}
	}
}

// traceToggle records one adaptive PTE-hCWT caching toggle: on=false
// disables the Step-3 hCWC's PTE class, on=true re-enables it. The
// qualifying window's hit rate (float bits) and sample count ride in
// Aux/Aux2 so the auditor can verify the threshold comparison.
//
//nestedlint:hotpath
func (w *NestedECPT) traceToggle(now uint64, on bool, window stats.Counter) {
	if w.rec == nil {
		return
	}
	w.rec.Emit(trace.Event{
		Now: now, Kind: trace.KindAdaptToggle, Walker: trace.WalkerNestedECPT,
		Space: trace.SpaceHost, Size: addr.Page4K, Way: trace.WayNone,
		Cache: trace.CacheHCWC3, Flag: on,
		Aux: math.Float64bits(window.HitRate()), Aux2: window.Total(),
	})
}
