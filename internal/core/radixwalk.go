package core

import (
	"fmt"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/cachesim"
	"nestedecpt/internal/hypervisor"
	"nestedecpt/internal/kernel"
	"nestedecpt/internal/mmucache"
	"nestedecpt/internal/radix"
	"nestedecpt/internal/trace"
)

// RadixWalkConfig sizes the radix MMU caches (Table 2's radix rows).
type RadixWalkConfig struct {
	// PWCEntriesPerLevel sizes the guest/native page walk cache, which
	// holds L4, L3 and L2 entries (L1 entries are not cached, §2.1).
	PWCEntriesPerLevel int
	// NPWCEntriesPerLevel sizes the nested PWC holding host hL4..hL1
	// entries (nested configurations only).
	NPWCEntriesPerLevel int
	// NTLBEntries sizes the Nested TLB caching gPA→hPA translations of
	// guest page-table pages (nested configurations only).
	NTLBEntries int
}

// DefaultRadixWalkConfig returns Table 2's sizes.
func DefaultRadixWalkConfig() RadixWalkConfig {
	return RadixWalkConfig{PWCEntriesPerLevel: 32, NPWCEntriesPerLevel: 16, NTLBEntries: 24}
}

// pwc is a page walk cache partitioned per radix level. V is the
// address space the cached table translates (the lookup key space) and
// P the space its entries point into (the cached content): a guest PWC
// is a pwc[GVA, GPA], the nested PWC over the EPT a pwc[GPA, HPA].
// Keys are level prefixes (space-free indices), values are entry
// contents: the next-level table base, or the frame for an L1 entry in
// the NPWC.
type pwc[V, P addr.Addr] struct {
	levels [5]*mmucache.Cache[uint64, P] // indexed by RadixLevel (1..4)
}

func newPWC[V, P addr.Addr](name string, perLevel int, lo, hi addr.RadixLevel) *pwc[V, P] {
	p := &pwc[V, P]{}
	for l := lo; l <= hi; l++ {
		p.levels[l] = mmucache.New[uint64, P](fmt.Sprintf("%s/%s", name, l), perLevel)
	}
	return p
}

// setTrace wires a trace recorder into every level partition.
func (p *pwc[V, P]) setTrace(r *trace.Recorder, id trace.CacheID, walker trace.WalkerKind) {
	for _, c := range p.levels {
		if c != nil {
			c.SetTrace(r, id, walker, trace.NoSize)
		}
	}
}

// lookup probes level l for va's prefix.
func (p *pwc[V, P]) lookup(va V, l addr.RadixLevel) (P, bool) {
	if p.levels[l] == nil {
		return 0, false
	}
	return p.levels[l].Lookup(addr.LevelPrefix(va, l))
}

func (p *pwc[V, P]) insert(va V, l addr.RadixLevel, content P) {
	if p.levels[l] != nil {
		p.levels[l].Insert(addr.LevelPrefix(va, l), content)
	}
}

// HostDim is the host dimension of a guest-radix walk: whatever
// resolves the guest-physical addresses the walk produces — the gPA of
// each guest table entry it is about to read, and finally the data
// page's. The designs differ only here: four EPT radix levels (Figure
// 2), one parallel ECPT step (Figure 8), one flat-table access, or
// nothing at all (§9.6's baselines).
//
// Translate resolves gpa at cycle now and returns the translated host
// address, the host page size, and the latency added to the critical
// path. row is the Figure-2/8 row being resolved (1 = gL4 … 4 = gL1,
// 5 = the data page), for dimensions whose policy depends on it. The
// dimension adds its memory accesses to *res, which the walker (Walk)
// or the batch caller (WalkBatch) owns — implementations must not
// retain it — and keeps its own scratch receiver-owned so a walk stays
// allocation-free. An unmapped gpa is reported as *ErrNotMapped with
// Space "host", together with the latency spent finding out.
type HostDim interface {
	Translate(now uint64, gpa addr.GPA, row int, res *WalkResult) (hpa addr.HPA, size addr.PageSize, lat uint64, err error)
}

// tracedHost is a host dimension that emits trace events of its own
// (its accesses, its MMU caches) under the walker's design tag.
type tracedHost interface {
	setRecorder(r *trace.Recorder, kind trace.WalkerKind)
}

// hostRadix is the EPT host dimension of Figure 2: it translates gPAs
// through the host radix table with NPWC shortcuts, one sequential
// access per uncached hL row.
type hostRadix struct {
	tracer
	mem  MemSystem
	ept  *radix.Table[addr.GPA, addr.HPA]
	npwc *pwc[addr.GPA, addr.HPA]
	// steps is reusable walk scratch (the walkers run one walk at a
	// time, so one buffer per walker suffices).
	steps []radix.Step[addr.HPA]
}

func (h *hostRadix) setRecorder(r *trace.Recorder, kind trace.WalkerKind) {
	h.tracer = tracer{rec: r, kind: kind}
	h.npwc.setTrace(r, trace.CacheNPWC, kind)
}

// Translate implements HostDim.
//
//nestedlint:hotpath
func (h *hostRadix) Translate(now uint64, gpa addr.GPA, _ int, res *WalkResult) (hpa addr.HPA, size addr.PageSize, lat uint64, err error) {
	var ok bool
	h.steps, ok = h.ept.AppendWalk(h.steps[:0], gpa)
	steps := h.steps
	if !ok {
		return 0, 0, lat, &ErrNotMapped{Space: "host", GPA: gpa}
	}
	// One parallel NPWC probe round resolves the deepest cached level.
	lat += mmucache.LatencyRT
	start := 0 // index into steps to resume from
	for i := len(steps) - 1; i >= 0; i-- {
		if content, hit := h.npwc.lookup(gpa, steps[i].Level); hit {
			if steps[i].Leaf {
				// A cached leaf entry ends the walk with no accesses.
				return addr.Translate(content, gpa, steps[i].Size), steps[i].Size, lat, nil
			}
			start = i + 1
			break
		}
	}
	for _, st := range steps[start:] {
		if h.rec != nil {
			// Host (EPT) radix rows: one sequential access each, tagged
			// Step 0 — they nest inside the guest walk's own steps.
			h.rec.Emit(trace.Event{
				Now: now + lat, Kind: trace.KindProbe, Walker: h.kind,
				Step: 0, Space: trace.SpaceHost, Size: trace.NoSize, Way: trace.WayNone,
				GPA: gpa, HPA: st.EntryPA, Aux: 1,
			})
		}
		alat, _ := h.mem.Access(now+lat, st.EntryPA, cachesim.SourceMMU)
		lat += alat
		res.Accesses++
		if st.Leaf {
			h.npwc.insert(gpa, st.Level, st.Frame)
			return addr.Translate(st.Frame, gpa, st.Size), st.Size, lat, nil
		}
		h.npwc.insert(gpa, st.Level, st.NextPA)
	}
	return 0, 0, lat, &ErrNotMapped{Space: "host", GPA: gpa}
}

// RadixWalker is the guest-radix walk, written once: Figure 1 natively,
// Figure 2 over an EPT, Figure 8 over host ECPTs, and §9.6's flat and
// ideal baselines are this walk over different host dimensions. Each
// uncached guest level is one row — resolve the table page's gPA
// through the host dimension (behind the NTLB when the design has one),
// read the entry, fill the PWC — followed by the host resolution of the
// data page. With no host dimension the guest's "guest-physical" table
// addresses are the machine's physical addresses (there is no
// hypervisor) and cross spaces via addr.IdentityHPA.
type RadixWalker struct {
	tracer
	name  string
	mem   MemSystem
	guest *radix.Table[addr.GVA, addr.GPA]
	// pwc holds guest L4, L3 and L2 entries (L1 entries are not cached,
	// §2.1); ntlb caches gPA→hPA translations of guest table pages and is
	// nil in designs without one; host is nil natively.
	pwc  *pwc[addr.GVA, addr.GPA]
	ntlb *mmucache.Cache[addr.GPA, addr.HPA]
	host HostDim

	// The trace shapes the golden digest pins are data, not code paths.
	// stepByLevel numbers a row's step by its level (5 − level, the data
	// page 5) as Figure 8 does, instead of counting the rows walked.
	// entryProbe is the space the guest entry read is traced in:
	// SpaceGuest natively (the entry's address is all there is),
	// SpaceHost where the host dimension produced an hPA worth auditing,
	// SpaceNone where the read is not traced.
	stepByLevel bool
	entryProbe  trace.Space

	walks uint64                 // walks begun (HybridStats.Walks)
	steps []radix.Step[addr.GPA] // reusable walk scratch
	// res is the result Walk fills: walker-owned, because handing a
	// stack WalkResult to the HostDim interface would move it to the
	// heap on every walk.
	res WalkResult

	// BatchState provides SetBatchMSHRs and the batch scratch.
	BatchState
}

// NewRadixWalker builds a guest-radix walker over the kernel's radix
// table: a PWC of pwcPerLevel entries per level, an NTLB of ntlbEntries
// (0 = none) in front of host, the host dimension (nil = native). The
// walker is untraced; the designs that emit walk traces are built by
// NewNativeRadix, NewNestedRadix and NewHybrid.
func NewRadixWalker(name string, pwcPerLevel, ntlbEntries int, mem MemSystem, guest *kernel.Kernel, host HostDim) *RadixWalker {
	if guest.Radix() == nil {
		panic("core: " + name + " requires a guest radix table")
	}
	w := &RadixWalker{
		name:  name,
		mem:   mem,
		guest: guest.Radix(),
		pwc:   newPWC[addr.GVA, addr.GPA]("PWC", pwcPerLevel, addr.L2, addr.L4),
		host:  host,
	}
	if ntlbEntries > 0 {
		w.ntlb = mmucache.New[addr.GPA, addr.HPA]("NTLB", ntlbEntries)
	}
	return w
}

// NewNativeRadix builds the Radix baseline: an x86-64 page walk with a
// PWC (Figure 1).
func NewNativeRadix(cfg RadixWalkConfig, mem MemSystem, kern *kernel.Kernel) *RadixWalker {
	w := NewRadixWalker("Radix", cfg.PWCEntriesPerLevel, 0, mem, kern, nil)
	w.kind, w.entryProbe = trace.WalkerNativeRadix, trace.SpaceGuest
	return w
}

// NewNestedRadix builds the Nested Radix baseline: the two-dimensional
// page walk of Figure 2 — up to 24 sequential accesses — with guest
// PWC, nested PWC, and Nested TLB.
func NewNestedRadix(cfg RadixWalkConfig, mem MemSystem, guest *kernel.Kernel, host *hypervisor.Hypervisor) *RadixWalker {
	if host.Radix() == nil {
		panic("core: Nested Radix requires a host radix table")
	}
	w := NewRadixWalker("Nested Radix", cfg.PWCEntriesPerLevel, cfg.NTLBEntries, mem, guest, &hostRadix{
		mem:  mem,
		ept:  host.Radix(),
		npwc: newPWC[addr.GPA, addr.HPA]("NPWC", cfg.NPWCEntriesPerLevel, addr.L1, addr.L4),
	})
	w.kind, w.entryProbe = trace.WalkerNestedRadix, trace.SpaceHost
	return w
}

// Name implements Walker.
func (w *RadixWalker) Name() string { return w.name }

// SetRecorder attaches a trace recorder to the walker, its MMU caches
// and its host dimension. A nil recorder disables tracing; a walker
// with no trace kind (the §9.6 baselines) stays untraced.
func (w *RadixWalker) SetRecorder(r *trace.Recorder) {
	if w.kind == trace.WalkerNone {
		return
	}
	w.rec = r
	w.pwc.setTrace(r, trace.CachePWC, w.kind)
	if w.ntlb != nil {
		w.ntlb.SetTrace(r, trace.CacheNTLB, w.kind, trace.NoSize)
	}
	if h, ok := w.host.(tracedHost); ok {
		h.setRecorder(r, w.kind)
	}
}

// NTLBStats returns the nested TLB hit/miss counter (zero in a design
// without one).
func (w *RadixWalker) NTLBStats() (hits, misses uint64) {
	if w.ntlb == nil {
		return 0, 0
	}
	c := w.ntlb.Stats()
	return c.Hits, c.Misses
}

// Walk implements Walker.
//
//nestedlint:hotpath
func (w *RadixWalker) Walk(now uint64, va addr.GVA) (WalkResult, error) {
	err := w.walkInto(now, va, &w.res)
	return w.res, err
}

// WalkBatch implements Walker. A radix walk is a serial pointer chase
// with no internal parallel stages, so each lane's whole latency forms
// one overlap stage.
//
//nestedlint:hotpath
func (w *RadixWalker) WalkBatch(now uint64, gvas []addr.GVA, out []WalkResult, errs []error) uint64 {
	return SequentialWalkBatch(w, &w.BatchState, w.rec, w.kind, now, gvas, out, errs)
}

// translateTablePage resolves the hPA of a guest page-table entry
// through the NTLB, falling back to the host dimension (the dotted NTLB
// path of Figure 2).
//
//nestedlint:hotpath
func (w *RadixWalker) translateTablePage(now uint64, entryGPA addr.GPA, row int, res *WalkResult) (hpa addr.HPA, lat uint64, err error) {
	if w.ntlb == nil {
		hpa, _, lat, err = w.host.Translate(now, entryGPA, row, res)
		return hpa, lat, err
	}
	lat = mmucache.LatencyRT
	page := addr.PageBase(entryGPA, addr.Page4K)
	if frame, ok := w.ntlb.Lookup(page); ok {
		return addr.Translate(frame, entryGPA, addr.Page4K), lat, nil
	}
	hpa, _, hlat, err := w.host.Translate(now+lat, entryGPA, row, res)
	lat += hlat
	if err != nil {
		return 0, lat, err
	}
	w.ntlb.Insert(page, addr.PageBase(hpa, addr.Page4K))
	return hpa, lat, nil
}

// walkInto performs one full translation into *res (overwriting it).
//
//nestedlint:hotpath
func (w *RadixWalker) walkInto(now uint64, va addr.GVA, res *WalkResult) error {
	*res = WalkResult{}
	w.walks++
	w.walkBegin(now, va)
	var ok bool
	w.steps, ok = w.guest.AppendWalk(w.steps[:0], va)
	steps := w.steps
	if !ok {
		w.fault(now, trace.SpaceGuest, va, 0)
		return &ErrNotMapped{Space: "guest", GVA: va}
	}
	lat := uint64(mmucache.LatencyRT) // parallel guest-PWC probe round
	start := 0
	for i := len(steps) - 1; i >= 0; i-- {
		st := steps[i]
		if st.Leaf || st.Level < addr.L2 {
			continue // leaves and L1 entries are not PWC-cached
		}
		if _, hit := w.pwc.lookup(va, st.Level); hit {
			start = i + 1
			break
		}
	}

	// One sequential step per row: the host resolution of the guest
	// table page, then the guest entry read.
	step := uint8(0)
	for _, st := range steps[start:] {
		row := 5 - int(st.Level) // gL4 is row 1 ... gL1 is row 4
		if step++; w.stepByLevel {
			step = uint8(row)
		}
		var hpa addr.HPA
		if w.host == nil {
			w.stepBegin(now+lat, step, trace.SpaceGuest, va, 0)
			hpa = addr.IdentityHPA(st.EntryPA)
		} else {
			w.stepBegin(now+lat, step, trace.SpaceGuest, va, st.EntryPA)
			var tlat uint64
			var err error
			hpa, tlat, err = w.translateTablePage(now+lat, st.EntryPA, row, res)
			lat += tlat
			if err != nil {
				w.fault(now+lat, trace.SpaceHost, va, st.EntryPA)
				return err
			}
		}
		if w.rec != nil && w.entryProbe != trace.SpaceNone {
			ev := trace.Event{
				Now: now + lat, Kind: trace.KindProbe, Walker: w.kind,
				Step: step, Space: w.entryProbe, Size: trace.NoSize, Way: trace.WayNone,
				GVA: va, Aux: 1,
			}
			if w.entryProbe == trace.SpaceGuest {
				ev.GPA = st.EntryPA
			} else {
				ev.HPA = hpa
			}
			w.rec.Emit(ev)
		}
		alat, _ := w.mem.Access(now+lat, hpa, cachesim.SourceMMU)
		lat += alat
		res.Accesses++
		if !st.Leaf {
			w.pwc.insert(va, st.Level, st.NextPA)
		}
	}

	// A mapped walk ends on its leaf; resolve the data page through the
	// host dimension (steps 21–24 of Figure 2, row 5 of Figure 8).
	leaf := steps[len(steps)-1]
	dataGPA := addr.Translate(leaf.Frame, va, leaf.Size)
	hpa, hsize, space := addr.IdentityHPA(dataGPA), leaf.Size, trace.SpaceGuest
	if w.host != nil {
		if step++; w.stepByLevel {
			step = 5
		}
		space = trace.SpaceHost
		w.stepBegin(now+lat, step, space, va, dataGPA)
		var hlat uint64
		var err error
		hpa, hsize, hlat, err = w.host.Translate(now+lat, dataGPA, 5, res)
		lat += hlat
		if err != nil {
			w.fault(now+lat, space, va, dataGPA)
			return err
		}
	}
	res.Size = minSize(leaf.Size, hsize)
	res.Frame = addr.PageBase(hpa, res.Size)
	res.Latency = lat
	w.walkEnd(now+lat, space, va, res)
	return nil
}
