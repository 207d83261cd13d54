package core

import (
	"nestedecpt/internal/addr"
	"nestedecpt/internal/cachesim"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/trace"
)

// candidate is one gECPT line probe, the table size it came from and —
// in the nested walk — its resolved host location.
type candidate struct {
	probe ecpt.Probe[addr.GPA]
	size  addr.PageSize
	hpa   addr.HPA
}

// guestECPT is the guest side of an ECPT walk, shared by the native
// walker and Step 1 of the nested one: the table set, the walk cache
// guarding it, and the receiver-owned scratch a consult and its
// expansion write into.
type guestECPT struct {
	tracer
	set      *ecpt.Set[addr.GVA, addr.GPA]
	cwc      *CWC
	plan     probePlan[addr.GPA]
	probeBuf []ecpt.Probe[addr.GPA]
	cand     []candidate
}

// expand turns the current plan into candidate gECPT line probes for
// va, each tagged with the table size it came from, tracing one Step-1
// Probe event per group.
//
//nestedlint:hotpath
func (g *guestECPT) expand(now uint64, va addr.GVA) {
	g.cand = g.cand[:0]
	for _, grp := range g.plan.groups {
		g.probeBuf = g.set.Table(grp.size).AppendProbes(g.probeBuf[:0], addr.VPN(va, grp.size), grp.way)
		if g.rec != nil && len(g.probeBuf) > 0 {
			g.rec.Emit(trace.Event{
				Now: now, Kind: trace.KindProbe, Walker: g.kind,
				Step: 1, Space: trace.SpaceGuest, Size: grp.size, Way: int8(grp.way),
				GVA: va, GPA: g.probeBuf[0].PA, Aux: uint64(len(g.probeBuf)),
			})
		}
		for _, p := range g.probeBuf {
			g.cand = append(g.cand, candidate{probe: p, size: grp.size})
		}
	}
}

// hostECPT is the host-ECPT probe step: the one operation behind
// Figure 6's Step 1 (per candidate) and Step 3, the §4.1 background
// gCWT translation ("similar to Step 3") and every host row of the
// Hybrid walk (Figure 8). Planning — which hCWC, which PTE policy —
// and fault handling stay with the caller, which owns the plan.
type hostECPT struct {
	tracer
	mem      MemSystem
	set      *ecpt.Set[addr.GPA, addr.HPA]
	probeBuf []ecpt.Probe[addr.HPA]
}

// probe carries out the memory side of one planned host lookup of gpa.
// It fetches plan's hCWT refill into cwc as background traffic (host
// CWT entries live at hPAs and need no translation), expands the plan's
// groups into hECPT line probes, traces one Probe event per group
// tagged with the caller's step (background marks work off the
// critical path, exempt from the Step-1 PTE-only invariant), appends
// the line hPAs to group — the caller's parallel access group, which
// the caller issues and charges — and returns the matched translation.
//
//nestedlint:hotpath
func (h *hostECPT) probe(now uint64, gpa addr.GPA, plan *probePlan[addr.HPA], cwc *CWC, step uint8, background bool, group []addr.HPA, res *WalkResult) (_ []addr.HPA, hpa addr.HPA, size addr.PageSize, ok bool) {
	if r := plan.refill; r.pa != 0 {
		if h.rec != nil {
			h.rec.Emit(trace.Event{
				Now: now, Kind: trace.KindRefill, Walker: h.kind,
				Space: trace.SpaceHost, Size: r.size, Way: trace.WayNone,
				HPA: r.pa, Aux: r.key, Flag: true,
			})
		}
		lat, _ := h.mem.Access(now, r.pa, cachesim.SourceMMU)
		res.BackgroundCycles += lat
		res.BackgroundAccesses++
		cwc.Insert(r.size, r.key)
	}
	for _, g := range plan.groups {
		h.probeBuf = h.set.Table(g.size).AppendProbes(h.probeBuf[:0], addr.VPN(gpa, g.size), g.way)
		if h.rec != nil && len(h.probeBuf) > 0 {
			h.rec.Emit(trace.Event{
				Now: now, Kind: trace.KindProbe, Walker: h.kind,
				Step: step, Space: trace.SpaceHost, Size: g.size, Way: int8(g.way),
				GPA: gpa, HPA: h.probeBuf[0].PA, Aux: uint64(len(h.probeBuf)), Flag: background,
			})
		}
		for _, p := range h.probeBuf {
			group = append(group, p.PA)
			if p.Match {
				hpa, size, ok = addr.Translate(p.Frame, gpa, g.size), g.size, true
			}
		}
	}
	return group, hpa, size, ok
}
