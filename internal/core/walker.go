// Package core implements the paper's contribution: hardware page-walk
// engines for parallel virtualized address translation with nested
// elastic cuckoo page tables, in three variants —
//
//   - the Plain Nested ECPT design of §3,
//   - the Advanced Nested ECPT design of §4 (STC, Step-1 PTE-hCWT
//     caching, Step-3 adaptive PTE-hCWT caching, 4KB page-table-page
//     knowledge), and
//   - the Hybrid migration design of §6 (guest radix + host ECPTs),
//
// alongside the native ECPT walker and the radix walkers (native and
// nested) they are evaluated against.
package core

import (
	"fmt"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/cachesim"
	"nestedecpt/internal/trace"
)

// MemSystem is the memory hierarchy a walker charges its accesses to.
// *cachesim.Hierarchy implements it; tests substitute flat-latency
// fakes.
type MemSystem interface {
	Access(now uint64, pa addr.HPA, src cachesim.Source) (lat uint64, served cachesim.ServiceLevel)
	AccessParallel(now uint64, pas []addr.HPA, src cachesim.Source) uint64
}

// WalkResult reports one completed page walk.
type WalkResult struct {
	// Frame is the host physical frame the guest virtual page maps to,
	// and Size the TLB-entry page size (the smaller of the guest and
	// host mapping sizes, since the TLB caches the composed mapping).
	Frame addr.HPA
	Size  addr.PageSize
	// Latency is the critical-path walk latency in core cycles,
	// measured from the L2 TLB miss.
	Latency uint64
	// BackgroundCycles is MMU work off the critical path (CWC/STC
	// refills); it occupies the walker and memory system but does not
	// delay this translation.
	BackgroundCycles uint64
	// Accesses counts memory-hierarchy requests on the critical path;
	// BackgroundAccesses counts refill traffic. Their sum drives the
	// MMU RPKI of Figure 13(a).
	Accesses           int
	BackgroundAccesses int
	// Parallel1/2/3 are the parallel access counts of the three nested
	// ECPT steps (zero for radix walks), reproducing §9.4's 2.8/2.8/1.6.
	Parallel1, Parallel2, Parallel3 int
}

// ErrNotMapped is returned when a walk encounters a missing guest or
// host mapping. The simulator pre-faults pages before timed walks, so
// a timed walk returning this indicates a page-fault path the caller
// must service (kernel/hypervisor) before retrying.
type ErrNotMapped struct {
	Space string // "guest" or "host"
	// GVA is the faulting guest virtual address when Space is "guest".
	GVA addr.GVA
	// GPA is the guest physical address with no host mapping when Space
	// is "host" (an EPT violation in hardware terms).
	GPA addr.GPA
	// PageTable marks host faults on guest page-table gPAs (§4.3:
	// these must be mapped with 4KB host pages).
	PageTable bool
}

// Error implements the error interface.
func (e *ErrNotMapped) Error() string {
	if e.Space == "guest" {
		return fmt.Sprintf("core: %s address %#x not mapped", e.Space, e.GVA)
	}
	return fmt.Sprintf("core: %s address %#x not mapped", e.Space, e.GPA)
}

// Walker is a hardware page-walk engine for one design point.
type Walker interface {
	// Walk translates va starting at core cycle now.
	Walk(now uint64, va addr.GVA) (WalkResult, error)
	// WalkBatch translates a batch of addresses issued together at
	// cycle now, writing lane i's result and error into out[i] /
	// errs[i] (both must hold at least len(gvas) elements). Lane
	// results — including each out[i].Latency, which stays the lane's
	// own sequential critical path — and every piece of simulator
	// state are identical to len(gvas) sequential Walk calls at the
	// same cycle; the returned value is the batch's MSHR-overlapped
	// latency, bounded between the slowest lane and the sum of all
	// lanes (see cachesim.OverlapWaves).
	WalkBatch(now uint64, gvas []addr.GVA, out []WalkResult, errs []error) uint64
	// Name identifies the design (matches Table 1's naming).
	Name() string
}

// tracer is the walk-event emitter every walker embeds: the recorder
// (nil, the default, disables tracing at the cost of one pointer test
// per site) and the design tag its events carry.
type tracer struct {
	rec  *trace.Recorder
	kind trace.WalkerKind
}

// emit records one event of a walk's bracket — the kinds that carry no
// way, cache or flag payload. The wrappers below test the recorder
// first and stay small enough to inline, so an untraced walk pays a
// pointer test per site and no call (noinline keeps that split fixed:
// folding emit into them would push them past the inliner's budget).
//
//go:noinline
func (t *tracer) emit(kind trace.Kind, now uint64, step uint8, space trace.Space, size addr.PageSize, va addr.GVA, gpa addr.GPA, hpa addr.HPA, aux uint64) {
	t.rec.Emit(trace.Event{
		Now: now, Kind: kind, Walker: t.kind, Step: step, Space: space, Size: size,
		Way: trace.WayNone, GVA: va, GPA: gpa, HPA: hpa, Aux: aux,
	})
}

// walkBegin opens a walk's trace bracket.
func (t *tracer) walkBegin(now uint64, va addr.GVA) {
	if t.rec != nil {
		t.emit(trace.KindWalkBegin, now, 0, trace.SpaceGuest, trace.NoSize, va, 0, 0, 0)
	}
}

// stepBegin opens one sequential step. gpa is the guest-physical
// address the step resolves (0 when it works on the gVA itself).
func (t *tracer) stepBegin(now uint64, step uint8, space trace.Space, va addr.GVA, gpa addr.GPA) {
	if t.rec != nil {
		t.emit(trace.KindStepBegin, now, step, space, trace.NoSize, va, gpa, 0, 0)
	}
}

// fault records a walk terminated by a missing mapping. gpa is 0 for
// guest-space faults (the faulting address is then the gVA).
func (t *tracer) fault(now uint64, space trace.Space, va addr.GVA, gpa addr.GPA) {
	if t.rec != nil {
		t.emit(trace.KindFault, now, 0, space, trace.NoSize, va, gpa, 0, 0)
	}
}

// walkEnd closes a completed walk: the composed frame and size, and the
// critical-path latency in Aux.
func (t *tracer) walkEnd(now uint64, space trace.Space, va addr.GVA, res *WalkResult) {
	if t.rec != nil {
		t.emit(trace.KindWalkEnd, now, 0, space, res.Size, va, 0, res.Frame, res.Latency)
	}
}

// minSize returns the smaller of two page sizes: the composed nested
// translation is only valid at the finer granularity.
func minSize(a, b addr.PageSize) addr.PageSize {
	if a < b {
		return a
	}
	return b
}

// WalkClass is the paper's naming for how much pruning the CWTs
// achieved (§9.4 / Figure 14).
type WalkClass uint8

// Walk classes, cheapest first: a class's value is the number of ECPTs
// probed in all ways.
const (
	// WalkDirect issues a single access: table and way both known.
	WalkDirect WalkClass = iota
	// WalkSize accesses all d ways of one ECPT: size known, way not.
	WalkSize
	// WalkPartial accesses at worst all ways of two ECPTs.
	WalkPartial
	// WalkComplete accesses all d ways of all n ECPTs: no information.
	WalkComplete
)

// String names the class as Figure 14 does.
func (c WalkClass) String() string {
	switch c {
	case WalkDirect:
		return "Direct"
	case WalkSize:
		return "Size"
	case WalkPartial:
		return "Partial"
	case WalkComplete:
		return "Complete"
	}
	// Static fallback: String is on the walk hot path via the per-walk
	// class distributions, so it must not reach fmt.
	return "WalkClass(invalid)"
}
