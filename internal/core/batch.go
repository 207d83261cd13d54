package core

import (
	"nestedecpt/internal/addr"
	"nestedecpt/internal/cachesim"
	"nestedecpt/internal/trace"
)

// BatchState carries the configuration and reusable scratch of a
// walker's WalkBatch entry point: the MSHR count the overlap model
// charges batches against, and per-stage lane-latency buffers. Every
// walker embeds one, which also promotes SetBatchMSHRs onto the walker.
//
// Batched walks keep the simulator's functional/timing split strict:
// WalkBatch executes each lane's full functional sequence in element
// order — every cache consult, LRU update, DRAM row activation, and
// statistics increment lands exactly as N sequential Walks would land
// them — and only the *returned batch latency* models the overlap an
// MSHR file buys. That is what makes a batch provably equivalent to
// its sequential unrolling (the differential oracle checks results
// element-wise and diffs the full statistics structures) while still
// charging overlapped timing.
type BatchState struct {
	mshrs int
	// stage[s] accumulates the per-lane latency of batch stage s; the
	// nested walker uses all three (one per Figure 6 step), single-step
	// walkers use stage[0] only. Receiver-owned so WalkBatch stays
	// allocation-free after the first batch.
	stage [3][]uint64
}

// SetBatchMSHRs sets how many walk lanes may keep misses outstanding
// together in one batch stage. n <= 0 selects
// cachesim.DefaultWalkMSHRs; n == 1 serializes lanes, reproducing
// sequential latency exactly.
func (b *BatchState) SetBatchMSHRs(n int) { b.mshrs = n }

// BatchMSHRs reports the effective MSHR count.
func (b *BatchState) BatchMSHRs() int {
	if b.mshrs <= 0 {
		return cachesim.DefaultWalkMSHRs
	}
	return b.mshrs
}

// grow sizes every stage buffer to n lanes. It is the one place batch
// scratch may allocate — called once per batch before the hot lane
// loop, so steady-state batches of a stable width never allocate.
// noinline keeps the cold growth make here, where the ignore directive
// justifies it, instead of inlined into every hot WalkBatch call site.
//
//go:noinline
func (b *BatchState) grow(n int) {
	for s := range b.stage {
		if cap(b.stage[s]) < n {
			//nestedlint:ignore one-time scratch growth amortized across batches; 0-alloc steady state is pinned by TestWalkAllocationFree
			b.stage[s] = make([]uint64, n)
		}
		b.stage[s] = b.stage[s][:n]
	}
}

// emitBatchBegin opens a batch bracket in the trace: Aux is the lane
// count, so the auditor can match it against the walks the bracket
// contains.
//
//nestedlint:hotpath
func emitBatchBegin(rec *trace.Recorder, kind trace.WalkerKind, now uint64, lanes int) {
	rec.Emit(trace.Event{
		Now: now, Kind: trace.KindBatchBegin, Walker: kind,
		Space: trace.SpaceGuest, Size: trace.NoSize, Way: trace.WayNone,
		Aux: uint64(lanes),
	})
}

// emitBatchEnd closes a batch bracket: Aux is the MSHR-overlapped
// batch latency.
//
//nestedlint:hotpath
func emitBatchEnd(rec *trace.Recorder, kind trace.WalkerKind, now uint64, lat uint64) {
	rec.Emit(trace.Event{
		Now: now, Kind: trace.KindBatchEnd, Walker: kind,
		Space: trace.SpaceGuest, Size: trace.NoSize, Way: trace.WayNone,
		Aux: lat,
	})
}

// stagedLane is a walker whose walk exposes internal parallel stages:
// walkInto performs one translation into *res (overwriting it), after
// which stages reports the AccessParallel group latency of each stage
// that walk reached (zero for the ones it did not).
type stagedLane interface {
	walkInto(now uint64, va addr.GVA, res *WalkResult) error
	stages() []uint64
}

// stagedWalkBatch is the batch entry point of the ECPT walkers: the
// lanes execute functionally in element order (their state effects and
// per-lane results are exactly those of sequential Walks), each lane
// writing straight into out[i]; the batch latency overlaps each memory
// stage across lanes under the MSHR model, while per-lane fixed costs
// (MMU-cache consults, hash latency) serialize. Faulted lanes
// contribute the stages they completed and no fixed cost.
//
//nestedlint:hotpath
func stagedWalkBatch(w stagedLane, b *BatchState, t *tracer, now uint64, gvas []addr.GVA, out []WalkResult, errs []error) uint64 {
	if len(gvas) == 0 {
		return 0
	}
	if t.rec != nil {
		emitBatchBegin(t.rec, t.kind, now, len(gvas))
	}
	b.grow(len(gvas))
	var lat uint64
	for i := range gvas {
		errs[i] = w.walkInto(now, gvas[i], &out[i])
		var mem uint64
		for s, l := range w.stages() {
			b.stage[s][i] = l
			mem += l
		}
		if errs[i] == nil {
			lat += out[i].Latency - mem
		}
	}
	for s := range w.stages() {
		lat += cachesim.OverlapWaves(b.stage[s], b.mshrs)
	}
	if t.rec != nil {
		emitBatchEnd(t.rec, t.kind, now+lat, lat)
	}
	return lat
}

// SequentialWalkBatch is the batch entry point for walkers whose lanes
// expose no internal stage structure (radix walks are a serial pointer
// chase; the baselines likewise): each lane's whole critical-path
// latency forms one overlap stage. Faulted lanes report no latency and
// contribute nothing to the batch charge — the caller services and
// retries them outside the batch.
//
// out and errs must each hold at least len(gvas) elements; lane i's
// result and error land in out[i] / errs[i] exactly as a sequential
// w.Walk(now, gvas[i]) would produce them.
//
//nestedlint:hotpath
func SequentialWalkBatch(w Walker, b *BatchState, rec *trace.Recorder, kind trace.WalkerKind, now uint64, gvas []addr.GVA, out []WalkResult, errs []error) uint64 {
	if len(gvas) == 0 {
		return 0
	}
	if rec != nil {
		emitBatchBegin(rec, kind, now, len(gvas))
	}
	b.grow(len(gvas))
	for i, va := range gvas {
		out[i], errs[i] = w.Walk(now, va)
		b.stage[0][i] = out[i].Latency
	}
	lat := cachesim.OverlapWaves(b.stage[0], b.mshrs)
	if rec != nil {
		emitBatchEnd(rec, kind, now+lat, lat)
	}
	return lat
}
