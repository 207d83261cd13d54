package baselines

import (
	"fmt"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/cachesim"
	"nestedecpt/internal/core"
	"nestedecpt/internal/hypervisor"
	"nestedecpt/internal/kernel"
	"nestedecpt/internal/lru"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/trace"
)

// POMTLBConfig sizes the part-of-memory TLB.
type POMTLBConfig struct {
	// Entries is the number of translation entries in the in-DRAM TLB
	// (the original design provisions on the order of a million).
	Entries int
	// Ways is its set associativity.
	Ways int
}

// DefaultPOMTLBConfig returns a 1M-entry, 4-way POM-TLB.
func DefaultPOMTLBConfig() POMTLBConfig { return POMTLBConfig{Entries: 1 << 20, Ways: 4} }

// POMTLB models the §9.6 part-of-memory TLB: after an L2 TLB miss the
// hardware probes a very large TLB resident in DRAM (its entries are
// cacheable in L2/L3, which is where most of its benefit comes from);
// on a POM-TLB miss a full nested radix walk services the request and
// installs the translation. The paper models a perfect page-size
// predictor, so a probe costs a single set access.
//
// An entry is an lru.Sets key VPN(va, size)<<2 | size holding the frame,
// in the set va's 4KB page number selects; a probe looks the set up once
// per page size.
type POMTLB struct {
	cfg      POMTLBConfig
	mem      core.MemSystem
	fallback *core.RadixWalker
	sets     int
	entries  lru.Sets[addr.HPA]
	base     addr.HPA
	hits     uint64
	misses   uint64

	// BatchState provides SetBatchMSHRs and the batch scratch.
	core.BatchState
}

// WalkBatch implements core.Walker via the generic single-stage
// batcher (the baselines emit no trace events).
//
//nestedlint:hotpath
func (w *POMTLB) WalkBatch(now uint64, gvas []addr.GVA, out []core.WalkResult, errs []error) uint64 {
	return core.SequentialWalkBatch(w, &w.BatchState, nil, trace.WalkerNone, now, gvas, out, errs)
}

// NewPOMTLB builds the design over a full nested-radix fallback. It
// reserves the POM-TLB in host physical memory, or returns the host
// allocator's *memsim.OutOfMemoryError when it does not fit.
func NewPOMTLB(cfg POMTLBConfig, mem core.MemSystem, guest *kernel.Kernel, host *hypervisor.Hypervisor) (*POMTLB, error) {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic("baselines: bad POM-TLB geometry")
	}
	base, err := host.Allocator().AllocRegion(uint64(cfg.Entries)*16, memsim.PurposePageTable)
	if err != nil {
		return nil, fmt.Errorf("baselines: the POM-TLB: %w", err)
	}
	return &POMTLB{
		cfg:      cfg,
		mem:      mem,
		fallback: core.NewNestedRadix(core.DefaultRadixWalkConfig(), mem, guest, host),
		sets:     cfg.Entries / cfg.Ways,
		entries:  lru.New[addr.HPA](cfg.Entries/cfg.Ways, cfg.Ways),
		base:     base,
	}, nil
}

// Name implements core.Walker.
func (w *POMTLB) Name() string { return "POM-TLB" }

// HitRate returns the POM-TLB's own hit rate.
func (w *POMTLB) HitRate() float64 {
	t := w.hits + w.misses
	if t == 0 {
		return 0
	}
	return float64(w.hits) / float64(t)
}

// Flush empties the POM-TLB. It caches final translations exactly as
// the on-chip TLBs do, so a guest unmap must shoot it down with them.
func (w *POMTLB) Flush() { w.entries.Clear() }

// pomKey is the key of va's entry at size.
func pomKey(va addr.GVA, size addr.PageSize) uint64 { return addr.VPN(va, size)<<2 | uint64(size) }

// Walk implements core.Walker.
//
//nestedlint:hotpath
func (w *POMTLB) Walk(now uint64, va addr.GVA) (core.WalkResult, error) {
	var res core.WalkResult
	// With a perfect page-size predictor one set probe suffices; the
	// set's entries share a line, so one memory access covers them.
	set := int(addr.VPN(va, addr.Page4K) % uint64(w.sets))
	lineAddr := addr.Add(w.base, uint64(set*w.cfg.Ways)*16)
	lat, _ := w.mem.Access(now, lineAddr, cachesim.SourceMMU)
	res.Accesses++

	for _, size := range addr.Sizes() {
		if frame, ok := w.entries.Lookup(set, pomKey(va, size)); ok {
			w.hits++
			res.Frame = frame
			res.Size = size
			res.Latency = lat
			return res, nil
		}
	}

	// POM-TLB miss: full nested radix walk, then install.
	w.misses++
	fres, err := w.fallback.Walk(now+lat, va)
	if err != nil {
		return res, err
	}
	res.Frame = fres.Frame
	res.Size = fres.Size
	res.Latency = lat + fres.Latency
	res.Accesses += fres.Accesses
	res.BackgroundCycles = fres.BackgroundCycles
	res.BackgroundAccesses = fres.BackgroundAccesses

	w.entries.Insert(set, pomKey(va, fres.Size), fres.Frame)
	return res, nil
}
