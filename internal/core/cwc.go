package core

import (
	"nestedecpt/internal/addr"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/mmucache"
	"nestedecpt/internal/stats"
	"nestedecpt/internal/trace"
)

// CWCConfig sizes one cuckoo walk cache, in entries per CWT class.
// Zero means entries of that class are never cached (e.g. no PTE class
// in the gCWC, §4.2).
type CWCConfig struct {
	PTE, PMD, PUD int
}

// CWC is a Cuckoo Walk Cache: a partitioned MMU cache holding CWT
// entries, one partition per page-size class (Table 2 partitions, e.g.
// "16PMD + 2PUD" for the gCWC).
type CWC struct {
	caches [addr.NumPageSizes]*mmucache.Cache[uint64, uint64]
	// enabled lets the adaptive controller (§4.2) turn a class off
	// without losing its contents or statistics.
	enabled [addr.NumPageSizes]bool
	// window tracks per-class hits/misses since the last interval
	// sample, for Figure 12 and the adaptive thresholds.
	window [addr.NumPageSizes]stats.Counter
}

// NewCWC builds a CWC with the given per-class capacities.
func NewCWC(name string, cfg CWCConfig) *CWC {
	c := &CWC{}
	sizes := [addr.NumPageSizes]int{
		addr.Page4K: cfg.PTE,
		addr.Page2M: cfg.PMD,
		addr.Page1G: cfg.PUD,
	}
	for _, s := range addr.Sizes() {
		if sizes[s] > 0 {
			c.caches[s] = mmucache.New[uint64, uint64](name+"/"+s.LevelName(), sizes[s])
			c.enabled[s] = true
		}
	}
	return c
}

// SetTrace attaches a trace recorder to every class partition, tagging
// each inner cache with its page-size class so cache events carry the
// partition they touched.
func (c *CWC) SetTrace(r *trace.Recorder, id trace.CacheID, walker trace.WalkerKind) {
	for _, s := range addr.Sizes() {
		if c.caches[s] != nil {
			c.caches[s].SetTrace(r, id, walker, s)
		}
	}
}

// Has reports whether the class for size exists and is enabled.
func (c *CWC) Has(size addr.PageSize) bool {
	return c.caches[size] != nil && c.enabled[size]
}

// SetEnabled toggles a class (adaptive PTE-hCWT caching).
func (c *CWC) SetEnabled(size addr.PageSize, on bool) {
	if c.caches[size] != nil {
		c.enabled[size] = on
	}
}

// Lookup probes the class for a CWT entry key. A CWT entry is exactly
// one cache line, so the CWC caches whole entries.
func (c *CWC) Lookup(size addr.PageSize, key uint64) bool {
	if !c.Has(size) {
		return false
	}
	_, ok := c.caches[size].Lookup(key)
	c.window[size].Record(ok)
	return ok
}

// Insert caches a CWT entry after its background refill completes.
func (c *CWC) Insert(size addr.PageSize, key uint64) {
	if c.Has(size) {
		c.caches[size].Insert(key, 1)
	}
}

// Stats returns the cumulative hit/miss counter of one class.
func (c *CWC) Stats(size addr.PageSize) stats.Counter {
	if c.caches[size] == nil {
		return stats.Counter{}
	}
	return c.caches[size].Stats()
}

// WindowStats returns and resets the per-interval counter of a class.
func (c *CWC) WindowStats(size addr.PageSize) stats.Counter {
	w := c.window[size]
	c.window[size].Reset()
	return w
}

// ResetStats zeroes cumulative and windowed counters.
func (c *CWC) ResetStats() {
	for _, s := range addr.Sizes() {
		if c.caches[s] != nil {
			c.caches[s].ResetStats()
		}
		c.window[s].Reset()
	}
}

// refill identifies one CWT entry that must be fetched into a CWC in
// the background after a miss. P is the address space the owning table
// set's CWT entries live in: HPA for hCWTs, GPA for gCWTs (which is
// what makes the STC necessary, §4.1).
type refill[P addr.Addr] struct {
	size addr.PageSize
	key  uint64
	// pa is the CWT entry's address in the owning set's space; 0 means
	// there is nothing to fetch (see planWalk).
	pa P
}

// probeGroup is one (table, way-filter) the walker must probe.
type probeGroup struct {
	size addr.PageSize
	way  int // ecpt.AllWays or a specific way
}

// probePlan is the outcome of consulting the CWC hierarchy for one
// address: which ECPTs/ways to probe, the paper's walk class, and the
// CWT entry to refill, if any.
//
// A plan is written in place by planWalk: groups alias the fixed
// backing array below, so a walker that reuses one plan value per
// consult performs no heap allocation — the software analogue of the
// hardware's fixed walk registers. The slice is valid until the next
// plan call on the same value. P is the address space of the planned
// set's CWT entries (and thus of the refill address); walkers keep one
// plan value per space they consult.
type probePlan[P addr.Addr] struct {
	groups []probeGroup
	class  WalkClass
	// refill is the entry the consult missed on; the descent stops at
	// its first CWC miss, so there is at most one.
	refill refill[P]
	fault  bool

	// groupArr backs groups: at most one group per page size.
	groupArr [addr.NumPageSizes]probeGroup
	// info is the CWT answer scratch QueryInto fills per consult level,
	// keeping the Info struct off the call-return path.
	info ecpt.Info[P]
}

func (p *probePlan[P]) addGroup(size addr.PageSize, way int) {
	p.groups = append(p.groups, probeGroup{size: size, way: way})
}

// planWalk consults the CWCs top-down, from top to 4KB (PUD, then PMD,
// then PTE), and prunes the parallel probe set as §3.2/§4.2 describe,
// writing the result into the caller's reusable plan. set is the ECPT
// set being walked and cwc the walk cache guarding it. top is where
// the descent starts: Page1G for a full walk, Page4K when the size is
// known to be 4KB (§4.3's page-table pages). usePTE gates the PTE
// class (the Hybrid design only consults PTE-CWT entries in its upper
// rows, §6).
//
// A level with no CWT, no enabled CWC class or a CWC miss leaves that
// size and every smaller one to be probed in all ways: the walk class
// counts those sizes (Size, Partial, Complete). A hit on a present
// entry is a Direct walk; a hit proving absence is a fault, as is any
// hit at 4KB that is not present.
func planWalk[V, P addr.Addr](set *ecpt.Set[V, P], cwc *CWC, va V, top addr.PageSize, usePTE bool, plan *probePlan[P]) {
	plan.groups = plan.groupArr[:0]
	plan.class = WalkDirect
	plan.refill.pa = 0
	plan.fault = false
	info := &plan.info
	for size := top; ; size-- {
		cwt := set.Table(size).CWT()
		hit := false
		if cwt != nil && cwc.Has(size) && (usePTE || size != addr.Page4K) {
			cwt.QueryInto(addr.VPN(va, size), info)
			if hit = cwc.Lookup(size, info.EntryKey); !hit {
				// RefillPA is 0 when the entry has no backing page to
				// fetch: in concurrent mode, where walkers are read-only
				// and must not first-touch CWT storage, or when no frame
				// is free for the page. The CWC then just misses again.
				plan.refill = refill[P]{size: size, key: info.EntryKey, pa: cwt.RefillPA(info)}
			}
		}
		if !hit {
			for s := int(size); s >= 0; s-- {
				plan.addGroup(addr.PageSize(s), ecpt.AllWays)
			}
			plan.class = WalkClass(size + 1)
			return
		}
		if info.Present {
			plan.addGroup(size, int(info.Way))
			return
		}
		if size == addr.Page4K || !info.EntryExists || !info.HasSmaller {
			plan.fault = true
			return
		}
	}
}
