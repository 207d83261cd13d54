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

// Enabled reports whether the class is currently enabled.
func (c *CWC) Enabled(size addr.PageSize) bool { return c.Has(size) }

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
	// pa is the CWT entry's address in the owning set's space.
	pa P
}

// probeGroup is one (table, way-filter) the walker must probe.
type probeGroup struct {
	size addr.PageSize
	way  int // ecpt.AllWays or a specific way
}

// probePlan is the outcome of consulting the CWC hierarchy for one
// address: which ECPTs/ways to probe, the paper's walk class, and any
// CWT entries to refill.
//
// A plan is written in place by planWalk/planPTEOnly: groups and
// refills alias the fixed backing arrays below, so a walker that
// reuses one plan value per consult performs no heap allocation —
// the software analogue of the hardware's fixed walk registers. The
// slices are valid until the next plan call on the same value. P is
// the address space of the planned set's CWT entries (and thus of the
// refill addresses); walkers keep one plan value per space they
// consult.
type probePlan[P addr.Addr] struct {
	groups  []probeGroup
	class   WalkClass
	refills []refill[P]
	// lookups counts CWC probes performed (each costs one MMU-cache
	// round trip, but probes of different classes go in parallel in
	// hardware; the walker charges one round trip per sequential
	// consult level).
	lookups int
	fault   bool

	// Backing storage: at most one group per page size, and each plan
	// call misses at most one CWC class before returning.
	groupArr  [addr.NumPageSizes]probeGroup
	refillArr [addr.NumPageSizes]refill[P]
	// info is the CWT answer scratch QueryInto fills per consult level,
	// keeping the Info struct off the call-return path.
	info ecpt.Info[P]
}

// reset readies the plan for reuse, re-aliasing the slices onto the
// plan's own backing arrays.
func (p *probePlan[P]) reset() {
	p.groups = p.groupArr[:0]
	p.refills = p.refillArr[:0]
	p.class = WalkDirect
	p.lookups = 0
	p.fault = false
}

func (p *probePlan[P]) addGroup(size addr.PageSize, way int) {
	p.groups = append(p.groups, probeGroup{size: size, way: way})
}

func (p *probePlan[P]) addRefill(size addr.PageSize, key uint64, pa P) {
	// pa 0 means the CWT entry has no backing page to fetch: in
	// concurrent mode, where walkers are read-only and must not
	// first-touch CWT storage, or when no frame is free for the page
	// (ecpt.CWT.RefillPA). Skipping the refill just lets the CWC miss
	// again; otherwise sequential mode always has a backing page here,
	// so its refill stream is unchanged.
	if pa == 0 {
		return
	}
	p.refills = append(p.refills, refill[P]{size: size, key: key, pa: pa})
}

// setAllGroups marks every ECPT for probing with no way information —
// the paper's Complete walk.
func (p *probePlan[P]) setAllGroups() {
	p.addGroup(addr.Page1G, ecpt.AllWays)
	p.addGroup(addr.Page2M, ecpt.AllWays)
	p.addGroup(addr.Page4K, ecpt.AllWays)
}

// planWalk consults the CWCs top-down (1GB, then 2MB, then 4KB) and
// prunes the parallel probe set exactly as §3.2/§4.2 describe, writing
// the result into the caller's reusable plan. set is the ECPT set
// being walked; cwc the walk cache guarding it; usePTE gates the PTE
// class (the Hybrid design only consults PTE-CWT entries in its upper
// rows, §6).
func planWalk[V, P addr.Addr](set *ecpt.Set[V, P], cwc *CWC, va V, usePTE bool, plan *probePlan[P]) {
	plan.reset()

	// --- 1GB (PUD) level ---
	pud := set.Table(addr.Page1G).CWT()
	if pud == nil || !cwc.Has(addr.Page1G) {
		// No PUD pruning possible: nothing is known.
		plan.setAllGroups()
		plan.class = WalkComplete
		return
	}
	info := &plan.info
	pud.QueryInto(addr.VPN(va, addr.Page1G), info)
	plan.lookups++
	if !cwc.Lookup(addr.Page1G, info.EntryKey) {
		plan.addRefill(addr.Page1G, info.EntryKey, pud.RefillPA(info))
		plan.setAllGroups()
		plan.class = WalkComplete
		return
	}
	if info.Present {
		plan.addGroup(addr.Page1G, int(info.Way))
		plan.class = WalkDirect
		return
	}
	if !info.EntryExists || !info.HasSmaller {
		plan.fault = true
		return
	}

	// --- 2MB (PMD) level ---
	pmd := set.Table(addr.Page2M).CWT()
	if pmd == nil || !cwc.Has(addr.Page2M) {
		plan.addGroup(addr.Page2M, ecpt.AllWays)
		plan.addGroup(addr.Page4K, ecpt.AllWays)
		plan.class = WalkPartial
		return
	}
	pmd.QueryInto(addr.VPN(va, addr.Page2M), info)
	plan.lookups++
	if !cwc.Lookup(addr.Page2M, info.EntryKey) {
		plan.addRefill(addr.Page2M, info.EntryKey, pmd.RefillPA(info))
		plan.addGroup(addr.Page2M, ecpt.AllWays)
		plan.addGroup(addr.Page4K, ecpt.AllWays)
		plan.class = WalkPartial
		return
	}
	if info.Present {
		plan.addGroup(addr.Page2M, int(info.Way))
		plan.class = WalkDirect
		return
	}
	if !info.EntryExists || !info.HasSmaller {
		plan.fault = true
		return
	}

	// --- 4KB (PTE) level ---
	pte := set.Table(addr.Page4K).CWT()
	if pte == nil || !usePTE || !cwc.Has(addr.Page4K) {
		// No PTE CWT information: probe every way of the PTE table —
		// the paper's Size walk, the common case for the guest (§9.4).
		plan.addGroup(addr.Page4K, ecpt.AllWays)
		plan.class = WalkSize
		return
	}
	pte.QueryInto(addr.VPN(va, addr.Page4K), info)
	plan.lookups++
	if !cwc.Lookup(addr.Page4K, info.EntryKey) {
		plan.addRefill(addr.Page4K, info.EntryKey, pte.RefillPA(info))
		plan.addGroup(addr.Page4K, ecpt.AllWays)
		plan.class = WalkSize
		return
	}
	if info.Present {
		plan.addGroup(addr.Page4K, int(info.Way))
		plan.class = WalkDirect
		return
	}
	plan.fault = true
}

// planPTEOnly is the Step-1 plan when the 4KB page-table-page
// optimization (§4.3) applies: guest page tables are known to be
// 4KB-mapped in the host, so only the PTE-hECPT can hold them. When
// the Step-1 hCWC has a PTE class (§4.2's first technique), a hit
// turns the Size walk into a Direct one.
func planPTEOnly[V, P addr.Addr](set *ecpt.Set[V, P], cwc *CWC, va V, plan *probePlan[P]) {
	plan.reset()
	pte := set.Table(addr.Page4K).CWT()
	if pte == nil || !cwc.Has(addr.Page4K) {
		plan.addGroup(addr.Page4K, ecpt.AllWays)
		plan.class = WalkSize
		return
	}
	info := &plan.info
	pte.QueryInto(addr.VPN(va, addr.Page4K), info)
	plan.lookups++
	if !cwc.Lookup(addr.Page4K, info.EntryKey) {
		plan.addRefill(addr.Page4K, info.EntryKey, pte.RefillPA(info))
		plan.addGroup(addr.Page4K, ecpt.AllWays)
		plan.class = WalkSize
		return
	}
	if info.Present {
		plan.addGroup(addr.Page4K, int(info.Way))
		plan.class = WalkDirect
		return
	}
	plan.fault = true
}
