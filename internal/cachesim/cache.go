// Package cachesim models the on-chip cache hierarchy and the DRAM
// main memory of Table 2: private L1/L2, a shared L3, MSHR-limited
// miss handling, and a channel/bank DRAM with open-row timing.
//
// The hierarchy serves two request sources — the processor core and
// the MMU's page-table walker — and keeps per-source statistics so the
// evaluation can reproduce Figure 13 (MMU requests per kilo
// instruction, and L2/L3 misses per kilo instruction) as well as the
// cache-pollution argument of §9.3: radix walks insert intermediate
// page-table lines into the caches whereas ECPT walks insert only leaf
// translation lines.
package cachesim

import (
	"fmt"
	"math/bits"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/lru"
	"nestedecpt/internal/stats"
)

// Source identifies who issued a memory request.
type Source uint8

const (
	// SourceCPU marks demand requests from the core's loads and stores.
	SourceCPU Source = iota
	// SourceMMU marks requests from the page-table walker.
	SourceMMU
	numSources
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceCPU:
		return "cpu"
	case SourceMMU:
		return "mmu"
	}
	return fmt.Sprintf("Source(%d)", uint8(s))
}

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name      string
	SizeBytes uint64
	Ways      int
	// LatencyRT is the round-trip access latency in core cycles.
	LatencyRT uint64
	// MSHRs bounds the number of outstanding misses.
	MSHRs int
}

// LevelStats aggregates a level's behaviour per request source.
type LevelStats struct {
	Accesses [2]uint64 // indexed by Source
	Misses   [2]uint64
	// MSHRSamples tracks MSHR occupancy observed when parallel groups
	// miss in this level (mean ≈4 and max ≤12 in the paper, §9.3).
	MSHROccupancy stats.Average
	MSHRMax       int
}

// cacheLevel is one set-associative, LRU, write-allocate cache: an
// lru.Sets of line numbers, the set picked by the line's low bits.
type cacheLevel struct {
	cfg     LevelConfig
	setMask uint64
	sets    lru.Sets[struct{}]
	stats   LevelStats
}

func newCacheLevel(cfg LevelConfig) *cacheLevel {
	lines := int(cfg.SizeBytes / addr.CacheLineBytes)
	if lines == 0 || cfg.Ways <= 0 || lines%cfg.Ways != 0 {
		panic(fmt.Sprintf("cachesim: bad geometry for %s: %d lines, %d ways", cfg.Name, lines, cfg.Ways))
	}
	sets := lines / cfg.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cachesim: %s set count %d is not a power of two", cfg.Name, sets))
	}
	return &cacheLevel{cfg: cfg, setMask: uint64(sets - 1), sets: lru.New[struct{}](sets, cfg.Ways)}
}

// set returns the index of line's set.
func (c *cacheLevel) set(line uint64) int { return int(line & c.setMask) }

// access looks line up on behalf of src and leaves it present and most
// recently used: refreshed on a hit, filled over the victim on a miss.
func (c *cacheLevel) access(line uint64, src Source) bool {
	c.stats.Accesses[src]++
	hit := c.sets.Access(c.set(line), line)
	if !hit {
		c.stats.Misses[src]++
	}
	return hit
}

// HierarchyConfig configures the full memory hierarchy.
type HierarchyConfig struct {
	L1, L2, L3 LevelConfig
	DRAM       DRAMConfig
	// IssueGapCycles staggers the members of a parallel access group:
	// even an aggressive MMU cannot inject unlimited requests per
	// cycle, which is what bounds the bandwidth cost of ECPT's
	// parallel probes (§3.2).
	IssueGapCycles uint64
}

// Scaled divides each level's capacity by div (keeping associativity
// and latency), for scaled-down workloads: preserving the ratio of
// page-table working set to cache capacity is what keeps walk-time
// cache behaviour faithful (DESIGN.md §5). Each level's set count is
// rounded down to a power of two, at least one set, so every divisor
// yields a geometry NewHierarchy accepts.
func (c HierarchyConfig) Scaled(div int) HierarchyConfig {
	if div < 1 {
		div = 1
	}
	scale := func(l LevelConfig) LevelConfig {
		if l.Ways > 0 {
			setBytes := uint64(l.Ways) * addr.CacheLineBytes
			sets := l.SizeBytes / uint64(div) / setBytes
			l.SizeBytes = setBytes << (bits.Len64(sets|1) - 1)
		}
		return l
	}
	c.L1 = scale(c.L1)
	c.L2 = scale(c.L2)
	c.L3 = scale(c.L3)
	return c
}

// DefaultHierarchyConfig returns the Table 2 hierarchy.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1:   LevelConfig{Name: "L1", SizeBytes: 32 << 10, Ways: 8, LatencyRT: 2, MSHRs: 10},
		L2:   LevelConfig{Name: "L2", SizeBytes: 512 << 10, Ways: 8, LatencyRT: 16, MSHRs: 20},
		L3:   LevelConfig{Name: "L3", SizeBytes: 16 << 20, Ways: 16, LatencyRT: 56, MSHRs: 20},
		DRAM: DefaultDRAMConfig(),
		// One new request every other core cycle.
		IssueGapCycles: 2,
	}
}

// Hierarchy is the three-level cache plus DRAM memory system.
// A Hierarchy is confined to one simulated machine; concurrent sweep
// runs each build their own, so nothing here may be package-global
// mutable state (the sweep engine requires `go test -race`-clean
// simulations).
type Hierarchy struct {
	cfg    HierarchyConfig
	l1     *cacheLevel
	l2     *cacheLevel
	l3     *cacheLevel
	dram   *DRAM
	remote RemoteStats
}

// NewHierarchy builds a hierarchy from cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		cfg:  cfg,
		l1:   newCacheLevel(cfg.L1),
		l2:   newCacheLevel(cfg.L2),
		l3:   newCacheLevel(cfg.L3),
		dram: NewDRAM(cfg.DRAM),
	}
}

// ServiceLevel reports where a request was satisfied.
type ServiceLevel uint8

// Service levels, nearest first.
const (
	ServedL1 ServiceLevel = iota
	ServedL2
	ServedL3
	ServedDRAM
)

// String names the service level.
func (s ServiceLevel) String() string {
	switch s {
	case ServedL1:
		return "L1"
	case ServedL2:
		return "L2"
	case ServedL3:
		return "L3"
	case ServedDRAM:
		return "DRAM"
	}
	return fmt.Sprintf("ServiceLevel(%d)", uint8(s))
}

// Access performs one memory access at host physical address pa,
// starting at core cycle now, and returns its latency in core cycles
// and the level that serviced it. Writes are modelled as write-allocate
// with the same timing as reads.
//
//nestedlint:hotpath
func (h *Hierarchy) Access(now uint64, pa addr.HPA, src Source) (lat uint64, served ServiceLevel) {
	line := addr.CacheLine(pa)
	if h.l1.access(line, src) {
		return h.cfg.L1.LatencyRT, ServedL1
	}
	if h.l2.access(line, src) {
		return h.cfg.L2.LatencyRT, ServedL2
	}
	if h.l3.access(line, src) {
		return h.cfg.L3.LatencyRT, ServedL3
	}
	return h.cfg.L3.LatencyRT + h.dram.Access(now+h.cfg.L3.LatencyRT, pa), ServedDRAM
}

// AccessParallel issues a group of simultaneous requests (one parallel
// step of a nested ECPT walk). Requests are staggered by the issue gap;
// the group's latency is the completion time of its slowest member.
// The group's L2/L3 miss counts feed the MSHR occupancy statistics.
//
//nestedlint:hotpath
func (h *Hierarchy) AccessParallel(now uint64, pas []addr.HPA, src Source) uint64 {
	if len(pas) == 0 {
		return 0
	}
	var maxLat uint64
	l2miss, l3miss := 0, 0
	for i, pa := range pas {
		issue := uint64(i) * h.cfg.IssueGapCycles
		lat, served := h.Access(now+issue, pa, src)
		if served >= ServedL3 {
			l2miss++
		}
		if served == ServedDRAM {
			l3miss++
		}
		if t := issue + lat; t > maxLat {
			maxLat = t
		}
	}
	h.sampleMSHR(h.l2, l2miss)
	h.sampleMSHR(h.l3, l3miss)
	// If a group overflows the MSHRs, the excess must wait for earlier
	// misses to retire: approximate with one extra DRAM round per
	// overflow wave.
	if over := l3miss - h.cfg.L3.MSHRs; over > 0 {
		waves := (over + h.cfg.L3.MSHRs - 1) / h.cfg.L3.MSHRs
		maxLat += uint64(waves) * h.dram.cfg.RowMissLatency
	}
	return maxLat
}

func (h *Hierarchy) sampleMSHR(lvl *cacheLevel, misses int) {
	if misses == 0 {
		return
	}
	occ := misses
	if occ > lvl.cfg.MSHRs {
		occ = lvl.cfg.MSHRs
	}
	lvl.stats.MSHROccupancy.Observe(uint64(occ))
	if occ > lvl.stats.MSHRMax {
		lvl.stats.MSHRMax = occ
	}
}

// Probe reports whether pa is present at each level without disturbing
// replacement state or statistics (used by tests).
func (h *Hierarchy) Probe(pa addr.HPA) (inL1, inL2, inL3 bool) {
	line := addr.CacheLine(pa)
	in := func(c *cacheLevel) bool { return c.sets.Contains(c.set(line), line) }
	return in(h.l1), in(h.l2), in(h.l3)
}

// AccessRemote models a request from another core sharing the L3: it
// probes and fills only the shared level (remote private caches filter
// the rest) and returns its latency. The simulator drives one core's
// access stream and injects the co-runners' shared-cache traffic this
// way, reproducing the 8-core contention of the paper's testbed.
func (h *Hierarchy) AccessRemote(now uint64, pa addr.HPA) uint64 {
	line := addr.CacheLine(pa)
	h.remote.Accesses++
	// The per-source statistics count only this core's requests.
	if h.l3.sets.Access(h.l3.set(line), line) {
		return h.cfg.L3.LatencyRT
	}
	h.remote.Misses++
	return h.cfg.L3.LatencyRT + h.dram.Access(now+h.cfg.L3.LatencyRT, pa)
}

// RemoteStats counts co-runner traffic injected via AccessRemote.
type RemoteStats struct {
	Accesses uint64
	Misses   uint64
}

// RemoteTraffic returns the accumulated co-runner statistics.
func (h *Hierarchy) RemoteTraffic() RemoteStats { return h.remote }

// Stats returns a copy of the statistics of each level.
func (h *Hierarchy) Stats() (l1, l2, l3 LevelStats) {
	return h.l1.stats, h.l2.stats, h.l3.stats
}

// DRAMStats returns DRAM access statistics.
func (h *Hierarchy) DRAMStats() DRAMStats { return h.dram.Stats() }

// ResetStats zeroes all statistics (used at the end of warm-up) while
// preserving cache contents.
func (h *Hierarchy) ResetStats() {
	h.l1.stats = LevelStats{}
	h.l2.stats = LevelStats{}
	h.l3.stats = LevelStats{}
	h.remote = RemoteStats{}
	h.dram.ResetStats()
}
