// Package tlbsim models the per-core two-level data TLB of Table 2,
// with separate structures per page size:
//
//	L1 DTLB: 64 entries 4-way (4KB), 32 entries 4-way (2MB),
//	         4 entries fully associative (1GB); 2-cycle round trip.
//	L2 DTLB: 1024 entries 12-way (4KB and 2MB),
//	         16 entries 4-way (1GB); 12-cycle round trip.
//
// A TLB entry maps a guest virtual page to the host physical frame the
// full nested translation resolved it to (the {gVA, hPA} pair of §5).
package tlbsim

import (
	"fmt"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/lru"
	"nestedecpt/internal/stats"
)

// SubTLBConfig configures one page size's structure within a level.
type SubTLBConfig struct {
	Entries int
	Ways    int // Ways == Entries means fully associative
}

// LevelConfig configures one TLB level for all page sizes.
type LevelConfig struct {
	Name      string
	PerSize   [addr.NumPageSizes]SubTLBConfig
	LatencyRT uint64
}

// Config configures the two TLB levels.
type Config struct {
	L1, L2 LevelConfig
}

// DefaultConfig returns the Table 2 TLB geometry.
func DefaultConfig() Config {
	return Config{
		L1: LevelConfig{
			Name: "L1 DTLB",
			PerSize: [addr.NumPageSizes]SubTLBConfig{
				addr.Page4K: {Entries: 64, Ways: 4},
				addr.Page2M: {Entries: 32, Ways: 4},
				addr.Page1G: {Entries: 4, Ways: 4},
			},
			LatencyRT: 2,
		},
		L2: LevelConfig{
			Name: "L2 DTLB",
			PerSize: [addr.NumPageSizes]SubTLBConfig{
				addr.Page4K: {Entries: 1024, Ways: 8},
				addr.Page2M: {Entries: 1024, Ways: 8},
				addr.Page1G: {Entries: 16, Ways: 4},
			},
			LatencyRT: 12,
		},
	}
}

// Scaled divides every structure's entry count by div, used when the
// workload footprints are scaled down: preserving the footprint-to-
// TLB-reach ratio preserves the TLB pressure that drives page walks
// (DESIGN.md §5). Associativity is capped at the shrunken entry count.
func (c Config) Scaled(div int) Config {
	if div <= 1 {
		return c
	}
	scale := func(s SubTLBConfig) SubTLBConfig {
		s.Entries /= div
		if s.Entries < 2 {
			s.Entries = 2
		}
		if s.Ways > s.Entries {
			s.Ways = s.Entries
		}
		for s.Entries%s.Ways != 0 {
			s.Ways--
		}
		return s
	}
	for _, sz := range addr.Sizes() {
		c.L1.PerSize[sz] = scale(c.L1.PerSize[sz])
		c.L2.PerSize[sz] = scale(c.L2.PerSize[sz])
	}
	return c
}

// subTLB is one set-associative structure for a single page size: an
// lru.Sets from virtual page number to frame.
type subTLB struct {
	sets int
	// setMask is sets-1 when sets is a power of two (pow2), as it is at
	// every geometry but some Scaled ones, whose set counts setFor
	// reduces by modulo instead.
	setMask uint64
	pow2    bool
	entries lru.Sets[addr.HPA]
}

func newSubTLB(cfg SubTLBConfig) *subTLB {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("tlbsim: bad sub-TLB geometry %+v", cfg))
	}
	sets := cfg.Entries / cfg.Ways
	return &subTLB{
		sets:    sets,
		setMask: uint64(sets - 1),
		pow2:    sets&(sets-1) == 0,
		entries: lru.New[addr.HPA](sets, cfg.Ways),
	}
}

func (t *subTLB) setFor(vpn uint64) int {
	if t.pow2 {
		return int(vpn & t.setMask)
	}
	return int(vpn % uint64(t.sets))
}

func (t *subTLB) lookup(vpn uint64) (addr.HPA, bool) { return t.entries.Lookup(t.setFor(vpn), vpn) }

func (t *subTLB) insert(vpn uint64, frame addr.HPA) { t.entries.Insert(t.setFor(vpn), vpn, frame) }

func (t *subTLB) invalidate(vpn uint64) { t.entries.Remove(t.setFor(vpn), vpn) }

// level is one TLB level holding a sub-TLB per page size.
type level struct {
	cfg     LevelConfig
	perSize [addr.NumPageSizes]*subTLB
	counter stats.Counter
}

func newLevel(cfg LevelConfig) *level {
	l := &level{cfg: cfg}
	for _, s := range addr.Sizes() {
		l.perSize[s] = newSubTLB(cfg.PerSize[s])
	}
	return l
}

func (l *level) lookup(va addr.GVA) (frame addr.HPA, size addr.PageSize, ok bool) {
	// All page-size structures are probed in parallel in hardware; at
	// most one can hit because a virtual page is mapped at one size.
	for _, s := range addr.Sizes() {
		if f, hit := l.perSize[s].lookup(addr.VPN(va, s)); hit {
			l.counter.Hit()
			return f, s, true
		}
	}
	l.counter.Miss()
	return 0, addr.Page4K, false
}

// TLB is the two-level data TLB of one core.
type TLB struct {
	l1, l2 *level
}

// New builds a TLB from cfg.
func New(cfg Config) *TLB {
	return &TLB{l1: newLevel(cfg.L1), l2: newLevel(cfg.L2)}
}

// Result describes the outcome of a TLB access.
type Result struct {
	// Frame is the host physical frame base (valid when Hit).
	Frame addr.HPA
	// Size is the page size of the hitting entry.
	Size addr.PageSize
	// Level is 1 or 2 on a hit, 0 on a full miss.
	Level int
	// Latency is the lookup latency in core cycles.
	Latency uint64
}

// Hit reports whether the access hit in either level.
func (r Result) Hit() bool { return r.Level != 0 }

// Access translates va through the two TLB levels. On an L1 miss that
// hits in L2, the entry is promoted into L1. On a full miss the caller
// must run a page walk and call Fill.
func (t *TLB) Access(va addr.GVA) Result {
	if f, s, ok := t.l1.lookup(va); ok {
		return Result{Frame: f, Size: s, Level: 1, Latency: t.l1.cfg.LatencyRT}
	}
	lat := t.l1.cfg.LatencyRT
	if f, s, ok := t.l2.lookup(va); ok {
		t.l1.perSize[s].insert(addr.VPN(va, s), f)
		return Result{Frame: f, Size: s, Level: 2, Latency: lat + t.l2.cfg.LatencyRT}
	}
	return Result{Latency: lat + t.l2.cfg.LatencyRT}
}

// Fill installs a completed translation into both levels.
func (t *TLB) Fill(va addr.GVA, size addr.PageSize, frame addr.HPA) {
	vpn := addr.VPN(va, size)
	t.l1.perSize[size].insert(vpn, frame)
	t.l2.perSize[size].insert(vpn, frame)
}

// Invalidate removes the translation for va at the given size from
// both levels (a TLB shootdown for one page).
func (t *TLB) Invalidate(va addr.GVA, size addr.PageSize) {
	vpn := addr.VPN(va, size)
	t.l1.perSize[size].invalidate(vpn)
	t.l2.perSize[size].invalidate(vpn)
}

// Flush empties both levels.
func (t *TLB) Flush() {
	for _, s := range addr.Sizes() {
		t.l1.perSize[s].entries.Clear()
		t.l2.perSize[s].entries.Clear()
	}
}

// L1Stats returns the L1 hit/miss counter.
func (t *TLB) L1Stats() stats.Counter { return t.l1.counter }

// L2Stats returns the L2 hit/miss counter.
func (t *TLB) L2Stats() stats.Counter { return t.l2.counter }

// ResetStats zeroes both levels' counters.
func (t *TLB) ResetStats() {
	t.l1.counter.Reset()
	t.l2.counter.Reset()
}
