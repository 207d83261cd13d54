package cachesim

import (
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/vhash"
)

// The reference model: the three-array cache level with separate
// lookup, fill and contains scans, the valid-flag DRAM row buffer and
// the hierarchy paths over them, as they stood before the ways were
// packed and the scans fused. FuzzHierarchyAgainstReference holds the
// implementation to it call by call.

type refLevel struct {
	cfg      LevelConfig
	sets     int
	tags     []uint64
	valid    []bool
	lastUse  []uint64
	useClock uint64
	stats    LevelStats
}

func newRefLevel(cfg LevelConfig) *refLevel {
	lines := int(cfg.SizeBytes / addr.CacheLineBytes)
	return &refLevel{
		cfg:     cfg,
		sets:    lines / cfg.Ways,
		tags:    make([]uint64, lines),
		valid:   make([]bool, lines),
		lastUse: make([]uint64, lines),
	}
}

func (c *refLevel) setFor(line uint64) int { return int(line) & (c.sets - 1) }

func (c *refLevel) lookup(line uint64, src Source) bool {
	c.stats.Accesses[src]++
	c.useClock++
	base := c.setFor(line) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == line {
			c.lastUse[i] = c.useClock
			return true
		}
	}
	c.stats.Misses[src]++
	return false
}

func (c *refLevel) fill(line uint64) {
	c.useClock++
	base := c.setFor(line) * c.cfg.Ways
	victim := base
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if !c.valid[i] {
			victim = i
			break
		}
		if c.lastUse[i] < c.lastUse[victim] {
			victim = i
		}
	}
	c.tags[victim] = line
	c.valid[victim] = true
	c.lastUse[victim] = c.useClock
}

func (c *refLevel) contains(line uint64) bool {
	base := c.setFor(line) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == line {
			return true
		}
	}
	return false
}

type refDRAM struct {
	cfg       DRAMConfig
	openRow   []uint64
	rowValid  []bool
	busyUntil []uint64
	stats     DRAMStats
}

func newRefDRAM(cfg DRAMConfig) *refDRAM {
	n := cfg.Channels * cfg.Banks
	return &refDRAM{cfg: cfg, openRow: make([]uint64, n), rowValid: make([]bool, n), busyUntil: make([]uint64, n)}
}

func (d *refDRAM) access(now uint64, pa addr.HPA) uint64 {
	d.stats.Accesses++
	row := uint64(pa) / d.cfg.RowBytes
	bank := int(row % uint64(len(d.busyUntil)))
	var queue uint64
	if d.busyUntil[bank] > now {
		queue = d.busyUntil[bank] - now
		d.stats.QueueCycles += queue
		d.stats.QueuedAccesses++
	}
	var service uint64
	if d.rowValid[bank] && d.openRow[bank] == row {
		d.stats.RowHits++
		service = d.cfg.RowHitLatency
	} else {
		d.stats.RowMisses++
		service = d.cfg.RowMissLatency
		d.openRow[bank] = row
		d.rowValid[bank] = true
	}
	d.busyUntil[bank] = now + queue + service
	return queue + service
}

type refHierarchy struct {
	cfg        HierarchyConfig
	l1, l2, l3 *refLevel
	dram       *refDRAM
	remote     RemoteStats
}

func newRefHierarchy(cfg HierarchyConfig) *refHierarchy {
	return &refHierarchy{cfg: cfg, l1: newRefLevel(cfg.L1), l2: newRefLevel(cfg.L2), l3: newRefLevel(cfg.L3), dram: newRefDRAM(cfg.DRAM)}
}

func (h *refHierarchy) access(now uint64, pa addr.HPA, src Source) (uint64, ServiceLevel) {
	line := addr.CacheLine(pa)
	if h.l1.lookup(line, src) {
		return h.cfg.L1.LatencyRT, ServedL1
	}
	if h.l2.lookup(line, src) {
		h.l1.fill(line)
		return h.cfg.L2.LatencyRT, ServedL2
	}
	if h.l3.lookup(line, src) {
		h.l1.fill(line)
		h.l2.fill(line)
		return h.cfg.L3.LatencyRT, ServedL3
	}
	dlat := h.dram.access(now+h.cfg.L3.LatencyRT, pa)
	h.l1.fill(line)
	h.l2.fill(line)
	h.l3.fill(line)
	return h.cfg.L3.LatencyRT + dlat, ServedDRAM
}

func (h *refHierarchy) accessParallel(now uint64, pas []addr.HPA, src Source) uint64 {
	if len(pas) == 0 {
		return 0
	}
	var maxLat uint64
	l2miss, l3miss := 0, 0
	for i, pa := range pas {
		issue := uint64(i) * h.cfg.IssueGapCycles
		lat, served := h.access(now+issue, pa, src)
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
	sample := func(lvl *refLevel, misses int) {
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
	sample(h.l2, l2miss)
	sample(h.l3, l3miss)
	if over := l3miss - h.cfg.L3.MSHRs; over > 0 {
		waves := (over + h.cfg.L3.MSHRs - 1) / h.cfg.L3.MSHRs
		maxLat += uint64(waves) * h.dram.cfg.RowMissLatency
	}
	return maxLat
}

func (h *refHierarchy) accessRemote(now uint64, pa addr.HPA) uint64 {
	line := addr.CacheLine(pa)
	h.remote.Accesses++
	if h.l3.contains(line) {
		h.l3.lookup(line, SourceCPU)
		h.l3.stats.Accesses[SourceCPU]--
		return h.cfg.L3.LatencyRT
	}
	h.remote.Misses++
	dlat := h.dram.access(now+h.cfg.L3.LatencyRT, pa)
	h.l3.fill(line)
	return h.cfg.L3.LatencyRT + dlat
}

// geometry builds a hierarchy of the given ways x sets per level, with
// 4 L3 MSHRs so that the larger parallel groups overflow them.
func geometry(w1, s1, w2, s2, w3, s3 int, dram DRAMConfig) HierarchyConfig {
	level := func(name string, ways, sets int, lat uint64) LevelConfig {
		return LevelConfig{Name: name, SizeBytes: uint64(ways*sets) * addr.CacheLineBytes, Ways: ways, LatencyRT: lat, MSHRs: 4}
	}
	return HierarchyConfig{
		L1: level("L1", w1, s1, 2), L2: level("L2", w2, s2, 16), L3: level("L3", w3, s3, 56),
		DRAM: dram, IssueGapCycles: 2,
	}
}

// refGeometries are the odd shapes the differential run covers; the
// second DRAM takes the divide/modulo mapping the default one skips.
var refGeometries = []HierarchyConfig{
	geometry(1, 4, 1, 16, 1, 64, DefaultDRAMConfig()), // direct mapped
	geometry(4, 1, 8, 1, 64, 1, DefaultDRAMConfig()),  // one set, fully associative
	geometry(2, 4, 4, 8, 16, 16, DefaultDRAMConfig()), // 16-way L3
	geometry(3, 2, 5, 4, 7, 8, DRAMConfig{Channels: 3, Banks: 5, RowHitLatency: 50, RowMissLatency: 110, RowBytes: 3000}),
	simScaledConfig(),
}

// refSpans are working sets in lines: inside the smallest L1, around
// the L2/L3 capacities, and far above every capacity.
var refSpans = []uint64{3, 40, 700, 1 << 20}

// runAgainstReference drives the hierarchy and the reference model
// with one seeded stream of mixed calls and reports the first
// difference in any call's result or in the final state.
func runAgainstReference(t *testing.T, cfg HierarchyConfig, span, seed uint64, ops int) {
	t.Helper()
	h, ref := NewHierarchy(cfg), newRefHierarchy(cfg)
	rng := vhash.NewRNG(seed)
	pick := func() addr.HPA {
		return addr.HPA(rng.Uint64n(span)*addr.CacheLineBytes + rng.Uint64n(addr.CacheLineBytes))
	}
	var touched, group []addr.HPA
	var now uint64
	for op := 0; op < ops; op++ {
		now += rng.Uint64n(40)
		switch kind := rng.Uint64n(8); {
		case kind < 4:
			pa, src := pick(), Source(kind&1)
			touched = append(touched, pa)
			lat, served := h.Access(now, pa, src)
			rlat, rserved := ref.access(now, pa, src)
			if lat != rlat || served != rserved {
				t.Fatalf("op %d: Access(%d, %#x, %v) = (%d, %v), reference (%d, %v)", op, now, pa, src, lat, served, rlat, rserved)
			}
		case kind < 6:
			group = group[:0]
			for n := rng.Uint64n(10); n > 0; n-- {
				group = append(group, pick())
			}
			touched = append(touched, group...)
			if lat, rlat := h.AccessParallel(now, group, SourceMMU), ref.accessParallel(now, group, SourceMMU); lat != rlat {
				t.Fatalf("op %d: AccessParallel(%d, %#x) = %d, reference %d", op, now, group, lat, rlat)
			}
		default:
			pa := pick()
			touched = append(touched, pa)
			if lat, rlat := h.AccessRemote(now, pa), ref.accessRemote(now, pa); lat != rlat {
				t.Fatalf("op %d: AccessRemote(%d, %#x) = %d, reference %d", op, now, pa, lat, rlat)
			}
		}
	}
	l1, l2, l3 := h.Stats()
	if l1 != ref.l1.stats || l2 != ref.l2.stats || l3 != ref.l3.stats {
		t.Errorf("Stats() = %+v %+v %+v, reference %+v %+v %+v", l1, l2, l3, ref.l1.stats, ref.l2.stats, ref.l3.stats)
	}
	if h.RemoteTraffic() != ref.remote {
		t.Errorf("RemoteTraffic() = %+v, reference %+v", h.RemoteTraffic(), ref.remote)
	}
	if h.DRAMStats() != ref.dram.stats {
		t.Errorf("DRAMStats() = %+v, reference %+v", h.DRAMStats(), ref.dram.stats)
	}
	for _, pa := range touched {
		line := addr.CacheLine(pa)
		in1, in2, in3 := h.Probe(pa)
		if r1, r2, r3 := ref.l1.contains(line), ref.l2.contains(line), ref.l3.contains(line); in1 != r1 || in2 != r2 || in3 != r3 {
			t.Fatalf("Probe(%#x) = %v %v %v, reference %v %v %v", pa, in1, in2, in3, r1, r2, r3)
		}
	}
}

// FuzzHierarchyAgainstReference is the differential proof that the
// recency-ordered cache level replaces the same lines in the same
// order as the reference model: the seed corpus runs every geometry
// over every working set.
func FuzzHierarchyAgainstReference(f *testing.F) {
	for g := range refGeometries {
		for s := range refSpans {
			f.Add(uint8(g), uint8(s), uint64(42+g*len(refSpans)+s))
		}
	}
	f.Fuzz(func(t *testing.T, geom, span uint8, seed uint64) {
		cfg := refGeometries[int(geom)%len(refGeometries)]
		runAgainstReference(t, cfg, refSpans[int(span)%len(refSpans)], seed, 4000)
	})
}

// TestRemoteHitRefreshesRecency pins AccessRemote's hit path: the line
// becomes most recently used, and no per-source counter moves.
func TestRemoteHitRefreshesRecency(t *testing.T) {
	cfg := smallConfig() // L3: 4 ways x 64 sets
	h := NewHierarchy(cfg)
	sameSet := func(i int) addr.HPA { return addr.HPA(i * 64 * addr.CacheLineBytes) }
	for i := 0; i < 4; i++ {
		h.AccessRemote(uint64(i), sameSet(i))
	}
	if lat := h.AccessRemote(10, sameSet(0)); lat != cfg.L3.LatencyRT {
		t.Fatalf("remote re-access latency = %d, want an L3 hit (%d)", lat, cfg.L3.LatencyRT)
	}
	h.AccessRemote(11, sameSet(4))
	if _, _, in3 := h.Probe(sameSet(0)); !in3 {
		t.Error("remote hit did not refresh recency: line 0 was evicted")
	}
	if _, _, in3 := h.Probe(sameSet(1)); in3 {
		t.Error("line 1 should have been the LRU victim")
	}
	if _, _, l3 := h.Stats(); l3 != (LevelStats{}) {
		t.Errorf("remote traffic moved per-source L3 counters: %+v", l3)
	}
	if rs := h.RemoteTraffic(); rs.Accesses != 6 || rs.Misses != 5 {
		t.Errorf("remote stats = %+v, want 6 accesses, 5 misses", rs)
	}
}
