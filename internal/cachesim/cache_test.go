package cachesim

import (
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/vhash"
)

func smallConfig() HierarchyConfig {
	return HierarchyConfig{
		L1:             LevelConfig{Name: "L1", SizeBytes: 1 << 10, Ways: 2, LatencyRT: 2, MSHRs: 4},
		L2:             LevelConfig{Name: "L2", SizeBytes: 4 << 10, Ways: 4, LatencyRT: 16, MSHRs: 8},
		L3:             LevelConfig{Name: "L3", SizeBytes: 16 << 10, Ways: 4, LatencyRT: 56, MSHRs: 8},
		DRAM:           DefaultDRAMConfig(),
		IssueGapCycles: 2,
	}
}

func TestAccessMissThenHit(t *testing.T) {
	h := NewHierarchy(smallConfig())
	lat1, served1 := h.Access(0, 0x1000, SourceCPU)
	if served1 != ServedDRAM {
		t.Fatalf("cold access served by %v", served1)
	}
	lat2, served2 := h.Access(1000, 0x1000, SourceCPU)
	if served2 != ServedL1 {
		t.Fatalf("warm access served by %v", served2)
	}
	if lat2 >= lat1 {
		t.Errorf("warm latency %d not below cold %d", lat2, lat1)
	}
	if lat2 != 2 {
		t.Errorf("L1 latency = %d, want 2", lat2)
	}
}

func TestSameLineSharing(t *testing.T) {
	h := NewHierarchy(smallConfig())
	h.Access(0, 0x2000, SourceCPU)
	// Another address in the same 64B line must hit.
	if _, served := h.Access(10, 0x2038, SourceCPU); served != ServedL1 {
		t.Errorf("same-line access served by %v", served)
	}
	if _, served := h.Access(20, 0x2040, SourceCPU); served == ServedL1 {
		t.Error("next line should not be present")
	}
}

func TestInclusiveFills(t *testing.T) {
	h := NewHierarchy(smallConfig())
	h.Access(0, 0x3000, SourceCPU)
	in1, in2, in3 := h.Probe(0x3000)
	if !in1 || !in2 || !in3 {
		t.Errorf("fill not inclusive: L1=%v L2=%v L3=%v", in1, in2, in3)
	}
}

func TestLRUEvictionWithinSet(t *testing.T) {
	cfg := smallConfig()
	h := NewHierarchy(cfg)
	// L1: 1KB, 2-way, 64B lines -> 8 sets. Addresses 0, 8*64, 16*64 map
	// to set 0; the third fill must evict the LRU (the first).
	a, b, c := addr.HPA(0), addr.HPA(8*64), addr.HPA(16*64)
	h.Access(0, a, SourceCPU)
	h.Access(1, b, SourceCPU)
	h.Access(2, c, SourceCPU)
	if in1, _, _ := h.Probe(a); in1 {
		t.Error("LRU line not evicted from L1")
	}
	if in1, _, _ := h.Probe(c); !in1 {
		t.Error("newest line missing from L1")
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	h := NewHierarchy(smallConfig())
	a := addr.HPA(0)
	h.Access(0, a, SourceCPU)
	// Evict a from L1 by filling its set.
	h.Access(1, 8*64, SourceCPU)
	h.Access(2, 16*64, SourceCPU)
	_, served := h.Access(3, a, SourceCPU)
	if served != ServedL2 {
		t.Errorf("served by %v, want L2", served)
	}
}

func TestPerSourceStats(t *testing.T) {
	h := NewHierarchy(smallConfig())
	h.Access(0, 0x100000, SourceCPU)
	h.Access(1, 0x200000, SourceMMU)
	h.Access(2, 0x200000, SourceMMU)
	l1, _, _ := h.Stats()
	if l1.Accesses[SourceCPU] != 1 || l1.Accesses[SourceMMU] != 2 {
		t.Errorf("per-source accesses: %v", l1.Accesses)
	}
	if l1.Misses[SourceMMU] != 1 {
		t.Errorf("MMU L1 misses = %d, want 1", l1.Misses[SourceMMU])
	}
}

func TestAccessParallelLatencyIsMaxish(t *testing.T) {
	h := NewHierarchy(smallConfig())
	pas := []addr.HPA{0x10000, 0x20000, 0x30000}
	lat := h.AccessParallel(0, pas, SourceMMU)
	single, _ := NewHierarchy(smallConfig()).Access(0, 0x10000, SourceMMU)
	if lat < single {
		t.Errorf("group latency %d below a single cold access %d", lat, single)
	}
	// Three parallel DRAM accesses must be far cheaper than serial.
	serialH := NewHierarchy(smallConfig())
	var serial uint64
	now := uint64(0)
	for _, pa := range pas {
		l, _ := serialH.Access(now, pa, SourceMMU)
		serial += l
		now += l
	}
	if lat >= serial {
		t.Errorf("parallel group %d not cheaper than serial %d", lat, serial)
	}
}

func TestAccessParallelEmpty(t *testing.T) {
	h := NewHierarchy(smallConfig())
	if lat := h.AccessParallel(0, nil, SourceMMU); lat != 0 {
		t.Errorf("empty group latency = %d", lat)
	}
}

func TestMSHRSampling(t *testing.T) {
	h := NewHierarchy(smallConfig())
	pas := make([]addr.HPA, 6)
	for i := range pas {
		pas[i] = addr.HPA(0x100000 + i*0x10000)
	}
	h.AccessParallel(0, pas, SourceMMU)
	_, _, l3 := h.Stats()
	if l3.MSHROccupancy.Count == 0 {
		t.Error("no MSHR samples recorded")
	}
	if l3.MSHRMax == 0 || l3.MSHRMax > 8 {
		t.Errorf("MSHRMax = %d", l3.MSHRMax)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	h := NewHierarchy(smallConfig())
	h.Access(0, 0x4000, SourceCPU)
	h.ResetStats()
	l1, _, _ := h.Stats()
	if l1.Accesses[SourceCPU] != 0 {
		t.Error("stats not reset")
	}
	if _, served := h.Access(1, 0x4000, SourceCPU); served != ServedL1 {
		t.Error("reset dropped cache contents")
	}
}

func TestAccessRemoteTouchesOnlyL3(t *testing.T) {
	h := NewHierarchy(smallConfig())
	h.AccessRemote(0, 0x5000)
	in1, in2, in3 := h.Probe(0x5000)
	if in1 || in2 {
		t.Error("remote access filled private caches")
	}
	if !in3 {
		t.Error("remote access did not fill L3")
	}
	rs := h.RemoteTraffic()
	if rs.Accesses != 1 || rs.Misses != 1 {
		t.Errorf("remote stats = %+v", rs)
	}
	// Second remote access hits in L3.
	lat := h.AccessRemote(10, 0x5000)
	if lat != smallConfig().L3.LatencyRT {
		t.Errorf("remote L3 hit latency = %d", lat)
	}
}

func TestRemoteEvictionPressure(t *testing.T) {
	h := NewHierarchy(smallConfig())
	victim := addr.HPA(0x9000)
	h.Access(0, victim, SourceCPU)
	rng := vhash.NewRNG(7)
	for i := 0; i < 4096; i++ {
		h.AccessRemote(uint64(i), addr.HPA(rng.Uint64n(1<<24))&^63)
	}
	if _, _, in3 := h.Probe(victim); in3 {
		t.Error("remote flood failed to evict L3 line")
	}
}

func TestServiceLevelString(t *testing.T) {
	names := map[ServiceLevel]string{ServedL1: "L1", ServedL2: "L2", ServedL3: "L3", ServedDRAM: "DRAM"}
	for l, n := range names {
		if l.String() != n {
			t.Errorf("%d.String() = %q", l, l.String())
		}
	}
}

func TestSourceString(t *testing.T) {
	if SourceCPU.String() != "cpu" || SourceMMU.String() != "mmu" {
		t.Error("source names wrong")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cfg := smallConfig()
	cfg.L1.SizeBytes = 1000 // not divisible into 64B lines * ways
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry did not panic")
		}
	}()
	NewHierarchy(cfg)
}

func TestScaledHierarchy(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	sc := cfg.Scaled(8)
	if sc.L1.SizeBytes != cfg.L1.SizeBytes/8 {
		t.Errorf("L1 scaled to %d", sc.L1.SizeBytes)
	}
	if sc.L3.LatencyRT != cfg.L3.LatencyRT {
		t.Error("scaling changed latency")
	}
	// Must still construct.
	NewHierarchy(sc)
	if got := cfg.Scaled(1); got != cfg {
		t.Error("Scaled(1) should be identity")
	}
	// Extreme scaling floors at a valid geometry.
	NewHierarchy(cfg.Scaled(1 << 20))
}

// TestScaledAlwaysConstructs: every divisor, on every per-core share of
// the L3, yields a geometry NewHierarchy accepts, and a power-of-two
// divisor still divides exactly down to the one-set floor.
func TestScaledAlwaysConstructs(t *testing.T) {
	for cores := 1; cores <= 8; cores++ {
		for div := 1; div <= 256; div++ {
			cfg := DefaultHierarchyConfig()
			cfg.L3.SizeBytes /= uint64(cores)
			sc := cfg.Scaled(div)
			NewHierarchy(sc)
			if div&(div-1) != 0 || cores&(cores-1) != 0 {
				continue
			}
			for _, l := range [][2]LevelConfig{{cfg.L1, sc.L1}, {cfg.L2, sc.L2}, {cfg.L3, sc.L3}} {
				want := l[0].SizeBytes / uint64(div)
				if oneSet := uint64(l[0].Ways) * addr.CacheLineBytes; want < oneSet {
					want = oneSet
				}
				if l[1].SizeBytes != want {
					t.Errorf("%s / %d (%d cores) = %d bytes, want %d", l[0].Name, div, cores, l[1].SizeBytes, want)
				}
			}
		}
	}
}

func TestDRAMRowBuffer(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	lat1 := d.Access(0, 0x1000)
	lat2 := d.Access(100000, 0x1040) // same row, much later
	if lat2 >= lat1 {
		t.Errorf("row hit %d not cheaper than row miss %d", lat2, lat1)
	}
	st := d.Stats()
	if st.RowHits != 1 || st.RowMisses != 1 {
		t.Errorf("row stats = %+v", st)
	}
}

func TestDRAMBankQueueing(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	lat1 := d.Access(0, 0x1000)
	// Same bank, immediately after: must queue behind the first.
	rowBytes := DefaultDRAMConfig().RowBytes
	banks := uint64(DefaultDRAMConfig().Channels * DefaultDRAMConfig().Banks)
	samebank := addr.HPA(0x1000 + rowBytes*banks)
	lat2 := d.Access(0, samebank)
	if lat2 <= lat1 {
		t.Errorf("conflicting access %d did not queue (first %d)", lat2, lat1)
	}
	if d.Stats().QueueCycles == 0 {
		t.Error("queue cycles not recorded")
	}
}

func TestDRAMZeroBanksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-bank DRAM did not panic")
		}
	}()
	NewDRAM(DRAMConfig{})
}

func TestDRAMResetStats(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	d.Access(0, 0x1000)
	d.ResetStats()
	if d.Stats().Accesses != 0 {
		t.Error("DRAM stats not reset")
	}
}
