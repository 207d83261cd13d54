package tlbsim

import (
	"testing"

	"nestedecpt/internal/addr"
)

func TestMissThenFillThenHit(t *testing.T) {
	tlb := New(DefaultConfig())
	va := addr.GVA(0x1234_5000)
	if r := tlb.Access(va); r.Hit() {
		t.Fatal("cold TLB hit")
	}
	tlb.Fill(va, addr.Page4K, 0xABC000)
	r := tlb.Access(va)
	if !r.Hit() || r.Level != 1 {
		t.Fatalf("after fill: %+v", r)
	}
	if r.Frame != 0xABC000 || r.Size != addr.Page4K {
		t.Errorf("wrong translation: %+v", r)
	}
}

func TestSamePageSharesEntry(t *testing.T) {
	tlb := New(DefaultConfig())
	tlb.Fill(0x1000, addr.Page4K, 0x7000)
	if r := tlb.Access(0x1FFF); !r.Hit() {
		t.Error("same-page access missed")
	}
	if r := tlb.Access(0x2000); r.Hit() {
		t.Error("next page hit spuriously")
	}
}

func TestHugePageReach(t *testing.T) {
	tlb := New(DefaultConfig())
	tlb.Fill(0x4000_0000, addr.Page2M, 0x20_0000)
	r := tlb.Access(0x4000_0000 + 0x1F_FFFF)
	if !r.Hit() || r.Size != addr.Page2M {
		t.Errorf("2MB entry did not cover its page: %+v", r)
	}
	if r := tlb.Access(0x4020_0000); r.Hit() {
		t.Error("access beyond the 2MB page hit")
	}
}

func TestL2PromotionToL1(t *testing.T) {
	cfg := DefaultConfig()
	tlb := New(cfg)
	// Fill enough same-set 4KB entries to evict the first from L1
	// (64-entry 4-way = 16 sets; stride by 16 pages to stay in set 0).
	tlb.Fill(0, addr.Page4K, 0x1000)
	for i := 1; i <= 4; i++ {
		tlb.Fill(addr.GVA(uint64(i)*16*4096), addr.Page4K, addr.HPA(i)*0x1000)
	}
	r := tlb.Access(0)
	if !r.Hit() || r.Level != 2 {
		t.Fatalf("expected L2 hit, got %+v", r)
	}
	// Promotion: the next access must hit in L1.
	if r := tlb.Access(0); r.Level != 1 {
		t.Errorf("no promotion to L1: %+v", r)
	}
}

func TestLatencies(t *testing.T) {
	cfg := DefaultConfig()
	tlb := New(cfg)
	tlb.Fill(0, addr.Page4K, 0x1000)
	if r := tlb.Access(0); r.Latency != cfg.L1.LatencyRT {
		t.Errorf("L1 hit latency = %d", r.Latency)
	}
	if r := tlb.Access(0x7777_7000); r.Latency != cfg.L1.LatencyRT+cfg.L2.LatencyRT {
		t.Errorf("full miss latency = %d", r.Latency)
	}
}

func TestInvalidate(t *testing.T) {
	tlb := New(DefaultConfig())
	tlb.Fill(0x5000, addr.Page4K, 0x9000)
	tlb.Invalidate(0x5000, addr.Page4K)
	if r := tlb.Access(0x5000); r.Hit() {
		t.Error("invalidated entry still hits")
	}
}

func TestFlush(t *testing.T) {
	tlb := New(DefaultConfig())
	for i := uint64(0); i < 32; i++ {
		tlb.Fill(addr.GVA(i*4096), addr.Page4K, addr.HPA(i)*0x1000)
	}
	tlb.Flush()
	for i := uint64(0); i < 32; i++ {
		if r := tlb.Access(addr.GVA(i * 4096)); r.Hit() {
			t.Fatalf("entry %d survived flush", i)
		}
	}
}

func TestStats(t *testing.T) {
	tlb := New(DefaultConfig())
	tlb.Access(0) // L1 miss, L2 miss
	tlb.Fill(0, addr.Page4K, 1<<12)
	tlb.Access(0) // L1 hit
	l1, l2 := tlb.L1Stats(), tlb.L2Stats()
	if l1.Hits != 1 || l1.Misses != 1 {
		t.Errorf("L1 stats %+v", l1)
	}
	if l2.Misses != 1 {
		t.Errorf("L2 stats %+v", l2)
	}
	tlb.ResetStats()
	l1r, l2r := tlb.L1Stats(), tlb.L2Stats()
	if l1r.Total() != 0 || l2r.Total() != 0 {
		t.Error("ResetStats failed")
	}
}

func TestPerSizeIsolation(t *testing.T) {
	tlb := New(DefaultConfig())
	// Same VA region, different sizes, must not alias.
	tlb.Fill(0x4000_0000, addr.Page4K, 0xA000)
	r := tlb.Access(0x4000_0000)
	if !r.Hit() || r.Size != addr.Page4K {
		t.Errorf("got %+v", r)
	}
}

func TestScaledConfig(t *testing.T) {
	cfg := DefaultConfig().Scaled(8)
	if cfg.L2.PerSize[addr.Page4K].Entries != 128 {
		t.Errorf("scaled L2 4K entries = %d", cfg.L2.PerSize[addr.Page4K].Entries)
	}
	for _, s := range addr.Sizes() {
		for _, lvl := range []LevelConfig{cfg.L1, cfg.L2} {
			sc := lvl.PerSize[s]
			if sc.Entries < 2 {
				t.Errorf("scaled entries below floor: %+v", sc)
			}
			if sc.Entries%sc.Ways != 0 {
				t.Errorf("scaled geometry invalid: %+v", sc)
			}
		}
	}
	New(cfg) // must construct
	if got := DefaultConfig().Scaled(1); got != DefaultConfig() {
		t.Error("Scaled(1) should be identity")
	}
	New(DefaultConfig().Scaled(1 << 16)) // extreme scaling still valid
}

func TestEvictionWithinSet(t *testing.T) {
	tlb := New(DefaultConfig())
	// L1 4KB: 16 sets, 4 ways. Five same-set fills overflow one way.
	var vas []addr.GVA
	for i := uint64(0); i < 5; i++ {
		vas = append(vas, addr.GVA(i*16*4096))
	}
	for i, va := range vas {
		tlb.Fill(va, addr.Page4K, addr.HPA(i+1)<<12)
	}
	// The newest entry survives in L1; the oldest was evicted to be
	// served from L2 (and then promoted back).
	if r := tlb.Access(vas[4]); r.Level != 1 {
		t.Errorf("newest entry served from level %d", r.Level)
	}
	if r := tlb.Access(vas[0]); r.Level != 2 {
		t.Errorf("evicted entry served from level %d, want 2", r.Level)
	}
}

// TestRefillAfterInvalidateKeepsOneEntry is the witness that refilling
// a page after an Invalidate hole leaves one entry for it: the L1 1GB
// structure is one 4-way set, so after X, A, B, a hole at A, and B, C,
// D, X is the least recent of four distinct pages and must still hit.
// Filling B into the hole beside its old copy let that stale twin
// evict X.
func TestRefillAfterInvalidateKeepsOneEntry(t *testing.T) {
	tlb := New(DefaultConfig())
	page := func(i uint64) addr.GVA { return addr.GVA(i << 30) }
	x, a, b, c, d := page(1), page(2), page(3), page(4), page(5)
	for _, va := range []addr.GVA{x, a, b} {
		tlb.Fill(va, addr.Page1G, 0x4000_0000)
	}
	tlb.Invalidate(a, addr.Page1G)
	for _, va := range []addr.GVA{b, c, d} {
		tlb.Fill(va, addr.Page1G, 0x4000_0000)
	}
	if r := tlb.Access(x); r.Level != 1 {
		t.Fatalf("Access(X) served from level %d, want 1", r.Level)
	}
}
