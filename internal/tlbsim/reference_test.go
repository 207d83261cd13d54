package tlbsim

import (
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/stats"
	"nestedecpt/internal/vhash"
)

// The reference model: the sub-TLB as it stood before power-of-two set
// counts were indexed with a mask — every set found by modulo, every
// victim chosen by last-use timestamp — and the two levels over it.
// FuzzTLBAgainstReference holds the implementation to it call by call.
// Its insert searches the whole set for the page before it picks a way:
// taking the first invalid way first left a page's stale twin behind a
// hole an invalidate had made.

type refEntry struct {
	vpn     uint64
	frame   addr.HPA
	valid   bool
	lastUse uint64
}

type refSubTLB struct {
	sets, ways int
	entries    []refEntry
	clock      uint64
}

func newRefSubTLB(cfg SubTLBConfig) *refSubTLB {
	return &refSubTLB{sets: cfg.Entries / cfg.Ways, ways: cfg.Ways, entries: make([]refEntry, cfg.Entries)}
}

func (t *refSubTLB) setFor(vpn uint64) int { return int(vpn % uint64(t.sets)) }

func (t *refSubTLB) lookup(vpn uint64) (addr.HPA, bool) {
	t.clock++
	base := t.setFor(vpn) * t.ways
	for w := 0; w < t.ways; w++ {
		e := &t.entries[base+w]
		if e.valid && e.vpn == vpn {
			e.lastUse = t.clock
			return e.frame, true
		}
	}
	return 0, false
}

func (t *refSubTLB) insert(vpn uint64, frame addr.HPA) {
	t.clock++
	base := t.setFor(vpn) * t.ways
	for w := 0; w < t.ways; w++ {
		if e := &t.entries[base+w]; e.valid && e.vpn == vpn {
			e.frame = frame
			e.lastUse = t.clock
			return
		}
	}
	victim := base
	for w := 0; w < t.ways; w++ {
		e := &t.entries[base+w]
		if !e.valid {
			victim = base + w
			break
		}
		if e.lastUse < t.entries[victim].lastUse {
			victim = base + w
		}
	}
	t.entries[victim] = refEntry{vpn: vpn, frame: frame, valid: true, lastUse: t.clock}
}

func (t *refSubTLB) invalidate(vpn uint64) {
	base := t.setFor(vpn) * t.ways
	for w := 0; w < t.ways; w++ {
		if e := &t.entries[base+w]; e.valid && e.vpn == vpn {
			e.valid = false
			return
		}
	}
}

type refLevel struct {
	cfg     LevelConfig
	perSize [addr.NumPageSizes]*refSubTLB
	counter stats.Counter
}

func newRefLevel(cfg LevelConfig) *refLevel {
	l := &refLevel{cfg: cfg}
	for _, s := range addr.Sizes() {
		l.perSize[s] = newRefSubTLB(cfg.PerSize[s])
	}
	return l
}

func (l *refLevel) lookup(va addr.GVA) (addr.HPA, addr.PageSize, bool) {
	for _, s := range addr.Sizes() {
		if f, hit := l.perSize[s].lookup(addr.VPN(va, s)); hit {
			l.counter.Hit()
			return f, s, true
		}
	}
	l.counter.Miss()
	return 0, addr.Page4K, false
}

type refTLB struct{ l1, l2 *refLevel }

func (t *refTLB) access(va addr.GVA) Result {
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

func (t *refTLB) fill(va addr.GVA, size addr.PageSize, frame addr.HPA) {
	t.l1.perSize[size].insert(addr.VPN(va, size), frame)
	t.l2.perSize[size].insert(addr.VPN(va, size), frame)
}

func (t *refTLB) invalidate(va addr.GVA, size addr.PageSize) {
	t.l1.perSize[size].invalidate(addr.VPN(va, size))
	t.l2.perSize[size].invalidate(addr.VPN(va, size))
}

func (t *refTLB) flush() {
	for _, s := range addr.Sizes() {
		for _, l := range []*refLevel{t.l1, t.l2} {
			for i := range l.perSize[s].entries {
				l.perSize[s].entries[i].valid = false
			}
		}
	}
}

// fuzzGeometry picks the TLB the fuzzer runs: Table 2 divided by
// 1 to 64 — Scaled(3) and other odd divisors give set counts that are
// not powers of two — or, with geom's top bit set, a raw geometry of
// 1 to 40 sets of 1 to 8 ways per structure.
func fuzzGeometry(geom uint8, rng *vhash.RNG) Config {
	if geom&0x80 == 0 {
		return DefaultConfig().Scaled(int(geom%64) + 1)
	}
	cfg := DefaultConfig()
	for _, l := range []*LevelConfig{&cfg.L1, &cfg.L2} {
		for _, s := range addr.Sizes() {
			ways := 1 + rng.Intn(8)
			l.PerSize[s] = SubTLBConfig{Entries: ways * (1 + rng.Intn(40)), Ways: ways}
		}
	}
	return cfg
}

// fuzzVA draws an address over a few 1GB, 2MB and 4KB page numbers, so
// every structure sees conflicts, reuse and pages of one size nested in
// another's.
func fuzzVA(rng *vhash.RNG) addr.GVA {
	return addr.GVA(rng.Uint64n(4)<<30 | rng.Uint64n(16)<<21 | rng.Uint64n(96)<<12 | rng.Uint64n(1<<12))
}

// FuzzTLBAgainstReference drives the TLB and the reference model
// through the same geometry and the same interleaving of Access, Fill,
// Invalidate and Flush (one op per byte: its low four bits pick the
// call, nine in sixteen an Access, and the rest the page size),
// requiring every Access to return the same Result and both levels to
// end with the same counters.
func FuzzTLBAgainstReference(f *testing.F) {
	fills := func(n int, size byte) []byte {
		b := make([]byte, 0, 2*n)
		for i := 0; i < n; i++ {
			b = append(b, 9+size*16, 0)
		}
		return b
	}
	f.Add(uint8(0), uint64(1), fills(64, 0))
	f.Add(uint8(2), uint64(7), append(fills(40, 1), 13, 0, 15, 0, 9, 0)) // Scaled(3): 7 and 341 sets
	f.Add(uint8(4), uint64(3), append(fills(40, 0), 29, 0, 13, 1, 2, 3)) // Scaled(5)
	f.Add(uint8(0x80), uint64(42), append(fills(30, 2), fills(30, 1)...))
	f.Add(uint8(0x85), uint64(1337), append(fills(50, 0), 15, 9, 0, 0, 25, 0, 41, 0))
	f.Fuzz(func(t *testing.T, geom uint8, seed uint64, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		rng := vhash.NewRNG(seed)
		cfg := fuzzGeometry(geom, rng)
		tlb := New(cfg)
		ref := &refTLB{l1: newRefLevel(cfg.L1), l2: newRefLevel(cfg.L2)}
		for i, op := range ops {
			va := fuzzVA(rng)
			size := addr.Sizes()[op/16%3]
			switch op % 16 {
			case 9, 10, 11, 12:
				frame := addr.FrameBase[addr.HPA](rng.Uint64n(1<<20), size)
				tlb.Fill(va, size, frame)
				ref.fill(va, size, frame)
			case 13, 14:
				tlb.Invalidate(va, size)
				ref.invalidate(va, size)
			case 15:
				tlb.Flush()
				ref.flush()
			default:
				if got, want := tlb.Access(va), ref.access(va); got != want {
					t.Fatalf("geometry %+v op %d: Access(%#x) = %+v, reference %+v", cfg, i, va, got, want)
				}
			}
		}
		if tlb.L1Stats() != ref.l1.counter || tlb.L2Stats() != ref.l2.counter {
			t.Fatalf("counters: L1 %+v L2 %+v, reference L1 %+v L2 %+v",
				tlb.L1Stats(), tlb.L2Stats(), ref.l1.counter, ref.l2.counter)
		}
	})
}
