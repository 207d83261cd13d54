package vhash

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHashDeterministic(t *testing.T) {
	f := New(1, 2)
	g := New(1, 2)
	for k := uint64(0); k < 1000; k++ {
		if f.Hash(k) != g.Hash(k) {
			t.Fatalf("hash not deterministic at key %d", k)
		}
	}
}

func TestHashDiffersAcrossWays(t *testing.T) {
	f0, f1 := New(0, 0), New(0, 1)
	same := 0
	for k := uint64(0); k < 4096; k++ {
		if f0.Hash(k) == f1.Hash(k) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("ways collide on %d/4096 keys", same)
	}
}

// TestHashWaysNotAffine is the regression test for the bug where
// CRC-based way hashes differed only by a constant XOR, collapsing the
// independence cuckoo hashing (and DRAM bank spread) depends on.
func TestHashWaysNotAffine(t *testing.T) {
	f0, f1 := New(0, 0), New(0, 1)
	diffs := make(map[uint64]int)
	const n = 4096
	for k := uint64(0); k < n; k++ {
		diffs[f0.Hash(k)^f1.Hash(k)]++
	}
	for d, c := range diffs {
		if c > 3 {
			t.Fatalf("XOR difference %#x repeats %d times: way hashes are affinely related", d, c)
		}
	}
}

// TestHashModuloIndependence checks that, reduced modulo a power-of-two
// table size (how ECPT ways use the hash), indices of different ways
// are pairwise-equal at roughly the 1/size chance expected of
// independent functions.
func TestHashModuloIndependence(t *testing.T) {
	const size = 1024
	f0, f1 := New(3, 0), New(3, 1)
	equal := 0
	const n = 100000
	for k := uint64(0); k < n; k++ {
		if f0.Hash(k)%size == f1.Hash(k)%size {
			equal++
		}
	}
	expect := float64(n) / size
	if float64(equal) > 3*expect {
		t.Errorf("way indices equal %d times, expected about %.0f", equal, expect)
	}
}

func TestHashUniformBuckets(t *testing.T) {
	f := New(7, 1)
	const buckets = 64
	var counts [buckets]int
	const n = 64 * 1000
	for k := uint64(0); k < n; k++ {
		counts[f.Hash(k)%buckets]++
	}
	for b, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("bucket %d has %d keys, expected ~1000", b, c)
		}
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG not deterministic")
		}
	}
	c := NewRNG(43)
	if NewRNG(42).Uint64() == c.Uint64() {
		t.Error("different seeds produced the same first value")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	NewRNG(1).Uint64n(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(2)
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Float64 mean = %.3f, want ~0.5", mean)
	}
}

func TestZipfBoundsProperty(t *testing.T) {
	r := NewRNG(3)
	f := func(n uint64, theta float64) bool {
		n = n%100000 + 1
		theta = math.Mod(math.Abs(theta), 1.2)
		z := NewZipf(n, theta)
		return z.Draw(r) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestZipfSkewsLow(t *testing.T) {
	r := NewRNG(4)
	const n = 1 << 20
	skewed, uniform := NewZipf(n, 0.9), NewZipf(n, 0)
	lowSkewed, lowUniform := 0, 0
	for i := 0; i < 20000; i++ {
		if skewed.Draw(r) < n/100 {
			lowSkewed++
		}
		if uniform.Draw(r) < n/100 {
			lowUniform++
		}
	}
	if lowSkewed <= lowUniform*5 {
		t.Errorf("Zipf(0.9) not skewed: low-range hits %d vs uniform %d", lowSkewed, lowUniform)
	}
}

func TestZipfZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0, ...) did not panic")
		}
	}()
	NewZipf(0, 0.5)
}

// zipfFormula is the draw as RNG.Zipf computed it before the sampler
// hoisted its constants: both Pows on every draw.
func zipfFormula(r *RNG, n uint64, theta float64) uint64 {
	if theta <= 0 {
		return r.Uint64n(n)
	}
	u := r.Float64()
	alpha := 1 - theta
	v := math.Pow(float64(n), alpha)
	x := math.Pow(u*(v-1)+1, 1/alpha)
	idx := uint64(x) - 1
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// TestZipfSamplerMatchesFormula pins the sampler draw for draw to the
// formula it replaced, over seeds, sizes and skews — the graph
// workloads' thetas, the uniform theta 0 and the degenerate theta 1
// among them — so the workloads' access streams stay what they were.
func TestZipfSamplerMatchesFormula(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1337} {
		for _, n := range []uint64{1, 2, 3, 1000, 1 << 20, 1<<40 + 7} {
			for _, theta := range []float64{0, 0.4, 0.6, 0.65, 0.7, 0.75, 0.8, 0.9, 0.99, 1, 1.1} {
				z := NewZipf(n, theta)
				a, b := NewRNG(seed), NewRNG(seed)
				for i := 0; i < 2000; i++ {
					if got, want := z.Draw(a), zipfFormula(b, n, theta); got != want {
						t.Fatalf("seed %d n %d theta %v draw %d: sampler %d, formula %d", seed, n, theta, i, got, want)
					}
				}
			}
		}
	}
}

func TestLatencyConstant(t *testing.T) {
	if LatencyCycles != 2 {
		t.Errorf("hash latency = %d, Table 2 says 2", LatencyCycles)
	}
}
