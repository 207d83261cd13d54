// Package vhash supplies the hash functions used by the elastic cuckoo
// page tables and the deterministic pseudo-random number generator used
// by every stochastic component of the simulator.
//
// Table 2 of the paper specifies CRC-based hash functions with a
// 2-cycle latency. Each ECPT way uses a differently-seeded function so
// a key that collides in one way almost never collides in another —
// the property cuckoo hashing depends on.
package vhash

import (
	"hash/crc64"
	"math"
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// crcSlices are slicing-by-8 tables derived from crcTable: slice 0 is
// the byte-at-a-time table and slice k advances a remainder by k more
// zero bytes. They let Hash fold all eight key bytes with independent
// table lookups instead of an eight-deep dependent chain (the classic
// slicing-by-8 construction; bit-identical to crc64.Update, pinned by
// the equivalence test and the vhash fuzz corpus).
var crcSlices = buildSlices()

func buildSlices() *[8][256]uint64 {
	var t [8][256]uint64
	t[0] = *crcTable
	for k := 1; k < 8; k++ {
		for i := 0; i < 256; i++ {
			prev := t[k-1][i]
			t[k][i] = t[0][byte(prev)] ^ (prev >> 8)
		}
	}
	return &t
}

// Func is a seeded hash function mapping a 64-bit key (a VPN) to a
// 64-bit digest. Callers reduce the digest modulo their table size.
type Func struct {
	seed uint64
}

// New returns the hash function for the given (table, way) pair.
// Different pairs get independent functions, mirroring the per-way
// gH_{i,j} / hH_{i,j} functions of Figure 4.
func New(table, way int) Func {
	// Spread the identifiers far apart before mixing so that small
	// (table, way) integers yield unrelated seeds.
	s := uint64(table)*0x9E3779B97F4A7C15 + uint64(way)*0xC2B2AE3D27D4EB4F + 0x2545F4914F6CDD1D
	return Func{seed: mix64(s)}
}

// Hash computes the digest of key.
//
// The hardware uses seeded CRC units (Table 2, 2-cycle latency), but a
// software CRC of key^seed is an *affine* function of the key, so the
// d per-way digests would differ only by constants — cuckoo ways would
// not be independent, and the parallel probes of one walk would land
// in systematically conflicting DRAM banks. We therefore compose the
// CRC with a multiplicative finalizer, which models what hardware
// achieves by giving each way a differently-wired polynomial.
//
// The CRC consumes exactly the eight key bytes, so the byte-at-a-time
// crc64.Update recurrence folds into one slicing-by-8 round: the
// initial remainder (^seed) is XORed into the data word and each
// resulting byte indexes its own table — eight independent loads where
// the byte-serial chain had eight dependent ones. This runs once per
// (way, table) on every translation step, so it is the single hottest
// function of the simulator, and it is latency-bound, which is what
// slicing-by-8 attacks. Note (key^seed)^(^seed) = ^key: the seed
// cancels out of the folded word and differentiates the ways through
// the multiplicative finalizer alone, exactly as in the byte-serial
// form. The digests are bit-identical to the crc64.Update path (pinned
// by the equivalence test and the vhash fuzz corpus).
//
//nestedlint:hotpath
func (f Func) Hash(key uint64) uint64 {
	x := ^key // == (key ^ f.seed) ^ ^f.seed: data word XOR initial remainder
	crc := crcSlices[7][byte(x)] ^
		crcSlices[6][byte(x>>8)] ^
		crcSlices[5][byte(x>>16)] ^
		crcSlices[4][byte(x>>24)] ^
		crcSlices[3][byte(x>>32)] ^
		crcSlices[2][byte(x>>40)] ^
		crcSlices[1][byte(x>>48)] ^
		crcSlices[0][byte(x>>56)]
	return mix64(^crc * (f.seed | 1))
}

// LatencyCycles is the hash-unit latency from Table 2.
const LatencyCycles = 2

func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// RNG is a deterministic SplitMix64 pseudo-random number generator.
// All randomness in the simulator (workload address streams, cuckoo
// eviction choices, graph construction) flows through seeded RNGs so
// every simulation is bit-for-bit reproducible, matching the paper's
// deterministic methodology (§8).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	return mix64(r.state)
}

// Uint32 returns the next 32-bit value.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("vhash: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a value in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("vhash: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Zipf draws values in [0, n) from a Zipf-like distribution with skew
// parameter theta (0 = uniform; typical graph workloads use 0.6–0.99).
// It uses the standard inverse-CDF approximation, which is accurate
// enough for workload modelling and allocation-free; NewZipf computes
// the constants of n and theta once, so a draw costs one Pow.
type Zipf struct {
	n     uint64
	theta float64
	// v is n^(1-theta) and inv 1/(1-theta).
	v, inv float64
}

// NewZipf returns the sampler for n and theta. It panics if n == 0.
func NewZipf(n uint64, theta float64) Zipf {
	if n == 0 {
		panic("vhash: Zipf with zero n")
	}
	alpha := 1 - theta
	return Zipf{n: n, theta: theta, v: math.Pow(float64(n), alpha), inv: 1 / alpha}
}

// Draw returns the next value, drawing from r.
func (z *Zipf) Draw(r *RNG) uint64 {
	if z.theta <= 0 {
		return r.Uint64n(z.n)
	}
	u := r.Float64()
	// Inverse CDF of a bounded Pareto approximating Zipf ranks.
	x := math.Pow(u*(z.v-1)+1, z.inv)
	idx := uint64(x) - 1
	if idx >= z.n {
		idx = z.n - 1
	}
	return idx
}
