package vhash

import "testing"

// FuzzHashStability pins down the properties the elastic cuckoo tables
// assume of the per-way hash functions:
//
//   - determinism: the same (table, way, key) always digests the same,
//   - value independence from Func construction order,
//   - way independence: different ways of one table disagree on almost
//     every key (a shared digest across ways would collapse the cuckoo
//     ways into one and livelock insertion),
//   - CRC equivalence: the inlined table-lookup CRC stays bit-identical
//     to the original crc64.Update reference (digests are baked into
//     every committed figure, so any drift is a determinism break).
func FuzzHashStability(f *testing.F) {
	for _, k := range []uint64{0, 1, 42, 0xFFF, 1 << 32, ^uint64(0), 0x9E3779B97F4A7C15} {
		f.Add(k)
	}
	f.Fuzz(func(t *testing.T, key uint64) {
		for table := 0; table < 3; table++ {
			for way := 0; way < 3; way++ {
				h1 := New(table, way).Hash(key)
				h2 := New(table, way).Hash(key)
				if h1 != h2 {
					t.Fatalf("hash(%d,%d) of %#x unstable: %#x vs %#x", table, way, key, h1, h2)
				}
				if ref := referenceHash(New(table, way), key); h1 != ref {
					t.Fatalf("hash(%d,%d) of %#x = %#x diverges from crc64.Update reference %#x",
						table, way, key, h1, ref)
				}
			}
		}
		// Way independence. A full 64-bit digest collision across ways
		// is possible in principle but has probability 2^-64 per pair;
		// the fuzzer finding one would itself be a finding.
		for table := 0; table < 3; table++ {
			h0 := New(table, 0).Hash(key)
			h1 := New(table, 1).Hash(key)
			h2 := New(table, 2).Hash(key)
			if h0 == h1 || h1 == h2 || h0 == h2 {
				t.Fatalf("table %d ways collide on key %#x: %#x %#x %#x", table, key, h0, h1, h2)
			}
		}
		// Table independence at fixed way (gECPT vs hECPT functions).
		if New(0, 0).Hash(key) == New(1, 0).Hash(key) {
			t.Fatalf("tables 0 and 1 share way-0 digest for key %#x", key)
		}
	})
}

// FuzzRNGStreams checks the deterministic RNG underlying every
// stochastic component: equal seeds give equal streams, and every
// bounded variate respects its bound.
func FuzzRNGStreams(f *testing.F) {
	f.Add(uint64(0), uint64(10))
	f.Add(uint64(42), uint64(1))
	f.Add(uint64(0xDEADBEEF), uint64(1<<40))
	f.Add(^uint64(0), uint64(3))
	f.Fuzz(func(t *testing.T, seed, n uint64) {
		if n == 0 {
			n = 1
		}
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 32; i++ {
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("seed %#x: streams diverge at step %d: %#x vs %#x", seed, i, x, y)
			}
		}
		r := NewRNG(seed)
		for i := 0; i < 32; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
			if v := r.Intn(int(n%(1<<31)) + 1); v < 0 || uint64(v) > n {
				t.Fatalf("Intn out of range: %d", v)
			}
			if v := r.Float64(); v < 0 || v >= 1 {
				t.Fatalf("Float64() = %v out of [0,1)", v)
			}
			for _, theta := range []float64{0, 0.6, 0.99} {
				if z := NewZipf(n, theta); z.Draw(r) >= n {
					t.Fatalf("Zipf(%d, %v) drew out of range", n, theta)
				}
			}
		}
	})
}
