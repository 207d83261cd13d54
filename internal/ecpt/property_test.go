package ecpt

import (
	"fmt"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/vhash"
)

// windowBase is the allocator base of the oracle tests: non-zero and
// high, so decoding a stored frame number adds a base no low bit hides.
const windowBase = 1 << 46

// windowFrame draws a frame of size uniformly over the whole frame
// window at windowBase, so every bit of the stored 32-bit frame number
// varies.
func windowFrame(rng *vhash.RNG, size addr.PageSize) uint64 {
	return windowBase + rng.Uint64n(FrameWindow/size.Bytes())*size.Bytes()
}

// TestPropertyRandomOps drives a table through a long random
// insert/overwrite/remove sequence against a plain map model and checks
// the two never disagree: no entry is ever lost (misses the lookup),
// duplicated (Entries drifts from the model size), or corrupted
// (lookup returns a stale frame). The tables start tiny so the
// sequence forces several elastic resizes, and removals during
// migration exercise the old-generation paths.
func TestPropertyRandomOps(t *testing.T) {
	for _, seed := range []uint64{1, 7, 0xC0FFEE} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			alloc := memsim.NewAllocatorAt[uint64](windowBase, 1<<30, seed)
			cwt := NewCWT(addr.Page4K, alloc)
			tb, err := New(addr.Page4K, DefaultConfig(64), alloc, cwt, 1, seed)
			if err != nil {
				t.Fatal(err)
			}

			rng := vhash.NewRNG(seed)
			model := make(map[uint64]uint64)
			var keys []uint64 // insertion-ordered live keys, for removals

			const ops = 20_000
			const vpnSpace = 1 << 32 // sparse: most lines hold one slot
			for i := 0; i < ops; i++ {
				switch op := rng.Intn(10); {
				case op < 6: // insert a fresh or colliding vpn
					vpn := rng.Uint64n(vpnSpace)
					frame := windowFrame(rng, addr.Page4K)
					if _, dup := model[vpn]; !dup {
						keys = append(keys, vpn)
					}
					model[vpn] = frame
					tb.Insert(vpn, frame)
				case op < 8 && len(keys) > 0: // remove a live key
					j := rng.Intn(len(keys))
					vpn := keys[j]
					keys[j] = keys[len(keys)-1]
					keys = keys[:len(keys)-1]
					if _, live := model[vpn]; !live {
						t.Fatalf("test bug: key list out of sync at %d", i)
					}
					delete(model, vpn)
					if !tb.Remove(vpn) {
						t.Fatalf("op %d: Remove(%#x) lost a live entry", i, vpn)
					}
				case op < 9: // overwrite a live key with a new frame
					if len(keys) == 0 {
						continue
					}
					vpn := keys[rng.Intn(len(keys))]
					frame := windowFrame(rng, addr.Page4K)
					model[vpn] = frame
					tb.Insert(vpn, frame)
				default: // remove an absent key: must be a no-op
					vpn := rng.Uint64n(vpnSpace)
					if _, live := model[vpn]; live {
						continue
					}
					if tb.Remove(vpn) {
						t.Fatalf("op %d: Remove(%#x) removed an entry the model never had", i, vpn)
					}
				}

				if tb.Entries() != uint64(len(model)) {
					t.Fatalf("op %d: table has %d entries, model has %d",
						i, tb.Entries(), len(model))
				}
				// Spot-check a random live key every few ops; a full
				// sweep per op would be quadratic.
				if i%64 == 0 && len(keys) > 0 {
					vpn := keys[rng.Intn(len(keys))]
					if f, ok := tb.Lookup(vpn); !ok || f != model[vpn] {
						t.Fatalf("op %d: Lookup(%#x) = %#x,%v; model has %#x",
							i, vpn, f, ok, model[vpn])
					}
				}
			}

			if tb.Stats().Resizes == 0 {
				t.Fatal("sequence never forced an elastic resize; property not exercised")
			}

			// Full model sweep: every live entry resolves to its exact
			// frame, and its CWT presence bit is set.
			for vpn, frame := range model {
				if f, ok := tb.Lookup(vpn); !ok || f != frame {
					t.Fatalf("final: Lookup(%#x) = %#x,%v; model has %#x", vpn, f, ok, frame)
				}
				if !cwt.Query(vpn).Present {
					t.Fatalf("final: CWT lost presence bit for live vpn %#x", vpn)
				}
			}
			// And a sample of absent keys must miss.
			for i := 0; i < 1_000; i++ {
				vpn := rng.Uint64n(vpnSpace)
				if _, live := model[vpn]; live {
					continue
				}
				if f, ok := tb.Lookup(vpn); ok {
					t.Fatalf("final: absent vpn %#x resolves to %#x", vpn, f)
				}
			}

			// Drive any in-flight migration to completion (migration
			// advances incrementally on inserts), then check the
			// occupancy invariant the resize policy promises.
			for i := 0; tb.Resizing(); i++ {
				if i > 100_000 {
					t.Fatal("migration did not complete")
				}
				vpn := rng.Uint64n(vpnSpace)
				frame := windowFrame(rng, addr.Page4K)
				model[vpn] = frame
				tb.Insert(vpn, frame)
			}
			occ := float64(tb.OccupiedLines()) / float64(tb.CapacityLines())
			if limit := DefaultConfig(64).LoadFactorLimit; occ >= limit {
				t.Fatalf("occupancy %.3f at or above the %.2f rehash threshold after resize completed", occ, limit)
			}
			if tb.Entries() != uint64(len(model)) {
				t.Fatalf("after migration: table has %d entries, model has %d",
					tb.Entries(), len(model))
			}
		})
	}
}
