package lru

import (
	"fmt"
	"testing"

	"nestedecpt/internal/addr"
)

// TestSetRecencyOrder pins the set layout: keys in LRU-stack order,
// most recent first, stored plus one with 0 an empty way. Cold fills
// stack up from the front, a hit in any way moves to the front, a miss
// on a full set drops exactly the last way, and a removed key's
// successors move up one so the tail empties. Access and Insert keep
// the same order; Insert and Lookup carry each key's value along.
func TestSetRecencyOrder(t *testing.T) {
	for _, ways := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("%d-way", ways), func(t *testing.T) {
			for _, valued := range []bool{false, true} {
				t.Run(fmt.Sprintf("valued=%v", valued), func(t *testing.T) {
					s := New[uint64](3, ways)
					const set = 1
					// want is the set's keys, most recent first; a key's
					// value is its square.
					var want []uint64
					check := func(what string) {
						t.Helper()
						lo, hi := set*ways, (set+1)*ways
						for i, k := range s.keys[lo:hi] {
							w, v := uint64(0), uint64(0)
							if i < len(want) {
								w, v = want[i]+1, want[i]*want[i]
							}
							if k != w || valued && s.vals[lo+i] != v {
								t.Fatalf("%s: set keys %v values %v, want keys %v (stored plus one, 0 empty)",
									what, s.keys[lo:hi], s.vals[lo:hi], want)
							}
						}
						for i, k := range s.keys {
							if (i < lo || i >= hi) && k != 0 {
								t.Fatalf("%s: way %d outside set %d holds %d", what, i, set, k)
							}
						}
					}
					touch := func(key uint64) bool {
						if !valued {
							return s.Access(set, key)
						}
						if v, ok := s.Lookup(set, key); ok {
							if v != key*key {
								t.Fatalf("Lookup(%d) = %d, want %d", key, v, key*key)
							}
							return true
						}
						s.Insert(set, key, key*key)
						return false
					}
					moveToFront := func(way int) {
						key := want[way]
						if !touch(key) {
							t.Fatalf("key %d in way %d missed", key, way)
						}
						want = append([]uint64{key}, append(want[:way:way], want[way+1:]...)...)
					}

					for i := 0; i < ways; i++ {
						key := uint64(7 * (i + 1))
						if touch(key) {
							t.Fatalf("cold key %d hit", key)
						}
						want = append([]uint64{key}, want...)
						check(fmt.Sprintf("cold fill %d", i))
					}
					moveToFront(ways / 2)
					check("hit in a middle way")
					moveToFront(ways - 1)
					check("hit in the last way")
					if s.Contains(set, 1000) || touch(1000) {
						t.Fatal("new key 1000 hit")
					}
					want = append([]uint64{1000}, want[:ways-1]...)
					check("miss on a full set")

					if s.Remove(set, 999) || s.Remove(0, want[0]) {
						t.Fatal("Remove of an absent key reported true")
					}
					check("remove of an absent key")
					way := ways / 2
					if !s.Remove(set, want[way]) {
						t.Fatalf("Remove of way %d missed", way)
					}
					want = append(want[:way:way], want[way+1:]...)
					check("remove from a middle way")
					if len(want) > 0 {
						if !s.Remove(set, want[0]) {
							t.Fatal("Remove of the front way missed")
						}
						want = want[1:]
						check("remove from the front way")
					}
					if touch(2000) {
						t.Fatal("new key 2000 hit")
					}
					want = append([]uint64{2000}, want...)
					check("fill after removes")
					if !s.Contains(set, 2000) {
						t.Fatal("Contains missed the front key")
					}

					s.Clear()
					want = nil
					check("clear")
				})
			}
		})
	}
}

// TestInsertRefreshesValue checks that inserting a present key keeps
// one way for it, holding the new value.
func TestInsertRefreshesValue(t *testing.T) {
	s := New[addr.HPA](1, 4)
	s.Insert(0, 1, 0x1000)
	s.Insert(0, 2, 0x2000)
	s.Insert(0, 1, 0x3000)
	if v, ok := s.Lookup(0, 1); !ok || v != 0x3000 {
		t.Fatalf("Lookup(1) = %#x, %v; want 0x3000, true", v, ok)
	}
	if got := s.keys; got[0] != 2 || got[1] != 3 || got[2] != 0 || got[3] != 0 {
		t.Fatalf("keys %v, want [2 3 0 0]", got)
	}
}

var (
	sinkHit   bool
	sinkFrame addr.HPA
)

// BenchmarkLevelTouch measures one touch of a single set, per shape
// and way: cycling over span keys in order hits the front way (span 1),
// hits the last way (span = ways, each key the least recent when it
// returns), or misses (span = ways+1). The cache shapes (8 and 16 ways,
// no values) run Access; the TLB shapes (4 and 8 ways of addr.HPA) run
// Lookup, then Insert on a miss.
func BenchmarkLevelTouch(b *testing.B) {
	type touchCase struct {
		name string
		span int
		hit  bool
	}
	cases := func(ways int) []touchCase {
		return []touchCase{{"hitMRU", 1, true}, {"hitLRU", ways, true}, {"miss", ways + 1, false}}
	}
	for _, ways := range []int{8, 16} {
		for _, bc := range cases(ways) {
			b.Run(fmt.Sprintf("cache/%dway/%s", ways, bc.name), func(b *testing.B) {
				s := New[struct{}](1, ways)
				for i := 0; i < bc.span; i++ {
					s.Access(0, uint64(i))
				}
				b.ReportAllocs()
				b.ResetTimer()
				var hit bool
				for i := 0; i < b.N; i++ {
					if hit = s.Access(0, uint64(i%bc.span)); hit != bc.hit {
						b.Fatalf("touch %d: hit = %v, want %v", i, hit, bc.hit)
					}
				}
				sinkHit = hit
			})
		}
	}
	const frame addr.HPA = 0x1000
	for _, ways := range []int{4, 8} {
		for _, bc := range cases(ways) {
			b.Run(fmt.Sprintf("tlb/%dway/%s", ways, bc.name), func(b *testing.B) {
				s := New[addr.HPA](1, ways)
				for i := 0; i < bc.span; i++ {
					s.Insert(0, uint64(i), frame)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var hit bool
				for i := 0; i < b.N; i++ {
					key := uint64(i % bc.span)
					var f addr.HPA
					if f, hit = s.Lookup(0, key); !hit {
						s.Insert(0, key, frame)
					}
					if hit != bc.hit {
						b.Fatalf("touch %d: hit = %v, want %v", i, hit, bc.hit)
					}
					sinkFrame = f
				}
				sinkHit = hit
			})
		}
	}
}
