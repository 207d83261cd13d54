// Package lru is the simulator's one set-associative LRU store: the
// cache levels, the TLBs and the POM-TLB baseline differ only in
// geometry and payload, so they share its replacement.
//
// A Sets is one sets×ways array. Each set is a contiguous run of ways
// kept in LRU-stack order, most recently used first: the position is
// the recency, so there is no valid bit, no per-way timestamp and no
// clock. A key is stored plus one, so 0 marks an empty way; empty ways
// gather at a set's tail, and the last way holds the victim a fill of a
// full set evicts. The owner picks the set (by its own mask or modulo);
// Sets owns only the order within it.
package lru

// Sets is a sets×ways LRU array of uint64 keys, each with a V. Keys and
// values are separate slices, so a value-less store (V = struct{}) costs
// 8 bytes a way.
type Sets[V any] struct {
	ways int
	keys []uint64
	vals []V
}

// New returns a store of sets×ways empty ways.
func New[V any](sets, ways int) Sets[V] {
	return Sets[V]{ways: ways, keys: make([]uint64, sets*ways), vals: make([]V, sets*ways)}
}

// Access makes key the most recently used of set and reports whether it
// was present. One pass pushes key in at the front and shifts each key
// it passes down a way, stopping at key's old way on a hit; on a miss
// the last key, an empty way or the LRU victim, falls off. It moves
// keys only, so it is for value-less stores (V = struct{}).
//
//nestedlint:hotpath
func (s *Sets[V]) Access(set int, key uint64) bool {
	lo := set * s.ways
	ks, prev := s.keys[lo:lo+s.ways], key+1
	for i, k := range ks {
		ks[i] = prev
		if k == key+1 {
			return true
		}
		prev = k
	}
	return false
}

// Contains reports whether key is in set, changing nothing.
func (s *Sets[V]) Contains(set int, key uint64) bool {
	lo := set * s.ways
	for _, k := range s.keys[lo : lo+s.ways] {
		if k == key+1 {
			return true
		}
	}
	return false
}

// Lookup returns key's value and makes it the most recently used of set.
//
//nestedlint:hotpath
func (s *Sets[V]) Lookup(set int, key uint64) (v V, ok bool) {
	lo, hi := set*s.ways, set*s.ways+s.ways
	ks, vs := s.keys[lo:hi], s.vals[lo:hi]
	for i, k := range ks {
		if k == key+1 {
			v = vs[i]
			for ; i > 0; i-- {
				ks[i], vs[i] = ks[i-1], vs[i-1]
			}
			ks[0], vs[0] = key+1, v
			return v, true
		}
	}
	return v, false
}

// Insert makes key the most recently used of set with value v: Access's
// one pass, carrying the values along, so a present key keeps one way
// and takes v.
//
//nestedlint:hotpath
func (s *Sets[V]) Insert(set int, key uint64, v V) {
	lo, hi := set*s.ways, set*s.ways+s.ways
	ks, vs := s.keys[lo:hi], s.vals[lo:hi]
	pk, pv := key+1, v
	for i, k := range ks {
		ks[i], vs[i], pk, pv = pk, pv, k, vs[i]
		if k == key+1 {
			return
		}
	}
}

// Remove drops key from set and reports whether it was present. The
// ways after it move up one, so the set's tail empties and the empty
// ways stay gathered there.
func (s *Sets[V]) Remove(set int, key uint64) bool {
	lo, hi := set*s.ways, set*s.ways+s.ways
	ks, vs := s.keys[lo:hi], s.vals[lo:hi]
	for i, k := range ks {
		if k == key+1 {
			copy(ks[i:], ks[i+1:])
			copy(vs[i:], vs[i+1:])
			var zero V
			ks[len(ks)-1], vs[len(vs)-1] = 0, zero
			return true
		}
	}
	return false
}

// Clear empties every set.
func (s *Sets[V]) Clear() {
	clear(s.keys)
	clear(s.vals)
}
