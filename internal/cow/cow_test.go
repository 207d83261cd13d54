package cow

import (
	"slices"
	"testing"
)

// page is a small page type: 64 bytes, so a directory entry is 8 B and
// a page copy 64 B.
type page [8]uint64

const (
	pageBytes = 64
	dirBytes  = 8 // a directory's bytes per page
)

// op is one step of a store test: a write of page i, an append, or a
// Share handing side a new header, and the bytes it must copy.
type op struct {
	kind byte // 'w' write page i, 'a' append, 's' share
	side int
	i    int
	want uint64
}

// TestStoreAgainstSlices drives stores through writes, appends and
// shares beside a model of one plain slice per header: every header
// reads back exactly its model after every step, so no write shows
// across headers in either direction, and every step copies exactly
// the bytes it must — nothing for a flat store nobody shares or for
// Share, a directory plus one page for either side's first write, and
// nothing for a second write to a page already copied.
func TestStoreAgainstSlices(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store func() Store[page]
		ops   []op
		paged []bool // each side's mode at the end
	}{
		{"flat store nobody shares", func() Store[page] { return Flat[page](4) }, []op{
			{'w', 0, 0, 0}, {'w', 0, 3, 0}, {'w', 0, 0, 0},
		}, []bool{false}},
		{"flat store shared", func() Store[page] { return Flat[page](4) }, []op{
			{'w', 0, 1, 0},
			{'s', 0, 0, 0},
			{'w', 1, 2, 4*dirBytes + pageBytes}, // the sharer's first write
			{'w', 1, 2, 0},                      // a second write is free
			{'w', 0, 2, 4*dirBytes + pageBytes}, // the original pays its own
			{'w', 0, 1, pageBytes},              // another page: the page only
			{'w', 1, 1, pageBytes},
			{'a', 1, 0, 0}, // side 1 owns its directory already
			{'s', 1, 0, 0}, // side 2 over side 1's five pages
			{'a', 2, 0, 5 * dirBytes},
			{'w', 2, 4, pageBytes},              // side 1's appended page, now shared
			{'w', 1, 4, 5*dirBytes + pageBytes}, // side 1 shared it again
			{'w', 2, 5, 0},                      // side 2's own appended page
		}, []bool{true, true, true}},
		{"paged store", func() Store[page] { return Store[page]{} }, []op{
			{'a', 0, 0, 0}, {'a', 0, 0, 0}, {'w', 0, 1, 0},
			{'s', 0, 0, 0},
			{'a', 0, 0, 2 * dirBytes}, // appending to a shared store takes a directory first
			{'w', 0, 2, 0},            // the appended page is the appender's
			{'w', 0, 0, pageBytes},
			{'w', 1, 0, 2*dirBytes + pageBytes},
		}, []bool{true, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.store()
			stores := []*Store[page]{&s}
			models := [][]page{make([]page, s.Len())}
			for n, o := range tc.ops {
				var copied uint64
				switch o.kind {
				case 'w':
					stamp := page{uint64(n + 1), uint64(o.side)}
					*stores[o.side].Write(o.i, &copied) = stamp
					models[o.side][o.i] = stamp
				case 'a':
					stamp := page{uint64(n + 1), 0xA}
					stores[o.side].Append(&stamp, &copied)
					models[o.side] = append(models[o.side], stamp)
				case 's':
					sh := stores[o.side].Share()
					stores = append(stores, &sh)
					models = append(models, slices.Clone(models[o.side]))
				}
				if copied != o.want {
					t.Fatalf("op %d %c side %d page %d copied %d B, want %d", n, o.kind, o.side, o.i, copied, o.want)
				}
				for k, st := range stores {
					if st.Len() != len(models[k]) {
						t.Fatalf("op %d: side %d has %d pages, model %d", n, k, st.Len(), len(models[k]))
					}
					for i, want := range models[k] {
						if got := *st.At(i); got != want {
							t.Fatalf("op %d: side %d page %d = %v, model %v", n, k, i, got, want)
						}
					}
				}
			}
			for k, want := range tc.paged {
				if got := stores[k].Paged(); got != want {
					t.Errorf("side %d paged %v, want %v", k, got, want)
				}
			}
		})
	}
}

// TestShareAllocatesNothing: Share hands out a header, not a copy.
func TestShareAllocatesNothing(t *testing.T) {
	flat, paged := Flat[page](64), Store[page]{}
	var copied uint64
	for range 64 {
		paged.Append(new(page), &copied)
	}
	for _, s := range []*Store[page]{&flat, &paged} {
		if n := testing.AllocsPerRun(100, func() { _ = s.Share() }); n != 0 {
			t.Errorf("Share allocated %v times", n)
		}
	}
}
