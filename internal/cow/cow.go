// Package cow is the simulator's one copy-on-write page store: ECPT
// ways, CWT pages and the radix slab all share a page until one side
// writes it, and then copy that page alone.
//
// A Store is an array of fixed-size pages of type T (a simulated 4KB
// table page, or a chunk of them) behind a directory of page pointers.
// A store nobody shares may be flat: its pages are one []T, which reads
// index directly, with no directory load on the read path. Otherwise it
// is paged and reads go through the directory. Each header keeps a
// bitmap of the pages it may write in place: the pages it built,
// appended or copied. Share hands out a second header over the same
// pages and marks both shared; the first write through either side
// gives that side a directory of its own, owning no page yet, and each
// page is copied the first time the side writes it. Pages are never
// written through a header that does not own them, so every other
// header, and every reader of one, sees the page as it was when shared.
package cow

import "unsafe"

// Store is an array of pages of type T, copied a page at a time on
// first write while shared. The zero value is an empty paged store;
// Flat builds a flat one.
type Store[T any] struct {
	// flat holds the pages of a flat store, nil once it is paged. It
	// comes first: it is the one field a flat read loads.
	flat []T
	// pages is the directory, pointing into flat while the store is
	// flat; owned is a bitmap over it of the pages this header may
	// write in place, nil while the header shares its directory.
	pages []*T
	owned []uint64
	// inPlace is how many leading pages this header owns, so that Write
	// need not consult owned: every page until the store is shared,
	// none after.
	inPlace int
}

// Flat returns a flat store of n zero pages. It writes nothing into
// them, so the memory is not touched until a page is used.
func Flat[T any](n int) Store[T] {
	s := Store[T]{flat: make([]T, n), pages: make([]*T, n), owned: make([]uint64, (n+63)/64), inPlace: n}
	for i := range s.flat {
		s.pages[i] = &s.flat[i]
	}
	return s
}

// Len returns the number of pages.
func (s *Store[T]) Len() int { return len(s.pages) }

// Paged reports whether the store reads through its directory.
func (s *Store[T]) Paged() bool { return s.flat == nil }

// At returns page i for reading. A paged store's flat slice is nil, so
// the flat slice's own bounds check is the one branch that tells the
// modes apart: it goes the same way on every read of a flat store.
//
//nestedlint:hotpath
func (s *Store[T]) At(i int) *T {
	var p *T
	if flat := s.flat; uint(i) < uint(len(flat)) {
		p = &flat[i]
	} else {
		p = s.pages[i]
	}
	if p == nil {
		// Never taken. The compare lets a caller that inlines At index
		// the page without the compiler's own nil check, which loads the
		// page's first byte: a second host cache line whenever the
		// element read lies elsewhere in the page.
		panic("cow: nil page")
	}
	return p
}

// Write returns page i ready to write in place. It inlines, so a write
// to a store nobody has shared costs no call; any other write goes
// through write.
func (s *Store[T]) Write(i int, copied *uint64) *T {
	if uint(i) < uint(s.inPlace) {
		return s.pages[i]
	}
	return s.write(i, copied)
}

// write is Write past the leading pages. A shared store first takes a
// directory of its own, and page i is copied the first time this header
// writes it. The bytes copied, directory and page, are added to
// *copied.
func (s *Store[T]) write(i int, copied *uint64) *T {
	if s.owned == nil {
		s.own(copied)
	}
	if w, bit := uint(i)/64, uint64(1)<<(uint(i)%64); s.owned[w]&bit == 0 {
		cp := new(T)
		*cp = *s.pages[i]
		s.pages[i] = cp
		s.owned[w] |= bit
		*copied += uint64(unsafe.Sizeof(*cp))
	}
	return s.pages[i]
}

// Append adds page p at the end of the store, owned by this header. A
// shared store first takes a directory of its own, counted in *copied
// as write counts it.
func (s *Store[T]) Append(p *T, copied *uint64) {
	if s.owned == nil {
		s.own(copied)
	}
	n := len(s.pages)
	if n%64 == 0 {
		s.owned = append(s.owned, 0)
	}
	s.owned[n/64] |= 1 << (n % 64)
	s.pages = append(s.pages, p)
	if s.inPlace == n {
		s.inPlace++
	}
}

// Share returns a second header over the store's pages and marks both
// shared, so neither writes a page the other can reach. It copies
// nothing.
//
//nestedlint:hotpath
func (s *Store[T]) Share() Store[T] {
	s.owned, s.inPlace = nil, 0
	return Store[T]{flat: s.flat, pages: s.pages}
}

// own gives the store a copy of its directory, owning no page, and
// makes it paged. The bitmap it makes is never nil, even for an empty
// store.
func (s *Store[T]) own(copied *uint64) {
	dir := append(make([]*T, 0, len(s.pages)), s.pages...)
	s.flat, s.pages, s.owned = nil, dir, make([]uint64, (len(dir)+63)/64)
	*copied += uint64(len(dir)) * uint64(unsafe.Sizeof(dir[0]))
}
