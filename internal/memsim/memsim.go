// Package memsim models the physical address spaces of the host and of
// each guest: frame allocation at every supported page size, optional
// fragmentation (which makes huge-page allocation fail, as §10 of the
// paper discusses), and accounting of how much memory each consumer
// (data pages, page tables, CWTs) holds — the input to the §9.5 memory
// consumption experiment.
package memsim

import (
	"fmt"
	"slices"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/vhash"
)

// Purpose labels why a frame was allocated, for memory accounting.
type Purpose uint8

const (
	// PurposeData is an application data page.
	PurposeData Purpose = iota
	// PurposePageTable is a page-table page (radix table page or ECPT chunk).
	PurposePageTable
	// PurposeCWT is a cuckoo-walk-table page.
	PurposeCWT
	numPurposes
)

// String names the purpose.
func (p Purpose) String() string {
	switch p {
	case PurposeData:
		return "data"
	case PurposePageTable:
		return "page-table"
	case PurposeCWT:
		return "cwt"
	}
	return fmt.Sprintf("Purpose(%d)", uint8(p))
}

// Allocator hands out physical frames from a fixed-capacity physical
// address space. Allocation is a deterministic bump pointer per page
// size with free lists, so repeated runs place structures identically.
//
// The type parameter names the address space the allocator mints:
// a kernel's allocator hands out addr.GPA frames, a hypervisor's
// addr.HPA frames. This is the one place new addresses of a domain
// legitimately come into existence; internal bookkeeping is plain
// byte arithmetic and only the API boundary is typed.
type Allocator[P addr.Addr] struct {
	// base offsets every minted address: a multi-VM host gives each
	// guest a disjoint [base, base+capacity) guest-physical window over
	// one shared hypervisor (internal/serve), so gPAs from different
	// VMs never collide in the shared host tables.
	base     uint64
	capacity uint64
	// next bumps upward for data frames; metaNext bumps downward for
	// page-table and CWT frames. Real kernels cluster page-table pages
	// through slab caches rather than interleaving them with data, and
	// that clustering is load-bearing: it is what makes the host-side
	// structures that cover page tables (NTLB, NPWC, PTE-hCWT entries)
	// effective.
	next     uint64
	metaNext uint64
	free     [addr.NumPageSizes][]uint64
	metaFree []uint64
	used     [numPurposes]uint64
	// hugeFail emulates physical-memory fragmentation: each 2MB/1GB
	// allocation fails with this probability, forcing the caller to
	// fall back to smaller pages (like a real buddy allocator under
	// fragmentation).
	hugeFail float64
	rng      *vhash.RNG
}

// NewAllocator returns an allocator over [0, capacity) bytes.
func NewAllocator[P addr.Addr](capacity uint64, seed uint64) *Allocator[P] {
	return NewAllocatorAt[P](0, capacity, seed)
}

// NewAllocatorAt returns an allocator over [base, base+capacity)
// bytes. All internal bookkeeping is absolute, so every minted frame,
// region, and free-list entry carries the base; base must be 1GB-
// aligned so frame alignment at every page size is preserved.
func NewAllocatorAt[P addr.Addr](base, capacity uint64, seed uint64) *Allocator[P] {
	if base%addr.Page1G.Bytes() != 0 {
		panic(fmt.Sprintf("memsim: allocator base %#x not 1GB-aligned", base))
	}
	return &Allocator[P]{
		base:     base,
		capacity: capacity,
		next:     base,
		metaNext: base + capacity,
		rng:      vhash.NewRNG(seed),
	}
}

// Fork returns an independent copy of the allocator: the same frames
// in use and free, the same fragmentation stream from here on, and no
// storage shared with a, so either side may allocate and free without
// the other seeing it.
func (a *Allocator[P]) Fork() *Allocator[P] {
	f := *a
	for s := range f.free {
		f.free[s] = slices.Clone(a.free[s])
	}
	f.metaFree = slices.Clone(a.metaFree)
	rng := *a.rng
	f.rng = &rng
	return &f
}

// Base returns the first byte of the allocator's address window.
func (a *Allocator[P]) Base() uint64 { return a.base }

// MetaRegion returns the current extent of the clustered metadata
// region: every page-table or CWT frame minted so far lies in
// [floor, top). The floor moves down as more metadata is allocated —
// callers pre-mapping the region (internal/serve backs guest metadata
// with host pages ahead of lock-free walkers) should include slack
// below it.
func (a *Allocator[P]) MetaRegion() (floor, top P) {
	return P(a.metaNext), P(a.base + a.capacity)
}

// SetHugePageFailureRate sets the probability in [0,1] that an
// allocation of a 2MB or 1GB frame fails due to fragmentation.
func (a *Allocator[P]) SetHugePageFailureRate(p float64) { a.hugeFail = p }

// Capacity returns the size of the physical address space in bytes.
func (a *Allocator[P]) Capacity() uint64 { return a.capacity }

// Alloc allocates one frame of the given size and returns its base
// address. It returns ok=false when the space is exhausted or when a
// huge-page allocation fails due to the configured fragmentation.
// Page-table and CWT frames come from the clustered metadata region at
// the top of the address space (4KB only); data frames bump upward
// from the bottom.
func (a *Allocator[P]) Alloc(s addr.PageSize, why Purpose) (base P, ok bool) {
	if why != PurposeData {
		if s != addr.Page4K {
			panic(fmt.Sprintf("memsim: %s frames must be 4KB, got %s", why, s))
		}
		b, ok := a.allocMeta(addr.Page4K.Bytes(), why)
		return P(b), ok
	}
	if s != addr.Page4K && a.hugeFail > 0 && a.rng.Float64() < a.hugeFail {
		return 0, false
	}
	if fl := a.free[s]; len(fl) > 0 {
		base := fl[len(fl)-1]
		a.free[s] = fl[:len(fl)-1]
		a.used[why] += s.Bytes()
		return P(base), true
	}
	// Align the bump pointer to the frame size.
	aligned := (a.next + s.Bytes() - 1) &^ (s.Bytes() - 1)
	if aligned+s.Bytes() > a.metaNext {
		return 0, false
	}
	// Alignment holes become 4KB free frames rather than leaking.
	for p := a.next; p < aligned; p += addr.Page4K.Bytes() {
		a.free[addr.Page4K] = append(a.free[addr.Page4K], p)
	}
	a.next = aligned + s.Bytes()
	a.used[why] += s.Bytes()
	return P(aligned), true
}

// allocMeta carves bytes (4KB-aligned) downward from the metadata
// region, preferring freed metadata frames for single-page requests.
func (a *Allocator[P]) allocMeta(bytes uint64, why Purpose) (base uint64, ok bool) {
	if bytes == addr.Page4K.Bytes() && len(a.metaFree) > 0 {
		base = a.metaFree[len(a.metaFree)-1]
		a.metaFree = a.metaFree[:len(a.metaFree)-1]
		a.used[why] += bytes
		return base, true
	}
	if a.metaNext < a.next+bytes {
		return 0, false
	}
	a.metaNext -= bytes
	a.used[why] += bytes
	return a.metaNext, true
}

// Free returns a frame to the allocator.
func (a *Allocator[P]) Free(base P, s addr.PageSize, why Purpose) {
	if why != PurposeData {
		a.metaFree = append(a.metaFree, uint64(base))
		if a.used[why] >= s.Bytes() {
			a.used[why] -= s.Bytes()
		} else {
			a.used[why] = 0
		}
		return
	}
	a.free[s] = append(a.free[s], uint64(base))
	if a.used[why] >= s.Bytes() {
		a.used[why] -= s.Bytes()
	} else {
		a.used[why] = 0
	}
}

// AllocRegion carves a physically-contiguous metadata region of the
// given size (rounded up to whole 4KB pages) and returns its base
// address. ECPT ways are contiguous arrays indexed by hash, so they
// need regions rather than individual frames. It returns an
// *OutOfMemoryError, having allocated nothing, when the space is
// exhausted.
func (a *Allocator[P]) AllocRegion(bytes uint64, why Purpose) (P, error) {
	sz := roundPage(bytes)
	base, ok := a.allocMeta(sz, why)
	if !ok {
		return 0, a.OutOfMemory(sz, why)
	}
	return P(base), nil
}

// FreeRegion returns a region previously obtained from AllocRegion.
// The space is handed back as 4KB metadata frames.
func (a *Allocator[P]) FreeRegion(base P, bytes uint64, why Purpose) {
	sz := roundPage(bytes)
	for p := uint64(base); p < uint64(base)+sz; p += addr.Page4K.Bytes() {
		a.metaFree = append(a.metaFree, p)
	}
	if a.used[why] >= sz {
		a.used[why] -= sz
	} else {
		a.used[why] = 0
	}
}

// MetaFits returns nil when the allocator can hand out pages single 4KB
// metadata frames and regions AllocRegion regions of regionBytes each,
// in any order, and otherwise the *OutOfMemoryError of allocating all
// those bytes for why. A caller asks before its first write, so that an
// operation it cannot finish writes nothing.
func (a *Allocator[P]) MetaFits(pages, regions int, regionBytes uint64, why Purpose) error {
	sz := roundPage(regionBytes)
	if sz == addr.Page4K.Bytes() {
		// A one-page region takes a freed frame first, as a page does.
		pages, regions = pages+regions, 0
	}
	gap := uint64(max(pages-len(a.metaFree), 0))*addr.Page4K.Bytes() + uint64(regions)*sz
	if gap > a.metaNext-a.next {
		return a.OutOfMemory(uint64(pages)*addr.Page4K.Bytes()+uint64(regions)*sz, why)
	}
	return nil
}

// roundPage rounds bytes up to whole 4KB pages.
func roundPage(bytes uint64) uint64 {
	return (bytes + addr.Page4K.Bytes() - 1) &^ (addr.Page4K.Bytes() - 1)
}

// OutOfMemoryError is the one error every layer returns when a
// simulated physical address space runs out: it names the bytes the
// failed allocation wanted, the space's capacity and what the memory
// was for. Callers wrap it with %w, so errors.As finds it at any layer.
type OutOfMemoryError struct {
	Bytes    uint64
	Capacity uint64
	Purpose  Purpose
}

func (e *OutOfMemoryError) Error() string {
	return fmt.Sprintf("memsim: out of memory allocating %dB for %s (capacity %d)", e.Bytes, e.Purpose, e.Capacity)
}

// OutOfMemory returns the error for an allocation of bytes for why
// that a has no room for.
func (a *Allocator[P]) OutOfMemory(bytes uint64, why Purpose) error {
	return &OutOfMemoryError{Bytes: bytes, Capacity: a.capacity, Purpose: why}
}

// Used returns the bytes currently allocated for the given purpose.
func (a *Allocator[P]) Used(why Purpose) uint64 { return a.used[why] }

// TotalUsed returns the bytes currently allocated across all purposes.
func (a *Allocator[P]) TotalUsed() uint64 {
	var t uint64
	for i := Purpose(0); i < numPurposes; i++ {
		t += a.used[i]
	}
	return t
}
