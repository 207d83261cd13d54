// Package addr defines the address types and page-size arithmetic used
// throughout the simulator.
//
// Three distinct integer types keep the three x86-64 virtualization
// address spaces from being mixed up accidentally:
//
//   - GVA: guest virtual address (what the application issues),
//   - GPA: guest physical address (what the guest OS manages),
//   - HPA: host physical address (what the hypervisor manages and the
//     memory system actually stores).
//
// The package also implements the radix-level index extraction of the
// x86-64 4-level page-table format and the virtual-page-number (VPN)
// arithmetic shared by the hashed page-table designs.
//
// The page arithmetic is generic over any ~uint64 address domain, so
// VPN, PageBase, PageOffset, and friends work on any one space without
// erasing it, while Translate is the single sanctioned crossing from
// one space into another (a frame in the target space composed with
// the offset of the source address). The addrspace analyzer
// (internal/analysis) enforces that discipline everywhere outside this
// package: conversions between domains, or between a domain and bare
// uint64, are flagged unless they go through Translate, IdentityHPA,
// FrameBase, or a function annotated //nestedlint:domaincast <reason>.
package addr

import "fmt"

// GVA is a guest virtual address.
type GVA uint64

// GPA is a guest physical address.
type GPA uint64

// HPA is a host physical address.
type HPA uint64

// Addr constrains the generic page arithmetic to the address domains
// (and bare uint64, for domain-agnostic code such as the generic
// container packages).
type Addr interface{ ~uint64 }

// PageSize enumerates the x86-64 page sizes modelled by the simulator.
// The paper names the three ECPTs after the radix level that maps each
// size: PTE (4KB), PMD (2MB), and PUD (1GB).
type PageSize uint8

const (
	// Page4K is a 4KB base page (PTE level).
	Page4K PageSize = iota
	// Page2M is a 2MB huge page (PMD level).
	Page2M
	// Page1G is a 1GB huge page (PUD level).
	Page1G
	// NumPageSizes is the number of supported page sizes (the paper's n).
	NumPageSizes = 3
)

// PageShift4K is the bit width of the 4KB page offset.
const PageShift4K = 12

// CacheLineBytes is the line size of every cache in the modelled
// hierarchy (Table 2: 64B lines).
const CacheLineBytes = 64

// pageShifts holds log2 of each page size in bytes. A table keeps
// Shift — and everything built on it (VPN, Bytes, OffsetMask), all
// called several times per walk — small enough to inline; an invalid
// size panics on the bounds check.
var pageShifts = [NumPageSizes]uint8{Page4K: 12, Page2M: 21, Page1G: 30}

// Shift returns log2 of the page size in bytes.
//
//nestedlint:hotpath
func (s PageSize) Shift() uint { return uint(pageShifts[s]) }

// Bytes returns the page size in bytes.
//
//nestedlint:hotpath
func (s PageSize) Bytes() uint64 { return 1 << s.Shift() }

// OffsetMask returns the mask covering the page offset bits.
//
//nestedlint:hotpath
func (s PageSize) OffsetMask() uint64 { return s.Bytes() - 1 }

// String names the page size the way the paper does.
func (s PageSize) String() string {
	switch s {
	case Page4K:
		return "4KB"
	case Page2M:
		return "2MB"
	case Page1G:
		return "1GB"
	}
	return fmt.Sprintf("PageSize(%d)", uint8(s))
}

// LevelName returns the radix level that maps this page size
// (PTE for 4KB, PMD for 2MB, PUD for 1GB), which is also how the paper
// names the per-size ECPTs and CWTs.
func (s PageSize) LevelName() string {
	switch s {
	case Page4K:
		return "PTE"
	case Page2M:
		return "PMD"
	case Page1G:
		return "PUD"
	}
	return "?"
}

// Sizes lists all supported page sizes from smallest to largest.
func Sizes() [NumPageSizes]PageSize { return [NumPageSizes]PageSize{Page4K, Page2M, Page1G} }

// VPN returns the page number of v for the given page size. A page
// number indexes hash functions and cache tags, so it is a plain
// uint64, not an address.
//
//nestedlint:hotpath
func VPN[A Addr](v A, s PageSize) uint64 { return uint64(v) >> s.Shift() }

// FrameBase is the inverse of VPN: the base address, in space A, of
// page number n at the given page size. It is the sanctioned way to
// turn a stored frame number back into an address; the caller names
// the space the number was taken from.
func FrameBase[A Addr](n uint64, s PageSize) A { return A(n << s.Shift()) }

// PageBase returns the base address of the page containing v, in v's
// own address space.
//
//nestedlint:hotpath
func PageBase[A Addr](v A, s PageSize) A { return v &^ A(s.OffsetMask()) }

// PageOffset returns the offset of v within its page. Offsets are
// space-free byte counts.
//
//nestedlint:hotpath
func PageOffset[A Addr](v A, s PageSize) uint64 { return uint64(v) & s.OffsetMask() }

// Translate composes a translated page frame base with the page offset
// of the original address. The frame lives in the destination address
// space and the offset is space-free, so this is the one sanctioned
// way to cross between domains: gVA→gPA through a guest frame,
// gPA→hPA through a host frame.
//
//nestedlint:hotpath
func Translate[D, S Addr](frameBase D, v S, s PageSize) D {
	return frameBase | D(PageOffset(v, s))
}

// Add offsets an address by a space-free byte count without leaving
// its address space. Workload generators and table-layout code use it
// to compose a typed base address with an untyped array offset.
//
//nestedlint:hotpath
func Add[A Addr](v A, off uint64) A { return v + A(off) }

// IdentityHPA crosses gPA→hPA by identity, for native
// (non-virtualized) designs where the kernel's "guest-physical"
// addresses are host-physical: there is no hypervisor and no EPT, so
// the two spaces coincide.
//
//nestedlint:hotpath
func IdentityHPA(pa GPA) HPA { return HPA(pa) }

// CacheLine returns the line number of v: the tag every cache in the
// hierarchy uses. Line numbers are indices, not addresses.
//
//nestedlint:hotpath
func CacheLine[A Addr](v A) uint64 { return uint64(v) / CacheLineBytes }

// LevelPrefix returns the address bits above level l's index — the tag
// a page-walk cache keys level-l entries by (the 4KB page offset plus
// l-1 levels of 9-bit indices are dropped).
//
//nestedlint:hotpath
func LevelPrefix[A Addr](v A, l RadixLevel) uint64 {
	return uint64(v) >> (PageShift4K + 9*(uint(l)-1))
}

// RadixLevel identifies a level of the x86-64 4-level radix tree.
// Level 4 (PGD) is the root; level 1 (PTE) is the leaf for 4KB pages.
type RadixLevel int

const (
	// L1 is the PTE level (maps 4KB pages).
	L1 RadixLevel = 1
	// L2 is the PMD level (maps 2MB pages when used as a leaf).
	L2 RadixLevel = 2
	// L3 is the PUD level (maps 1GB pages when used as a leaf).
	L3 RadixLevel = 3
	// L4 is the PGD root level.
	L4 RadixLevel = 4
)

// String names the radix level following Linux conventions.
func (l RadixLevel) String() string {
	switch l {
	case L1:
		return "PTE"
	case L2:
		return "PMD"
	case L3:
		return "PUD"
	case L4:
		return "PGD"
	}
	return fmt.Sprintf("L%d", int(l))
}

// RadixIndex extracts the 9-bit table index for the given level from a
// virtual address: bits 47-39 for L4 down to bits 20-12 for L1
// (Figure 1 of the paper).
//
//nestedlint:hotpath
func RadixIndex[A Addr](v A, l RadixLevel) uint64 {
	return LevelPrefix(v, l) & 0x1FF
}

// LeafLevel returns the radix level at which a page of size s is mapped.
func LeafLevel(s PageSize) RadixLevel {
	switch s {
	case Page4K:
		return L1
	case Page2M:
		return L2
	case Page1G:
		return L3
	}
	panic("addr: invalid page size")
}

// SizeForLeaf is the inverse of LeafLevel. It panics for L4, which can
// never map a page directly.
//
//nestedlint:hotpath
func SizeForLeaf(l RadixLevel) PageSize {
	switch l {
	case L1:
		return Page4K
	case L2:
		return Page2M
	case L3:
		return Page1G
	}
	panicBadLeaf(l)
	return 0
}

// panicBadLeaf keeps the panic-message formatting out of SizeForLeaf's
// body: SizeForLeaf inlines into hot walk loops, and an inlined
// fmt.Sprintf would put an escaping allocation inside the hot region.
//
//nestedlint:coldpath panic formatting runs once at death, never on a mapped walk
//go:noinline
func panicBadLeaf(l RadixLevel) {
	panic(fmt.Sprintf("addr: level %s does not map pages", l))
}

// CanonicalGVA reports whether v is a canonical 48-bit x86-64 virtual
// address (sign-extended bits 63-48).
func CanonicalGVA(v GVA) bool {
	top := uint64(v) >> 47
	return top == 0 || top == 0x1FFFF
}
