package memsim

import (
	"errors"
	"testing"

	"nestedecpt/internal/addr"
)

func newTestAlloc(capMB uint64) *Allocator[uint64] {
	return NewAllocator[uint64](capMB<<20, 1)
}

func TestAllocAlignment(t *testing.T) {
	a := newTestAlloc(64)
	for _, s := range addr.Sizes() {
		base, ok := a.Alloc(s, PurposeData)
		if !ok && s == addr.Page1G {
			continue // 64MB space cannot hold a 1GB frame
		}
		if !ok {
			t.Fatalf("Alloc(%v) failed", s)
		}
		if base&s.OffsetMask() != 0 {
			t.Errorf("Alloc(%v) = %#x not aligned", s, base)
		}
	}
}

func TestAllocDistinctFrames(t *testing.T) {
	a := newTestAlloc(16)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		base, ok := a.Alloc(addr.Page4K, PurposeData)
		if !ok {
			t.Fatal("exhausted too early")
		}
		if seen[base] {
			t.Fatalf("frame %#x allocated twice", base)
		}
		seen[base] = true
	}
}

func TestMetadataClustersAtTop(t *testing.T) {
	a := newTestAlloc(64)
	data, _ := a.Alloc(addr.Page4K, PurposeData)
	meta, _ := a.Alloc(addr.Page4K, PurposePageTable)
	cwt, _ := a.Alloc(addr.Page4K, PurposeCWT)
	if meta <= data || cwt <= data {
		t.Errorf("metadata (%#x, %#x) not above data (%#x)", meta, cwt, data)
	}
	if meta < a.Capacity()/2 {
		t.Errorf("metadata %#x not near top of %#x", meta, a.Capacity())
	}
	// Metadata pages cluster tightly (the CWT frame sits between the
	// two page-table frames in the descending bump region).
	m2, _ := a.Alloc(addr.Page4K, PurposePageTable)
	if d := meta - m2; d != 2*addr.Page4K.Bytes() {
		t.Errorf("metadata pages not clustered: %#x then %#x", meta, m2)
	}
}

func TestMetadataHugePanics(t *testing.T) {
	a := newTestAlloc(64)
	defer func() {
		if recover() == nil {
			t.Fatal("huge page-table frame did not panic")
		}
	}()
	a.Alloc(addr.Page2M, PurposePageTable)
}

func TestFreeReuse(t *testing.T) {
	a := newTestAlloc(16)
	base, _ := a.Alloc(addr.Page4K, PurposeData)
	a.Free(base, addr.Page4K, PurposeData)
	again, _ := a.Alloc(addr.Page4K, PurposeData)
	if again != base {
		t.Errorf("freed frame not reused: got %#x, want %#x", again, base)
	}
	m, _ := a.Alloc(addr.Page4K, PurposePageTable)
	a.Free(m, addr.Page4K, PurposePageTable)
	m2, _ := a.Alloc(addr.Page4K, PurposePageTable)
	if m2 != m {
		t.Errorf("freed metadata frame not reused: got %#x, want %#x", m2, m)
	}
}

func TestUsedAccounting(t *testing.T) {
	a := newTestAlloc(64)
	a.Alloc(addr.Page4K, PurposeData)
	a.Alloc(addr.Page2M, PurposeData)
	a.Alloc(addr.Page4K, PurposePageTable)
	if got := a.Used(PurposeData); got != 4096+(2<<20) {
		t.Errorf("Used(data) = %d", got)
	}
	if got := a.Used(PurposePageTable); got != 4096 {
		t.Errorf("Used(page-table) = %d", got)
	}
	if got := a.TotalUsed(); got != 4096+(2<<20)+4096 {
		t.Errorf("TotalUsed = %d", got)
	}
	base, _ := a.Alloc(addr.Page4K, PurposeData)
	a.Free(base, addr.Page4K, PurposeData)
	if got := a.Used(PurposeData); got != 4096+(2<<20) {
		t.Errorf("Used(data) after free = %d", got)
	}
}

func TestExhaustion(t *testing.T) {
	a := NewAllocator[uint64](8<<12, 1) // eight 4KB frames
	n := 0
	for {
		if _, ok := a.Alloc(addr.Page4K, PurposeData); !ok {
			break
		}
		n++
		if n > 8 {
			t.Fatal("allocated more frames than capacity")
		}
	}
	if n != 8 {
		t.Errorf("allocated %d frames, want 8", n)
	}
}

// TestExhaustionIsOutOfMemoryError: a full allocator refuses frames,
// and a region it cannot carve is one *OutOfMemoryError naming the
// bytes, the capacity and the purpose. MetaFits says so first.
func TestExhaustionIsOutOfMemoryError(t *testing.T) {
	a := NewAllocator[uint64](3*4096, 1)
	if err := a.MetaFits(1, 1, 8192, PurposePageTable); err != nil {
		t.Fatalf("MetaFits on an empty 3-page allocator: %v", err)
	}
	if err := a.MetaFits(2, 1, 8192, PurposePageTable); err == nil {
		t.Fatal("MetaFits accepted 4 pages in a 3-page allocator")
	}
	region, err := a.AllocRegion(8192, PurposePageTable)
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.AllocRegion(8192, PurposePageTable)
	var oom *OutOfMemoryError
	if !errors.As(err, &oom) || *oom != (OutOfMemoryError{Bytes: 8192, Capacity: 3 * 4096, Purpose: PurposePageTable}) {
		t.Fatalf("AllocRegion on a full allocator: err = %v, want an *OutOfMemoryError for 8192B of page-table", err)
	}
	if got := a.Used(PurposePageTable); got != 8192 {
		t.Fatalf("Used after a failed AllocRegion = %d, want 8192", got)
	}
	if _, ok := a.Alloc(addr.Page4K, PurposeCWT); !ok {
		t.Fatal("last frame refused")
	}
	if _, ok := a.Alloc(addr.Page4K, PurposeCWT); ok {
		t.Fatal("Alloc on a full allocator succeeded")
	}
	// Freed metadata frames count toward single pages and one-page
	// regions, never toward a longer region.
	a.FreeRegion(region, 8192, PurposePageTable)
	if err := a.MetaFits(1, 1, 4096, PurposeCWT); err != nil {
		t.Fatalf("MetaFits over two freed frames: %v", err)
	}
	if err := a.MetaFits(0, 1, 8192, PurposePageTable); err == nil {
		t.Fatal("MetaFits counted freed frames toward an 8KB region")
	}
}

func TestHugePageFragmentation(t *testing.T) {
	a := newTestAlloc(512)
	a.SetHugePageFailureRate(1.0)
	if _, ok := a.Alloc(addr.Page2M, PurposeData); ok {
		t.Error("2MB allocation succeeded despite 100% failure rate")
	}
	if _, ok := a.Alloc(addr.Page4K, PurposeData); !ok {
		t.Error("4KB allocation must not be subject to fragmentation")
	}
	a.SetHugePageFailureRate(0)
	if _, ok := a.Alloc(addr.Page2M, PurposeData); !ok {
		t.Error("2MB allocation failed with no fragmentation")
	}
}

func TestAllocRegionContiguity(t *testing.T) {
	a := newTestAlloc(64)
	base, err := a.AllocRegion(3*4096+100, PurposePageTable)
	if err != nil {
		t.Fatal(err)
	}
	if base%4096 != 0 {
		t.Errorf("region base %#x not page aligned", base)
	}
	if got := a.Used(PurposePageTable); got != 4*4096 {
		t.Errorf("Used = %d, want rounded-up 4 pages", got)
	}
	a.FreeRegion(base, 3*4096+100, PurposePageTable)
	if got := a.Used(PurposePageTable); got != 0 {
		t.Errorf("Used after FreeRegion = %d", got)
	}
}

func TestDataAndMetaNeverOverlap(t *testing.T) {
	a := NewAllocator[uint64](1<<20, 1) // 256 frames
	dataMax, metaMin := uint64(0), a.Capacity()
	for i := 0; i < 100; i++ {
		d, ok := a.Alloc(addr.Page4K, PurposeData)
		if !ok {
			break
		}
		m, ok := a.Alloc(addr.Page4K, PurposePageTable)
		if !ok {
			break
		}
		if d > dataMax {
			dataMax = d
		}
		if m < metaMin {
			metaMin = m
		}
	}
	if dataMax+4096 > metaMin {
		t.Errorf("data region [..%#x] overlaps metadata [%#x..]", dataMax, metaMin)
	}
}

func TestPurposeString(t *testing.T) {
	if PurposeData.String() != "data" || PurposePageTable.String() != "page-table" || PurposeCWT.String() != "cwt" {
		t.Error("purpose names wrong")
	}
}

func TestAlignmentHolesRecycled(t *testing.T) {
	a := newTestAlloc(64)
	a.Alloc(addr.Page4K, PurposeData)          // bump to 4KB
	b2, _ := a.Alloc(addr.Page2M, PurposeData) // forces alignment to 2MB
	if b2 != 2<<20 {
		t.Fatalf("2MB frame at %#x, want %#x", b2, 2<<20)
	}
	// The hole between 4KB and 2MB must come back as 4KB frames.
	h, ok := a.Alloc(addr.Page4K, PurposeData)
	if !ok || h >= b2 {
		t.Errorf("alignment hole not recycled: got %#x", h)
	}
}

// TestAllocatorAt checks the based-window allocator the multi-VM serve
// engine uses for disjoint per-guest gPA ranges: data grows up from
// the base, metadata down from base+capacity, and both stay inside
// the window.
func TestAllocatorAt(t *testing.T) {
	const base, capacity = uint64(3) << 30, uint64(1) << 30
	a := NewAllocatorAt[uint64](base, capacity, 7)
	if a.Base() != base {
		t.Fatalf("Base() = %#x, want %#x", a.Base(), base)
	}
	pa, ok := a.Alloc(addr.Page4K, PurposeData)
	if !ok {
		t.Fatal("data alloc failed")
	}
	if pa < base || pa >= base+capacity {
		t.Fatalf("data alloc %#x outside window [%#x, %#x)", pa, base, base+capacity)
	}
	meta, err := a.AllocRegion(64, PurposePageTable)
	if err != nil {
		t.Fatal(err)
	}
	if meta < base || meta >= base+capacity {
		t.Fatalf("meta alloc %#x outside window", meta)
	}
	floor, top := a.MetaRegion()
	if top != base+capacity {
		t.Fatalf("MetaRegion top = %#x, want %#x", top, base+capacity)
	}
	if floor > meta {
		t.Fatalf("MetaRegion floor %#x above live metadata %#x", floor, meta)
	}
	if floor <= pa {
		t.Fatalf("metadata floor %#x reaches into data region (last data %#x)", floor, pa)
	}
}

// TestAllocatorAtUnalignedBase: per-VM windows must be 1GB-aligned so
// every page size tiles them.
func TestAllocatorAtUnalignedBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned base did not panic")
		}
	}()
	NewAllocatorAt[uint64](4096, 1<<30, 1)
}
