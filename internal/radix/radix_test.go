package radix

import (
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/memsim"
)

func newTable() *Table[uint64, uint64] {
	return mustNew(memsim.NewAllocator[uint64](256<<20, 1))
}

// mustNew is New over an allocator that has room for the root page.
func mustNew(alloc *memsim.Allocator[uint64]) *Table[uint64, uint64] {
	tb, err := New[uint64](alloc)
	if err != nil {
		panic(err)
	}
	return tb
}

func TestMapLookup(t *testing.T) {
	tb := newTable()
	if err := tb.Map(0x1000, addr.Page4K, 0xAA000); err != nil {
		t.Fatal(err)
	}
	frame, size, ok := tb.Lookup(0x1ABC)
	if !ok || frame != 0xAA000 || size != addr.Page4K {
		t.Fatalf("Lookup = %#x, %v, %v", frame, size, ok)
	}
	if _, _, ok := tb.Lookup(0x2000); ok {
		t.Error("unmapped address resolved")
	}
}

func TestMapHugePages(t *testing.T) {
	tb := newTable()
	if err := tb.Map(0x4000_0000, addr.Page2M, 0x20_0000); err != nil {
		t.Fatal(err)
	}
	if err := tb.Map(0x8000_0000, addr.Page1G, 0x4000_0000); err != nil {
		t.Fatal(err)
	}
	if f, s, ok := tb.Lookup(0x4000_0000 + 12345); !ok || s != addr.Page2M || f != 0x20_0000 {
		t.Errorf("2MB lookup = %#x %v %v", f, s, ok)
	}
	if f, s, ok := tb.Lookup(0x8000_0000 + (1 << 29)); !ok || s != addr.Page1G || f != 0x4000_0000 {
		t.Errorf("1GB lookup = %#x %v %v", f, s, ok)
	}
}

func TestMapErrors(t *testing.T) {
	tb := newTable()
	if err := tb.Map(0x1000, addr.Page4K, 0xAA001); err == nil {
		t.Error("unaligned frame accepted")
	}
	if err := tb.Map(0x1000, addr.Page4K, 0xAA000); err != nil {
		t.Fatal(err)
	}
	if err := tb.Map(0x1000, addr.Page4K, 0xBB000); err == nil {
		t.Error("double map accepted")
	}
	// A 2MB map over a region holding 4KB tables must fail.
	if err := tb.Map(0, addr.Page2M, 0x20_0000); err == nil {
		t.Error("2MB map over existing 4KB table accepted")
	}
	// A 4KB map under an existing 2MB leaf must fail.
	if err := tb.Map(0x4000_0000, addr.Page2M, 0x20_0000); err != nil {
		t.Fatal(err)
	}
	if err := tb.Map(0x4000_1000, addr.Page4K, 0xCC000); err == nil {
		t.Error("4KB map under a 2MB leaf accepted")
	}
}

func TestUnmap(t *testing.T) {
	tb := newTable()
	tb.Map(0x1000, addr.Page4K, 0xAA000)
	if err := tb.Unmap(0x1000, addr.Page4K); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tb.Lookup(0x1000); ok {
		t.Error("unmapped address still resolves")
	}
	if err := tb.Unmap(0x1000, addr.Page4K); err == nil {
		t.Error("double unmap accepted")
	}
	if tb.Entries() != 0 {
		t.Errorf("Entries = %d", tb.Entries())
	}
}

func TestWalkSteps4K(t *testing.T) {
	tb := newTable()
	tb.Map(0x12345000, addr.Page4K, 0xAA000)
	steps, ok := tb.Walk(0x12345678)
	if !ok || len(steps) != 4 {
		t.Fatalf("walk: ok=%v steps=%d", ok, len(steps))
	}
	want := []addr.RadixLevel{addr.L4, addr.L3, addr.L2, addr.L1}
	for i, st := range steps {
		if st.Level != want[i] {
			t.Errorf("step %d level %v, want %v", i, st.Level, want[i])
		}
		if i < 3 && st.Leaf {
			t.Errorf("interior step %d marked leaf", i)
		}
	}
	last := steps[3]
	if !last.Leaf || last.Frame != 0xAA000 || last.Size != addr.Page4K {
		t.Errorf("leaf step = %+v", last)
	}
	// Interior step content must point at the next step's table page.
	for i := 0; i < 3; i++ {
		if steps[i].NextPA == 0 {
			t.Errorf("step %d has no next pointer", i)
		}
		if steps[i+1].EntryPA < steps[i].NextPA || steps[i+1].EntryPA >= steps[i].NextPA+4096 {
			t.Errorf("step %d entry not inside previous table page", i+1)
		}
	}
}

func TestWalkSteps2M(t *testing.T) {
	tb := newTable()
	tb.Map(0x4000_0000, addr.Page2M, 0x20_0000)
	steps, ok := tb.Walk(0x4000_1234)
	if !ok || len(steps) != 3 {
		t.Fatalf("2MB walk: ok=%v steps=%d", ok, len(steps))
	}
	if !steps[2].Leaf || steps[2].Size != addr.Page2M {
		t.Errorf("leaf = %+v", steps[2])
	}
}

func TestWalkFaultReturnsPartialTrace(t *testing.T) {
	tb := newTable()
	tb.Map(0x1000, addr.Page4K, 0xAA000)
	steps, ok := tb.Walk(0x40000000000) // different L4 entry
	if ok {
		t.Fatal("walk of unmapped address succeeded")
	}
	if len(steps) != 1 || steps[0].Level != addr.L4 {
		t.Errorf("fault trace = %+v", steps)
	}
}

func TestEntryPA(t *testing.T) {
	tb := newTable()
	tb.Map(0x12345000, addr.Page4K, 0xAA000)
	pa, ok := tb.EntryPA(0x12345000, addr.L1)
	if !ok {
		t.Fatal("EntryPA failed")
	}
	steps, _ := tb.Walk(0x12345000)
	if pa != steps[3].EntryPA {
		t.Errorf("EntryPA %#x != walk step %#x", pa, steps[3].EntryPA)
	}
	if _, ok := tb.EntryPA(0x7000_0000_0000, addr.L1); ok {
		t.Error("EntryPA for unmapped subtree succeeded")
	}
}

func TestTablePagesAccounting(t *testing.T) {
	tb := newTable()
	if tb.TablePages() != 1 { // root
		t.Errorf("fresh table pages = %d", tb.TablePages())
	}
	tb.Map(0x1000, addr.Page4K, 0xAA000)
	if tb.TablePages() != 4 { // root + L3 + L2 + L1
		t.Errorf("after one 4K map: %d pages", tb.TablePages())
	}
	tb.Map(0x2000, addr.Page4K, 0xBB000) // same tables
	if tb.TablePages() != 4 {
		t.Errorf("same-region map grew tables: %d", tb.TablePages())
	}
}

// TestTablePageCostsOnePage pins the layout: a table page is 512
// pointer-free entry words, exactly 4KB, and a table costs the host no
// more than its table pages plus a slab slot and an address each.
// Pages are allocated a chunk at a time, so the cost is measured from
// New to a table whose pages fill two chunks: the root, one L3 and one
// L2 page, and one L1 page for each 2MB region mapped.
func TestTablePageCostsOnePage(t *testing.T) {
	if n := unsafe.Sizeof(page{}); n != 4096 {
		t.Errorf("a table page is %d B, want 4096", n)
	}
	if typ := reflect.TypeOf(page{}); typ.Kind() != reflect.Array || typ.Elem().Kind() != reflect.Uint64 {
		t.Errorf("a table page is %v, want an array of uint64 entry words", typ)
	}
	const pages = 2 << chunkShift
	alloc := memsim.NewAllocator[uint64](256<<20, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb := mustNew(alloc)
	for i := uint64(0); i < pages-3; i++ {
		if err := tb.Map(0x4000_0000_0000+i*addr.Page2M.Bytes(), addr.Page4K, 0x4000_0000); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := tb.TablePages(); got != pages {
		t.Fatalf("%d table pages, want %d", got, pages)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > pages*(4096+64) {
		t.Errorf("%d table pages allocated %d B, over %d", pages, grew, pages*(4096+64))
	}
}

func TestRootPAStable(t *testing.T) {
	tb := newTable()
	root := tb.RootPA()
	tb.Map(0x1000, addr.Page4K, 0xAA000)
	if tb.RootPA() != root {
		t.Error("root moved")
	}
}

// TestAgainstReferenceMap drives random 4KB mappings and checks Lookup
// against a plain map.
func TestAgainstReferenceMap(t *testing.T) {
	tb := mustNew(memsim.NewAllocator[uint64](1<<30, 1))
	ref := map[uint64]uint64{}
	f := func(pages []uint16) bool {
		for i, p := range pages {
			va := uint64(p) << 12
			frame := uint64(i+1) << 12
			if _, dup := ref[va]; dup {
				continue
			}
			if err := tb.Map(va, addr.Page4K, frame); err != nil {
				return false
			}
			ref[va] = frame
		}
		for va, frame := range ref {
			got, size, ok := tb.Lookup(va)
			if !ok || got != frame || size != addr.Page4K {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
