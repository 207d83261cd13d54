package paging

import (
	"maps"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/memsim"
)

// kinds are the three table combinations an address space can build.
var kinds = []struct {
	name         string
	radix, ecpts bool
}{
	{"radix", true, false},
	{"ecpt", false, true},
	{"both", true, true},
}

func newTables(t *testing.T, withRadix, withECPT bool) *Tables[addr.GVA, addr.GPA] {
	t.Helper()
	// A small ECPT set, so the maps below resize it on both sides of a
	// fork.
	tab, err := New[addr.GVA](memsim.NewAllocator[addr.GPA](1<<30, 3), withRadix, withECPT, ecpt.ScaledSetConfig(false, 1024), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// mapping is one page a model expects an address space to hold.
type mapping struct {
	frame addr.GPA
	size  addr.PageSize
}

// model is the expected content of one address space, by page base.
type model map[addr.GVA]mapping

// mapPage allocates a frame from tab's own allocator and maps base to
// it, recording the page in m.
func mapPage(t *testing.T, tab *Tables[addr.GVA, addr.GPA], m model, base addr.GVA, size addr.PageSize) {
	t.Helper()
	frame, ok := tab.Allocator().Alloc(size, memsim.PurposeData)
	if !ok {
		t.Fatalf("out of memory mapping %#x", base)
	}
	tab.Map(base, size, frame)
	m[base] = mapping{frame, size}
}

// unmapPage unmaps the page at base through an address inside it.
func unmapPage(t *testing.T, tab *Tables[addr.GVA, addr.GPA], m model, base addr.GVA) {
	t.Helper()
	want := m[base].size
	size, ok := tab.Unmap(addr.Add(base, 0x123))
	if !ok || size != want {
		t.Fatalf("Unmap(%#x) = %v, %v; want %v, true", base, size, ok, want)
	}
	delete(m, base)
}

// check asserts tab translates exactly m's pages over every base in
// probe, and, when both structures are built, that they agree.
func check(t *testing.T, side string, tab *Tables[addr.GVA, addr.GPA], m model, probe []addr.GVA) {
	t.Helper()
	for _, base := range probe {
		va := addr.Add(base, 0x7)
		pa, size, ok := tab.Translate(va)
		want, mapped := m[base]
		switch {
		case ok != mapped:
			t.Fatalf("%s: %#x mapped = %v, want %v", side, va, ok, mapped)
		case ok && (size != want.size || pa != addr.Translate(want.frame, va, want.size)):
			t.Fatalf("%s: %#x → %#x (%v), want frame %#x (%v)", side, va, pa, size, want.frame, want.size)
		}
		if tab.Radix() == nil || tab.ECPTs() == nil {
			continue
		}
		rf, rs, rok := tab.Radix().Lookup(va)
		ef, es, eok := tab.ECPTs().Lookup(va)
		if rok != eok || (rok && (rf != ef || rs != es)) {
			t.Fatalf("%s: %#x radix (%#x %v %v) and ECPT (%#x %v %v) disagree", side, va, rf, rs, rok, ef, es, eok)
		}
	}
}

// TestForkIsolation maps and unmaps on both sides of a fork, for every
// table combination: neither side ever sees the other's paging.
func TestForkIsolation(t *testing.T) {
	const n = 512
	base4k := func(i int) addr.GVA { return addr.GVA(0x1000_0000 + uint64(i)*addr.Page4K.Bytes()) }
	base2m := func(i int) addr.GVA { return addr.GVA(0x4000_0000 + uint64(i)*addr.Page2M.Bytes()) }
	var probe []addr.GVA
	for i := 0; i < 4*n; i++ {
		probe = append(probe, base4k(i))
	}
	for i := 0; i < 16; i++ {
		probe = append(probe, base2m(i))
	}

	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			parent := newTables(t, k.radix, k.ecpts)
			pm := model{}
			for i := 0; i < n; i++ {
				mapPage(t, parent, pm, base4k(i), addr.Page4K)
			}
			for i := 0; i < 8; i++ {
				mapPage(t, parent, pm, base2m(i), addr.Page2M)
			}
			child, err := parent.Fork()
			if err != nil {
				t.Fatal(err)
			}
			cm := maps.Clone(pm)
			var resizes uint64
			if k.ecpts {
				resizes = parent.ECPTs().Table(addr.Page4K).Stats().Resizes
			}

			// Each side unmaps half of the shared pages (different
			// halves) and maps fresh ones the other never holds.
			for i := 0; i < n; i++ {
				if i%2 == 0 {
					unmapPage(t, parent, pm, base4k(i))
				} else {
					unmapPage(t, child, cm, base4k(i))
				}
			}
			unmapPage(t, parent, pm, base2m(0))
			unmapPage(t, child, cm, base2m(1))
			for i := n; i < 4*n; i++ {
				if i%3 == 0 {
					mapPage(t, parent, pm, base4k(i), addr.Page4K)
				} else {
					mapPage(t, child, cm, base4k(i), addr.Page4K)
				}
			}
			mapPage(t, parent, pm, base2m(8), addr.Page2M)
			mapPage(t, child, cm, base2m(9), addr.Page2M)

			check(t, "parent", parent, pm, probe)
			check(t, "fork", child, cm, probe)
			if k.ecpts {
				for _, side := range []*Tables[addr.GVA, addr.GPA]{parent, child} {
					if side.ECPTs().Table(addr.Page4K).Stats().Resizes <= resizes {
						t.Error("a side's maps never resized its 4KB ECPT after the fork")
					}
				}
			}
		})
	}
}
