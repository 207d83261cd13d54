package addr

import "testing"

func TestPageSizeShiftBytes(t *testing.T) {
	cases := []struct {
		s     PageSize
		shift uint
		bytes uint64
		name  string
		level string
	}{
		{Page4K, 12, 4096, "4KB", "PTE"},
		{Page2M, 21, 2 << 20, "2MB", "PMD"},
		{Page1G, 30, 1 << 30, "1GB", "PUD"},
	}
	for _, c := range cases {
		if got := c.s.Shift(); got != c.shift {
			t.Errorf("%v.Shift() = %d, want %d", c.s, got, c.shift)
		}
		if got := c.s.Bytes(); got != c.bytes {
			t.Errorf("%v.Bytes() = %d, want %d", c.s, got, c.bytes)
		}
		if got := c.s.String(); got != c.name {
			t.Errorf("%v.String() = %q, want %q", c.s, got, c.name)
		}
		if got := c.s.LevelName(); got != c.level {
			t.Errorf("%v.LevelName() = %q, want %q", c.s, got, c.level)
		}
		if got := c.s.OffsetMask(); got != c.bytes-1 {
			t.Errorf("%v.OffsetMask() = %#x, want %#x", c.s, got, c.bytes-1)
		}
	}
}

func TestPageSizeInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Shift on invalid page size did not panic")
		}
	}()
	PageSize(99).Shift()
}

func TestSizesOrdering(t *testing.T) {
	sz := Sizes()
	if len(sz) != NumPageSizes {
		t.Fatalf("Sizes() has %d entries, want %d", len(sz), NumPageSizes)
	}
	for i := 1; i < len(sz); i++ {
		if sz[i-1].Bytes() >= sz[i].Bytes() {
			t.Errorf("Sizes() not ascending at %d", i)
		}
	}
}

func TestVPNAndPageBase(t *testing.T) {
	va := uint64(0x1234_5678_9ABC)
	if got := VPN(va, Page4K); got != va>>12 {
		t.Errorf("VPN 4K = %#x, want %#x", got, va>>12)
	}
	if got := VPN(va, Page2M); got != va>>21 {
		t.Errorf("VPN 2M = %#x, want %#x", got, va>>21)
	}
	if got := PageBase(va, Page4K); got != va&^0xFFF {
		t.Errorf("PageBase 4K = %#x", got)
	}
	if got := PageOffset(va, Page2M); got != va&(2<<20-1) {
		t.Errorf("PageOffset 2M = %#x", got)
	}
}

func TestFrameBaseInvertsVPN(t *testing.T) {
	for _, s := range Sizes() {
		pa := HPA(0x0000_0ABC_DEF0_1234)
		if got, want := FrameBase[HPA](VPN(pa, s), s), PageBase(pa, s); got != want {
			t.Errorf("%v: FrameBase(VPN) = %#x, want %#x", s, got, want)
		}
	}
}

func TestTranslateComposesOffset(t *testing.T) {
	frame := uint64(0xABC000)
	va := uint64(0x7FF123)
	got := Translate(frame, va, Page4K)
	want := frame | (va & 0xFFF)
	if got != want {
		t.Errorf("Translate = %#x, want %#x", got, want)
	}
}

func TestTranslateRoundTripsThroughBase(t *testing.T) {
	for _, s := range Sizes() {
		va := uint64(0x0000_7ABC_DEF0_1234)
		frame := PageBase(uint64(0x1_2345_6789_0000), s)
		pa := Translate(frame, va, s)
		if PageBase(pa, s) != frame {
			t.Errorf("%v: PageBase(Translate) = %#x, want %#x", s, PageBase(pa, s), frame)
		}
		if PageOffset(pa, s) != PageOffset(va, s) {
			t.Errorf("%v: offset not preserved", s)
		}
	}
}

func TestRadixIndex(t *testing.T) {
	// Construct an address with distinct 9-bit indices per level.
	var va uint64
	want := map[RadixLevel]uint64{L4: 0x1AB, L3: 0x0CD, L2: 0x1EF, L1: 0x011}
	for l, idx := range want {
		va |= idx << (12 + 9*(uint(l)-1))
	}
	for l, idx := range want {
		if got := RadixIndex(va, l); got != idx {
			t.Errorf("RadixIndex(%v) = %#x, want %#x", l, got, idx)
		}
	}
}

func TestRadixIndexIs9Bits(t *testing.T) {
	for _, l := range []RadixLevel{L1, L2, L3, L4} {
		if got := RadixIndex(^uint64(0), l); got != 0x1FF {
			t.Errorf("RadixIndex(all-ones, %v) = %#x, want 0x1FF", l, got)
		}
	}
}

func TestLeafLevelRoundTrip(t *testing.T) {
	for _, s := range Sizes() {
		l := LeafLevel(s)
		if got := SizeForLeaf(l); got != s {
			t.Errorf("SizeForLeaf(LeafLevel(%v)) = %v", s, got)
		}
	}
}

func TestSizeForLeafL4Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SizeForLeaf(L4) did not panic")
		}
	}()
	SizeForLeaf(L4)
}

func TestRadixLevelString(t *testing.T) {
	want := map[RadixLevel]string{L1: "PTE", L2: "PMD", L3: "PUD", L4: "PGD"}
	for l, name := range want {
		if got := l.String(); got != name {
			t.Errorf("%d.String() = %q, want %q", int(l), got, name)
		}
	}
}

func TestCanonicalGVA(t *testing.T) {
	cases := []struct {
		va GVA
		ok bool
	}{
		{0, true},
		{0x0000_7FFF_FFFF_FFFF, true},
		{0xFFFF_8000_0000_0000, true},
		{0xFFFF_FFFF_FFFF_FFFF, true},
		{0x0000_8000_0000_0000, false},
		{0x1234_0000_0000_0000, false},
	}
	for _, c := range cases {
		if got := CanonicalGVA(c.va); got != c.ok {
			t.Errorf("CanonicalGVA(%#x) = %v, want %v", uint64(c.va), got, c.ok)
		}
	}
}
