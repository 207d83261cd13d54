package core

import (
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/hypervisor"
	"nestedecpt/internal/kernel"
	"nestedecpt/internal/memsim"
)

// gbFixture maps a 1GB guest page over 1GB host pages directly through
// the table sets, exercising the PUD-ECPT paths no THP workload
// reaches (Linux THP stops at 2MB; 1GB pages come from hugetlbfs).
func gbFixture(t *testing.T) (*kernel.Kernel, *hypervisor.Hypervisor) {
	t.Helper()
	k, err := kernel.New(kernel.Config{
		GuestMemBytes: 4 << 30,
		BuildRadix:    true,
		BuildECPT:     true,
		ECPT:          ecpt.ScaledSetConfig(false, 64),
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := hypervisor.New(hypervisor.Config{
		HostMemBytes: 8 << 30,
		BuildRadix:   true,
		BuildECPT:    true,
		ECPT:         ecpt.ScaledSetConfig(true, 64),
		Seed:         4,
	})
	if err != nil {
		t.Fatal(err)
	}

	// hugetlbfs-style explicit mappings: guest 1GB page at 4GB VA,
	// backed by a 1GB gPA frame, itself backed by a 1GB host frame.
	gva, gpa := addr.GVA(1)<<32, addr.GPA(1)<<30
	if err := k.ECPTs().Map(gva, addr.Page1G, gpa); err != nil {
		t.Fatal(err)
	}
	if err := k.Radix().Map(gva, addr.Page1G, gpa); err != nil {
		t.Fatal(err)
	}
	hpa, ok := h.Allocator().Alloc(addr.Page1G, memsim.PurposeData)
	if !ok {
		t.Fatal("no 1GB host frame")
	}
	if err := h.ECPTs().Map(gpa, addr.Page1G, hpa); err != nil {
		t.Fatal(err)
	}
	if err := h.Radix().Map(gpa, addr.Page1G, hpa); err != nil {
		t.Fatal(err)
	}
	return k, h
}

func TestNestedECPT1GBPages(t *testing.T) {
	k, h := gbFixture(t)
	mem := &flatMem{lat: 10}
	w := NewNestedECPT(DefaultNestedECPTConfig(AdvancedTechniques()), mem, k, h)
	f := &fixture{kern: k, hyp: h, mem: mem}
	for _, off := range []addr.GVA{0, 4096, 512 << 20, (1 << 30) - 1} {
		f.vas = append(f.vas, addr.GVA(1)<<32+off)
	}
	driveWalker(t, f, w) // cold pass warms the CWCs
	w.ResetStats()
	driveWalker(t, f, w)
	st := w.Stats()
	// 1GB guest pages resolve at the PUD level: direct walks.
	if st.GuestClasses.Fraction("Direct") < 0.99 {
		t.Errorf("1GB guest walks not direct: %s", st.GuestClasses)
	}
}

func TestNestedRadix1GBPages(t *testing.T) {
	k, h := gbFixture(t)
	mem := &flatMem{lat: 10}
	w := NewNestedRadix(DefaultRadixWalkConfig(), mem, k, h)
	f := &fixture{kern: k, hyp: h, mem: mem, vas: []addr.GVA{1<<32 + 12345}}
	driveWalker(t, f, w)
}

func TestHybrid1GBPages(t *testing.T) {
	k, h := gbFixture(t)
	mem := &flatMem{lat: 10}
	w := NewHybrid(DefaultHybridConfig(), mem, k, h)
	f := &fixture{kern: k, hyp: h, mem: mem, vas: []addr.GVA{1<<32 + 777}}
	driveWalker(t, f, w)
}

func TestTLBResult1GBSize(t *testing.T) {
	k, h := gbFixture(t)
	mem := &flatMem{lat: 10}
	w := NewNestedECPT(DefaultNestedECPTConfig(AdvancedTechniques()), mem, k, h)
	res, err := w.Walk(0, addr.GVA(uint64(1)<<32))
	for attempt := 0; err != nil && attempt < 32; attempt++ {
		if nm, ok := err.(*ErrNotMapped); ok && nm.Space == "host" {
			h.EnsureMapped(nm.GPA, nm.PageTable)
			res, err = w.Walk(0, addr.GVA(uint64(1)<<32))
			continue
		}
		t.Fatal(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != addr.Page1G {
		t.Errorf("composed TLB size = %v, want 1GB", res.Size)
	}
}
