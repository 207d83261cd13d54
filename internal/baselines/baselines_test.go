package baselines

import (
	"errors"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/cachesim"
	"nestedecpt/internal/core"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/hypervisor"
	"nestedecpt/internal/kernel"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/vhash"
)

type flatMem struct {
	lat      uint64
	accesses int
}

func (f *flatMem) Access(_ uint64, _ addr.HPA, _ cachesim.Source) (uint64, cachesim.ServiceLevel) {
	f.accesses++
	return f.lat, cachesim.ServedL2
}

func (f *flatMem) AccessParallel(_ uint64, pas []addr.HPA, _ cachesim.Source) uint64 {
	f.accesses += len(pas)
	if len(pas) == 0 {
		return 0
	}
	return f.lat
}

type fixture struct {
	kern *kernel.Kernel
	hyp  *hypervisor.Hypervisor
	mem  *flatMem
	vas  []addr.GVA
}

// must returns a constructor's walker, panicking on its error: the
// fixtures' host always has room for what a baseline reserves.
func must[W any](w W, err error) W {
	if err != nil {
		panic(err)
	}
	return w
}

func newFixture(t *testing.T, thp bool) *fixture {
	t.Helper()
	k, err := kernel.New(kernel.Config{
		GuestMemBytes: 2 << 30,
		THP:           thp,
		BuildRadix:    true,
		Seed:          21,
	})
	if err != nil {
		t.Fatal(err)
	}
	k.DefineVMA(kernel.VMA{Base: 0x1000_0000, Size: 128 << 20, THPEligible: true})
	h, err := hypervisor.New(hypervisor.Config{
		HostMemBytes: 4 << 30,
		THP:          thp,
		BuildRadix:   true,
		BuildECPT:    true,
		ECPT:         ecpt.ScaledSetConfig(true, 64),
		Seed:         22,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{kern: k, hyp: h, mem: &flatMem{lat: 10}}
	rng := vhash.NewRNG(77)
	for i := 0; i < 200; i++ {
		va := 0x1000_0000 + addr.GVA(rng.Uint64n(128<<20))
		if _, _, err := k.Touch(va); err != nil {
			t.Fatal(err)
		}
		gpa, _, _ := k.Translate(va)
		if _, err := h.EnsureMapped(gpa, false); err != nil {
			t.Fatal(err)
		}
		f.vas = append(f.vas, va)
	}
	return f
}

func (f *fixture) expected(t *testing.T, va addr.GVA) (addr.HPA, addr.PageSize) {
	t.Helper()
	gpa, gsize, ok := f.kern.Translate(va)
	if !ok {
		t.Fatalf("guest translate %#x", va)
	}
	hpa, hsize, ok := f.hyp.Translate(gpa)
	if !ok {
		t.Fatalf("host translate %#x", gpa)
	}
	if hsize < gsize {
		return hpa, hsize
	}
	return hpa, gsize
}

func drive(t *testing.T, f *fixture, w core.Walker) {
	t.Helper()
	for _, va := range f.vas {
		walk(t, f, w, va)
	}
}

// walk walks va on w, faulting in whatever it reports unmapped, and
// checks the translation against the tables.
func walk(t *testing.T, f *fixture, w core.Walker, va addr.GVA) core.WalkResult {
	t.Helper()
	var res core.WalkResult
	var err error
	for attempt := 0; ; attempt++ {
		res, err = w.Walk(0, va)
		if err == nil {
			break
		}
		var nm *core.ErrNotMapped
		if !errors.As(err, &nm) || attempt > 64 {
			t.Fatalf("%s: walk %#x: %v", w.Name(), va, err)
		}
		if nm.Space == "host" {
			f.hyp.EnsureMapped(nm.GPA, nm.PageTable)
		} else {
			f.kern.Touch(nm.GVA)
		}
	}
	wantPA, wantSize := f.expected(t, va)
	if res.Size != wantSize || addr.Translate(res.Frame, va, res.Size) != wantPA {
		t.Fatalf("%s: walk %#x wrong (size %v vs %v)", w.Name(), va, res.Size, wantSize)
	}
	return res
}

func TestAgileIdealCorrect(t *testing.T) {
	for _, thp := range []bool{false, true} {
		f := newFixture(t, thp)
		drive(t, f, NewAgileIdeal(f.mem, f.kern, f.hyp))
	}
}

func TestAgileIdealAccessBound(t *testing.T) {
	f := newFixture(t, false)
	w := NewAgileIdeal(f.mem, f.kern, f.hyp)
	drive(t, f, w) // fault in table-page mappings first
	for _, va := range f.vas[:50] {
		before := f.mem.accesses
		if _, err := w.Walk(0, va); err != nil {
			t.Fatal(err)
		}
		if got := f.mem.accesses - before; got > 4 {
			t.Fatalf("ideal Agile did %d accesses, max is 4", got)
		}
	}
}

func TestFlatNestedCorrect(t *testing.T) {
	for _, thp := range []bool{false, true} {
		f := newFixture(t, thp)
		drive(t, f, must(NewFlatNested(f.mem, f.kern, f.hyp)))
	}
}

func TestFlatNestedAccessBound(t *testing.T) {
	f := newFixture(t, false)
	w := must(NewFlatNested(f.mem, f.kern, f.hyp))
	if w.FlatTableBytes() == 0 {
		t.Error("flat table not reserved")
	}
	drive(t, f, w) // fault in table-page mappings first
	for _, va := range f.vas[:50] {
		before := f.mem.accesses
		if _, err := w.Walk(0, va); err != nil {
			t.Fatal(err)
		}
		if got := f.mem.accesses - before; got > 9 {
			t.Fatalf("flat nested walk did %d accesses, max is 9", got)
		}
	}
}

func TestPOMTLBCorrectAndCaches(t *testing.T) {
	f := newFixture(t, true)
	w := must(NewPOMTLB(DefaultPOMTLBConfig(), f.mem, f.kern, f.hyp))
	drive(t, f, w)
	if w.HitRate() != 0 {
		t.Errorf("cold pass hit rate = %v, want 0 hits recorded as misses", w.HitRate())
	}
	drive(t, f, w) // second pass: translations installed
	if w.HitRate() < 0.4 {
		t.Errorf("warm POM-TLB hit rate = %.2f", w.HitRate())
	}
}

func TestPOMTLBHitIsSingleAccess(t *testing.T) {
	f := newFixture(t, true)
	w := must(NewPOMTLB(DefaultPOMTLBConfig(), f.mem, f.kern, f.hyp))
	drive(t, f, w) // warm
	va := f.vas[0]
	before := f.mem.accesses
	if _, err := w.Walk(0, va); err != nil {
		t.Fatal(err)
	}
	if got := f.mem.accesses - before; got != 1 {
		t.Errorf("POM-TLB hit did %d accesses, want 1", got)
	}
}

// TestPOMTLBReplacement evicts POM-TLB entries: on one 4-way set,
// after cold walks of pages 0 to 3, each miss evicts the least recently
// walked page.
func TestPOMTLBReplacement(t *testing.T) {
	f := newFixture(t, false)
	w := must(NewPOMTLB(POMTLBConfig{Entries: 4, Ways: 4}, f.mem, f.kern, f.hyp))
	for _, va := range f.vas[:4] {
		walk(t, f, w, va)
	}
	for i, step := range []struct {
		page int
		hit  bool
	}{{0, true}, {4, false}, {1, false}, {0, true}, {3, true}, {2, false}} {
		hits := w.hits
		walk(t, f, w, f.vas[step.page])
		if hit := w.hits != hits; hit != step.hit {
			t.Fatalf("step %d: page %d hit = %v, want %v", i, step.page, hit, step.hit)
		}
	}
}

// TestPOMTLBHugeEntryCoversPage checks that under THP a 2MB entry
// installed from a page's base serves the page's last 4KB, found by its
// 2MB key in the set that 4KB page number selects.
func TestPOMTLBHugeEntryCoversPage(t *testing.T) {
	f := newFixture(t, true)
	w := must(NewPOMTLB(POMTLBConfig{Entries: 4, Ways: 4}, f.mem, f.kern, f.hyp))
	base := addr.PageBase(f.vas[0], addr.Page2M)
	first := walk(t, f, w, base)
	if first.Size != addr.Page2M {
		t.Fatalf("page base walked as %v, want a 2MB page", first.Size)
	}
	hits := w.hits
	last := walk(t, f, w, addr.Add(base, addr.Page2M.Bytes()-addr.Page4K.Bytes()))
	if w.hits != hits+1 || last.Frame != first.Frame || last.Size != addr.Page2M {
		t.Fatalf("last 4KB: hit = %v, frame %#x size %v; want a hit on frame %#x, 2MB",
			w.hits != hits, last.Frame, last.Size, first.Frame)
	}
}

func TestPOMTLBBadGeometryPanics(t *testing.T) {
	f := newFixture(t, false)
	defer func() {
		if recover() == nil {
			t.Fatal("bad POM-TLB geometry did not panic")
		}
	}()
	NewPOMTLB(POMTLBConfig{Entries: 10, Ways: 3}, f.mem, f.kern, f.hyp)
}

func TestBaselineNames(t *testing.T) {
	f := newFixture(t, false)
	if NewAgileIdeal(f.mem, f.kern, f.hyp).Name() != "Ideal Agile Paging" {
		t.Error("agile name")
	}
	if must(NewFlatNested(f.mem, f.kern, f.hyp)).Name() != "Flat Nested" {
		t.Error("flat name")
	}
	if must(NewPOMTLB(DefaultPOMTLBConfig(), f.mem, f.kern, f.hyp)).Name() != "POM-TLB" {
		t.Error("pom name")
	}
}

// TestReservationsReturnOutOfMemory: a host with no room for the flat
// table or the POM-TLB makes the constructor return the host
// allocator's out-of-memory error.
func TestReservationsReturnOutOfMemory(t *testing.T) {
	f := newFixture(t, false)
	host, err := hypervisor.New(hypervisor.Config{HostMemBytes: 1 << 20, BuildRadix: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, flatErr := NewFlatNested(f.mem, f.kern, host)
	_, pomErr := NewPOMTLB(DefaultPOMTLBConfig(), f.mem, f.kern, host)
	for _, err := range []error{flatErr, pomErr} {
		var oom *memsim.OutOfMemoryError
		if !errors.As(err, &oom) || oom.Purpose != memsim.PurposePageTable {
			t.Errorf("err = %v, want a page-table *memsim.OutOfMemoryError", err)
		}
	}
}
