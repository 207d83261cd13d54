package sim

// The translation memo behind Machine.resolve may never disagree with
// the page tables: a seeded property test and a fuzz target drive
// machines of every design through steps, unmaps and direct
// Touch/EnsureMapped calls, comparing resolve with Translate∘Translate
// after every operation; the edges and the stale-TLB witness are pinned
// one by one.

import (
	"fmt"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/hypervisor"
	"nestedecpt/internal/kernel"
	"nestedecpt/internal/tlbsim"
	"nestedecpt/internal/vhash"
	"nestedecpt/internal/workload"
)

// outsideVMAs is an address no workload maps.
const outsideVMAs = addr.GVA(0x6000_0000_0000)

// tablesTranslate is the oracle: Kernel().Translate composed with
// Hypervisor().Translate (identity for native designs).
func tablesTranslate(m *Machine, va addr.GVA) (hpa addr.HPA, guest, host addr.PageSize, ok bool) {
	gpa, guest, ok := m.kern.Translate(va)
	if !ok {
		return 0, 0, 0, false
	}
	if m.hyp == nil {
		return addr.IdentityHPA(gpa), guest, guest, true
	}
	hpa, host, ok = m.hyp.Translate(gpa)
	return hpa, guest, host, ok
}

// resolveHarness drives one machine through an operation stream and
// checks resolve against the tables after every operation.
type resolveHarness struct {
	t testing.TB
	m *Machine
	// shadow replays the machine's own access stream, so the harness
	// knows which pages step just used.
	shadow workload.Generator
	vmas   []kernel.VMA
	rng    *vhash.RNG
	recent [16]addr.GVA
	// stepped counts the accesses stepped so far; ops the operations.
	stepped, ops int
}

// harnessBatch is the widest step the harness issues.
const harnessBatch = 8

// harnessConfig is the machine a resolve harness drives.
func harnessConfig(d Design, thp bool, hugeFail float64, seed uint64) Config {
	cfg := DefaultConfig(d, "BC", thp)
	cfg.WorkloadOpts.Scale = 512
	cfg.WorkloadOpts.Seed = seed
	cfg.HugePageFailureRate = hugeFail
	cfg.BatchSize = harnessBatch // sizes step's scratch; the harness drives step itself
	return cfg
}

func newResolveHarness(t testing.TB, d Design, thp bool, hugeFail float64, seed uint64) *resolveHarness {
	t.Helper()
	cfg := harnessConfig(d, thp, hugeFail, seed)
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shadow, err := workload.New(cfg.Workload, m.EffectiveConfig().WorkloadOpts)
	if err != nil {
		t.Fatal(err)
	}
	h := &resolveHarness{t: t, m: m, shadow: shadow, vmas: shadow.VMAs(), rng: vhash.NewRNG(seed ^ 0x3e30)}
	for i := range h.recent {
		h.recent[i] = h.vmas[0].Base
	}
	return h
}

// sample picks an address: mostly inside a VMA, sometimes its last
// byte, sometimes just past it or far outside every VMA.
func (h *resolveHarness) sample() addr.GVA {
	v := h.vmas[h.rng.Intn(len(h.vmas))]
	switch h.rng.Intn(8) {
	case 0:
		return addr.Add(v.Base, v.Size-1)
	case 1:
		return addr.Add(v.Base, v.Size)
	case 2:
		return addr.Add(outsideVMAs, h.rng.Uint64n(1<<30))
	}
	return addr.Add(v.Base, h.rng.Uint64n(v.Size))
}

// apply performs the operation op encodes. Steps are twice as likely as
// anything else, so pages get into the TLB and the memo between unmaps:
// one access of an unbatched phase, or 1 to harnessBatch accesses (the
// op's high bits) of a batched one.
func (h *resolveHarness) apply(op byte) {
	h.t.Helper()
	m := h.m
	switch op % 6 {
	case 0, 1:
		batched, n := op%6 == 1, 1
		if batched {
			n += int(op/6) % harnessBatch
		}
		for i := 0; i < n; i++ {
			h.recent[h.stepped%len(h.recent)] = h.shadow.Next().VA
			h.stepped++
		}
		if err := m.step(false, batched, n); err != nil {
			h.t.Fatalf("op %d: step of %d (batched=%v): %v", h.ops, n, batched, err)
		}
	case 2:
		m.Kernel().Unmap(h.recent[int(op/6)%len(h.recent)])
	case 3:
		// What benchmark/workloads.go does to a live machine.
		m.Kernel().Touch(h.sample())
	case 4:
		if gpa, _, ok := m.Kernel().Translate(h.sample()); ok && m.Hypervisor() != nil {
			if _, err := m.Hypervisor().EnsureMapped(gpa, false); err != nil {
				h.t.Fatalf("op %d: EnsureMapped: %v", h.ops, err)
			}
		}
	case 5:
		h.checkResolve(h.sample())
	}
	h.ops++
	h.checkResolve(h.recent[h.rng.Intn(len(h.recent))])
	h.checkResolve(h.sample())
	h.checkTLB()
	if h.ops%16 == 0 {
		h.checkMemo()
	}
}

// cachedElements counts the memo's cached elements: the unsplit
// elements holding a frame and the pages of every live split block.
func cachedElements(m *Machine) int {
	n := 0
	for _, f := range m.memo.pfn {
		if f != 0 && f < splitMark {
			n++
		}
	}
	for i := range m.memo.split {
		for _, f := range m.memo.split[i].pfn {
			if f != 0 {
				n++
			}
		}
	}
	return n
}

// checkResolve calls resolve(va) and requires the answer, the faults it
// reports and its error to be the slow path's.
func (h *resolveHarness) checkResolve(va addr.GVA) {
	h.t.Helper()
	m := h.m
	wantHPA, _, _, mapped := tablesTranslate(m, va)
	minor := m.kern.Stats().MinorFaults
	var nested uint64
	if m.hyp != nil {
		nested = m.hyp.Stats().NestedFaults
	}

	hpa, size, guestFault, hostFault, err := m.resolve(va)
	if err != nil {
		_, _, _, kerr := m.kern.Resolve(va)
		if kerr == nil || kerr.Error() != err.Error() {
			h.t.Fatalf("op %d: resolve(%#x) failed with %v, the kernel says %v", h.ops, va, err, kerr)
		}
		return
	}
	gotHPA, guest, _, ok := tablesTranslate(m, va)
	if !ok || hpa != gotHPA || size != guest {
		h.t.Fatalf("op %d: resolve(%#x) = (%#x, %v), tables map (%#x, %v, ok=%v)", h.ops, va, hpa, size, gotHPA, guest, ok)
	}
	if mapped && (hpa != wantHPA || guestFault || hostFault) {
		h.t.Fatalf("op %d: resolve(%#x) = %#x faults (%v,%v) on a page already mapped to %#x",
			h.ops, va, hpa, guestFault, hostFault, wantHPA)
	}
	if guestFault != (m.kern.Stats().MinorFaults == minor+1) {
		h.t.Fatalf("op %d: resolve(%#x) guestFault=%v, kernel counted %d", h.ops, va, guestFault, m.kern.Stats().MinorFaults-minor)
	}
	if m.hyp != nil && hostFault != (m.hyp.Stats().NestedFaults == nested+1) {
		h.t.Fatalf("op %d: resolve(%#x) hostFault=%v, hypervisor counted %d", h.ops, va, hostFault, m.hyp.Stats().NestedFaults-nested)
	}
}

// checkTLB requires every recent page the TLB still holds to point at
// the frame the tables map. Called after a resolve, which is where an
// unmap's shootdown happens.
func (h *resolveHarness) checkTLB() {
	h.t.Helper()
	for _, va := range h.recent {
		tr := h.m.tlb.Access(va)
		if !tr.Hit() {
			continue
		}
		if want, _, _, ok := tablesTranslate(h.m, va); !ok || addr.Translate(tr.Frame, va, tr.Size) != want {
			h.t.Fatalf("op %d: TLB serves %#x for %#x, tables map %#x (ok=%v)",
				h.ops, addr.Translate(tr.Frame, va, tr.Size), va, want, ok)
		}
	}
}

// checkMemo requires every cached element to be the frame number the
// tables hold, behind a host page no smaller than the element's and a
// guest page of the size a hit reports: the granule, or a split
// block's recorded guest size.
func (h *resolveHarness) checkMemo() {
	h.t.Helper()
	mm := &h.m.memo
	for i := range mm.spans {
		sp := &mm.spans[i]
		for va := sp.base; va < sp.limit; {
			e, g, _ := mm.slot(sp, va)
			if *e != 0 {
				got, size, _ := mm.lookup(sp, va)
				hpa, guest, host, ok := tablesTranslate(h.m, va)
				if !ok || got != hpa || size != guest || host < g {
					h.t.Fatalf("op %d: memo serves (%#x, %v) for %#x from a %v element; tables map %#x with %v/%v pages (ok=%v)",
						h.ops, got, size, va, g, hpa, guest, host, ok)
				}
			}
			va = addr.Add(addr.PageBase(va, g), g.Bytes())
		}
	}
}

func TestResolveMatchesTables(t *testing.T) {
	ops := 400
	if testing.Short() {
		ops = 120
	}
	for d := Design(0); d < numDesigns; d++ {
		for _, thp := range []bool{false, true} {
			for _, hugeFail := range []float64{-1, 0.3} { // negative normalizes to exactly 0
				d, thp, hugeFail := d, thp, hugeFail
				t.Run(fmt.Sprintf("%v/thp=%v/fail=%v", d, thp, hugeFail), func(t *testing.T) {
					t.Parallel()
					h := newResolveHarness(t, d, thp, hugeFail, 42)
					stream := vhash.NewRNG(uint64(d)<<8 | 7)
					for i := 0; i < ops; i++ {
						h.apply(byte(stream.Uint32()))
					}
					h.checkMemo()
					if thp && hugeFail < 0 && cachedElements(h.m) == 0 {
						t.Error("no 2MB granule was ever cached: the test does not exercise the memo")
					}
				})
			}
		}
	}
}

// templatePage is one 4KB page's translation through a fork template.
type templatePage struct {
	va     addr.GVA
	hpa    addr.HPA
	mapped bool
}

// newForkHarness pre-populates a template machine and drives a Fork of
// it, for a design SetupOf lets share its set-up. It returns the
// template and every 4KB page's translation through it (a page of a
// guest huge page whose host granule Prepopulate never touched has
// none), for checkTemplate.
func newForkHarness(t testing.TB, d Design, thp bool, hugeFail float64, seed uint64) (*resolveHarness, *Machine, []templatePage) {
	t.Helper()
	h := newResolveHarness(t, d, thp, hugeFail, seed)
	template := h.m
	if err := template.Prepopulate(); err != nil {
		t.Fatal(err)
	}
	var want []templatePage
	for _, v := range h.vmas {
		for off := uint64(0); off < v.Size; off += addr.Page4K.Bytes() {
			va := addr.Add(v.Base, off)
			hpa, _, _, ok := tablesTranslate(template, va)
			want = append(want, templatePage{va, hpa, ok})
		}
	}
	f, err := template.Fork(harnessConfig(d, thp, hugeFail, seed))
	if err != nil {
		t.Fatal(err)
	}
	h.m = f
	return h, template, want
}

// checkTemplate requires the fork's paging to have left its template
// alone: every page still translates to the frame it did at the fork,
// and every element the template's memo caches agrees with its tables.
func checkTemplate(t testing.TB, template *Machine, want []templatePage) {
	t.Helper()
	for _, w := range want {
		if got, _, _, ok := tablesTranslate(template, w.va); ok != w.mapped || got != w.hpa {
			t.Fatalf("the fork's paging moved the template's %#x: %#x (mapped=%v), was %#x (mapped=%v)", w.va, got, ok, w.hpa, w.mapped)
		}
	}
	(&resolveHarness{t: t, m: template}).checkMemo()
}

// FuzzMachineResolve lets the fuzzer choose the machine (first byte:
// design, THP, fragmentation, fork) and the operation stream (the
// rest). In fork mode (bit 5), for a design whose runs share set-ups,
// the operations run on a Fork of a pre-populated template, which must
// come out of them untouched.
func FuzzMachineResolve(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 0, 5})                   // step, step, unmap, step
	f.Add([]byte{3 | 8, 0, 1, 0, 2, 8, 14, 0, 3, 4})  // Nested ECPTs, THP
	f.Add([]byte{3 | 16, 3, 3, 4, 4, 0, 2, 2, 0})     // fragmented, direct maps first
	f.Add([]byte{2 | 8 | 16, 0, 0, 0, 0, 2, 0, 2, 0}) // Nested Radix, THP, fragmented
	f.Add([]byte{6, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0}) // POM-TLB
	// Batched steps (op%6 == 1, width 1 + op/6%8) around unmaps of the
	// pages they touched (op%6 == 2, recent slot op/6).
	f.Add([]byte{3, 43, 43, 2, 8, 43, 14, 20, 1, 2, 37})           // Nested ECPTs: width 8, 8, unmaps, 8, unmaps, width 1
	f.Add([]byte{3 | 8, 43, 2, 43, 7, 8, 19, 14, 25, 31, 43})      // THP: widths 8, 8, 2, 4, 5, 6, 8 with unmaps between
	f.Add([]byte{6 | 16, 43, 43, 2, 43, 8, 43, 0, 14, 1})          // POM-TLB, fragmented: batched and unbatched steps mixed
	f.Add([]byte{4 | 8 | 16, 13, 2, 13, 8, 13, 14, 13, 20, 13, 0}) // Nested Hybrid, THP, fragmented: width 3 after every unmap
	// Nested ECPTs, THP, fragmented: BC's property array is THP-ineligible
	// (4KB elements under THP) and the fallback regions of the other two
	// split their 2MB elements; direct maps and resolves between steps
	// and unmaps.
	f.Add([]byte{3 | 8 | 16, 0, 5, 3, 5, 43, 4, 5, 2, 5, 0, 8, 5, 3, 43})
	// Fork mode: unmaps of pages the fork just stepped (op%6 == 2),
	// demand faults that remap them, and direct maps, on every design
	// that shares a set-up.
	f.Add([]byte{3 | 32, 0, 0, 2, 8, 0, 14, 3, 20, 5})              // Nested ECPTs
	f.Add([]byte{3 | 8 | 32, 43, 2, 43, 8, 14, 43, 4, 20, 0, 26})   // Nested ECPTs, THP
	f.Add([]byte{2 | 8 | 16 | 32, 43, 2, 8, 0, 14, 3, 4, 2, 0})     // Nested Radix, THP, fragmented
	f.Add([]byte{0 | 32, 0, 2, 0, 8, 3, 14, 0, 5})                  // Radix (no hypervisor)
	f.Add([]byte{1 | 8 | 32, 43, 2, 43, 8, 3, 14, 0})               // ECPTs, THP
	f.Add([]byte{4 | 16 | 32, 13, 2, 13, 8, 4, 14, 13, 20})         // Nested Hybrid, fragmented
	f.Add([]byte{5 | 8 | 32, 0, 0, 2, 8, 2, 14, 3, 4, 0, 2, 5, 43}) // Agile, THP
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 129 {
			data = data[:129]
		}
		hugeFail := -1.0
		if data[0]&16 != 0 {
			hugeFail = 0.3
		}
		d, thp := Design(int(data[0]&7)%int(numDesigns)), data[0]&8 != 0
		var h *resolveHarness
		var template *Machine
		var want []templatePage
		if data[0]&32 != 0 && d.sharesSetup() {
			h, template, want = newForkHarness(t, d, thp, hugeFail, 42)
		} else {
			h = newResolveHarness(t, d, thp, hugeFail, 42)
		}
		for _, op := range data[1:] {
			h.apply(op)
		}
		h.checkMemo()
		if template != nil {
			checkTemplate(t, template, want)
		}
	})
}

// TestMemoServesEveryMappedPage is the witness for the memo's reach
// under THP: after Prepopulate and a short run, a second resolve of
// every 4KB page of every VMA is served from the memo with the frame and
// guest page size the tables give — on BC and PR, whose property
// arrays are THP-ineligible, and on GUPS with a 30% huge-page failure
// rate, whose fallback regions hold 4KB pages on either side. The memo
// used to keep only 2MB granules under THP and answered every such page
// from the tables.
func TestMemoServesEveryMappedPage(t *testing.T) {
	for _, tc := range []struct {
		app      string
		hugeFail float64
	}{{"BC", 0}, {"PR", 0}, {"GUPS", 0.3}} {
		t.Run(tc.app, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(DesignNestedECPT, tc.app, true)
			cfg.WorkloadOpts.Scale = 256
			cfg.WarmupAccesses, cfg.MeasureAccesses = 2_000, 2_000
			cfg.HugePageFailureRate = tc.hugeFail
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Prepopulate(); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			var small int
			for _, v := range m.gen.VMAs() {
				for off := uint64(0); off < v.Size; off += addr.Page4K.Bytes() {
					va := addr.Add(v.Base, off)
					if _, _, _, _, err := m.resolve(va); err != nil {
						t.Fatal(err)
					}
					want, guest, host, ok := tablesTranslate(m, va)
					if !ok {
						t.Fatalf("%#x unmapped after resolve", va)
					}
					if min(guest, host) == addr.Page4K {
						small++
					}
					got, size, hit := m.memo.lookup(m.memo.span(va), va)
					if !hit || got != want || size != guest {
						t.Fatalf("second resolve(%#x): memo serves (%#x, %v, hit=%v), tables map (%#x, %v/%v)",
							va, got, size, hit, want, guest, host)
					}
				}
			}
			if small == 0 {
				t.Error("no page is 4KB on either side: the test does not exercise 4KB elements or split blocks")
			}
		})
	}
}

// TestUnmapShootsDownTLB is the witness for the missing shootdown: with
// va in the TLB, an Unmap followed by the demand fault that remaps the
// page to a new frame left the TLB serving the old one, so the data
// access went to a frame nothing maps.
func TestUnmapShootsDownTLB(t *testing.T) {
	cfg := resolveConfig()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Prepopulate(); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(cfg.Workload, m.EffectiveConfig().WorkloadOpts)
	if err != nil {
		t.Fatal(err)
	}
	va := gen.Next().VA
	if err := m.step(false, false, 1); err != nil {
		t.Fatal(err)
	}
	if tr := m.tlb.Access(va); !tr.Hit() {
		t.Fatalf("%#x is not in the TLB after the step that accessed it", va)
	}
	old, _, _, _ := tablesTranslate(m, va)
	if !m.Kernel().Unmap(va) {
		t.Fatalf("%#x was not mapped", va)
	}
	if err := m.prefault(va); err != nil {
		t.Fatal(err)
	}
	now, _, _, ok := tablesTranslate(m, va)
	if !ok || now == old {
		t.Fatalf("demand paging did not move %#x: %#x -> %#x (ok=%v)", va, old, now, ok)
	}
	if tr := m.tlb.Access(va); tr.Hit() {
		t.Errorf("TLB still serves %#x for %#x after the unmap; tables map %#x", addr.Translate(tr.Frame, va, tr.Size), va, now)
	}
}

// bareMachine wires only what resolve reads, so a test can hand it a
// kernel and VMAs no workload produces.
func bareMachine(k *kernel.Kernel, hyp *hypervisor.Hypervisor, vmas []kernel.VMA, thp bool) *Machine {
	for _, v := range vmas {
		k.DefineVMA(v)
	}
	return &Machine{kern: k, hyp: hyp, tlb: tlbsim.New(tlbsim.DefaultConfig()), memo: newMemo(vmas, thp)}
}

func edgeKernel(t *testing.T, thp bool, gpaBase uint64) *kernel.Kernel {
	t.Helper()
	k, err := kernel.New(kernel.Config{
		GuestMemBytes: 1 << 30, GPABase: gpaBase, THP: thp, BuildECPT: true,
		ECPT: ecpt.ScaledSetConfig(false, 64), Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func edgeHypervisor(t *testing.T, thp bool) *hypervisor.Hypervisor {
	t.Helper()
	h, err := hypervisor.New(hypervisor.Config{
		HostMemBytes: 4 << 30, THP: thp, BuildECPT: true,
		ECPT: ecpt.ScaledSetConfig(true, 64), Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestResolveOutsideVMAs pins that an address outside every VMA gets
// the kernel's own segfault error, before and after the memo warmed up.
func TestResolveOutsideVMAs(t *testing.T) {
	vmas := []kernel.VMA{{Base: 0x1000_0000, Size: 4 << 20}}
	m := bareMachine(edgeKernel(t, false, 0), edgeHypervisor(t, false), vmas, false)
	for _, va := range []addr.GVA{0x1000_0000 - 1, 0x1000_0000 + 4<<20, outsideVMAs} {
		for pass := 0; pass < 2; pass++ {
			_, _, _, kerr := m.kern.Resolve(va)
			_, _, guestFault, hostFault, err := m.resolve(va)
			if err == nil || kerr == nil || err.Error() != kerr.Error() || guestFault || hostFault {
				t.Errorf("resolve(%#x) = faults (%v,%v) err %v, want the kernel's %v", va, guestFault, hostFault, err, kerr)
			}
			if _, _, _, _, err := m.resolve(0x1000_0000); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestResolveUnalignedVMA pins the indexing of VMAs whose base and
// limit are not granule-aligned: two areas sharing one 2MB granule each
// own an element for it, every page resolves to what the tables hold on
// the first (filling) and second (cached) pass, and every page is
// cached — the 2MB regions lying wholly inside an area as one element
// each, the 4KB pages of the partial granules in split blocks.
func TestResolveUnalignedVMA(t *testing.T) {
	for _, thp := range []bool{false, true} {
		vmas := []kernel.VMA{
			{Base: 0x1000_3000, Size: 5<<20 + 0x2000, THPEligible: true}, // ends mid-granule at 0x1050_5000
			{Base: 0x1050_5000, Size: 3<<20 + 0x1000, THPEligible: true}, // starts in the same granule
		}
		m := bareMachine(edgeKernel(t, thp, 0), edgeHypervisor(t, thp), vmas, thp)
		for pass := 0; pass < 2; pass++ {
			for _, v := range vmas {
				for off := uint64(0); off < v.Size; off += addr.Page4K.Bytes() {
					va := addr.Add(v.Base, off+off%61)
					hpa, size, _, _, err := m.resolve(va)
					if err != nil {
						t.Fatalf("thp=%v pass %d: resolve(%#x): %v", thp, pass, va, err)
					}
					if want, guest, _, ok := tablesTranslate(m, va); !ok || hpa != want || size != guest {
						t.Fatalf("thp=%v pass %d: resolve(%#x) = (%#x, %v), tables map (%#x, %v, ok=%v)",
							thp, pass, va, hpa, size, want, guest, ok)
					}
				}
			}
		}
		// 4KB granule: every page of both areas. 2MB granule: the one
		// whole region inside the first area (0x1020_0000) and the one
		// inside the second (0x1060_0000), plus the 4KB pages of the
		// four partial granules — 509 at 0x1000_0000, 261 + 251 at
		// 0x1040_0000 (one block for each area) and 6 at 0x1080_0000.
		want := int((vmas[0].Size + vmas[1].Size) / addr.Page4K.Bytes())
		if thp {
			want = 2 + 509 + 261 + 251 + 6
		}
		if cached := cachedElements(m); cached != want {
			t.Errorf("thp=%v: %d elements cached, want %d", thp, cached, want)
		}
	}
}

// TestResolveWideFrameUncached pins that a frame number too wide for an
// element is served from the tables every time, not truncated: a native
// kernel whose physical window starts at 16TB mints 4KB frame numbers
// of 2^32 and up.
func TestResolveWideFrameUncached(t *testing.T) {
	vmas := []kernel.VMA{{Base: 0x1000_0000, Size: 1 << 20}}
	m := bareMachine(edgeKernel(t, false, 1<<44), nil, vmas, false)
	for pass := 0; pass < 2; pass++ {
		for off := uint64(0); off < vmas[0].Size; off += addr.Page4K.Bytes() {
			va := addr.Add(vmas[0].Base, off+8)
			hpa, _, guestFault, _, err := m.resolve(va)
			if err != nil {
				t.Fatal(err)
			}
			if want, _, _, ok := tablesTranslate(m, va); !ok || hpa != want || hpa < 1<<44 {
				t.Fatalf("pass %d: resolve(%#x) = %#x, tables map %#x (ok=%v)", pass, va, hpa, want, ok)
			}
			if guestFault != (pass == 0) {
				t.Fatalf("pass %d: resolve(%#x) guestFault=%v", pass, va, guestFault)
			}
		}
	}
	if n := cachedElements(m); n != 0 {
		t.Fatalf("%d elements cache a frame number that does not fit", n)
	}
}

// BenchmarkMachineResolve times the functional entry point: on the
// GUPS table a hit (one range check and one load), a miss (both tables
// and the fill; the element is cleared before every call), and the
// refill after an unmap (the drop itself plus the lookups that follow
// it); and a hit on BC's THP-ineligible property array under THP, whose
// 4KB pages have 4KB elements of their own.
func BenchmarkMachineResolve(b *testing.B) {
	var sink addr.HPA
	// machine builds a populated machine and samples addresses in its
	// VMA numbered vma.
	machine := func(b *testing.B, app string, thp bool, vma int) (*Machine, []addr.GVA) {
		cfg := DefaultConfig(DesignNestedECPT, app, thp)
		cfg.WorkloadOpts.Scale = 64
		m, err := NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Prepopulate(); err != nil {
			b.Fatal(err)
		}
		v := m.gen.VMAs()[vma]
		rng := vhash.NewRNG(1)
		vas := make([]addr.GVA, 1<<14)
		for i := range vas {
			vas[i] = addr.Add(v.Base, rng.Uint64n(v.Size))
		}
		return m, vas
	}
	run := func(b *testing.B, m *Machine, vas []addr.GVA, before func(i int)) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if before != nil {
				before(i)
			}
			hpa, _, _, _, err := m.resolve(vas[i%len(vas)])
			if err != nil {
				b.Fatal(err)
			}
			sink ^= hpa
		}
		benchSink = sink
	}
	m, vas := machine(b, "GUPS", false, 0)
	b.Run("hit", func(b *testing.B) { run(b, m, vas, nil) })
	b.Run("miss", func(b *testing.B) {
		run(b, m, vas, func(i int) {
			va := vas[i%len(vas)]
			e, _, _ := m.memo.slot(m.memo.span(va), va)
			*e = 0
		})
	})
	b.Run("post-unmap-refill", func(b *testing.B) {
		// One unmap every 1024 resolves: each drops the memo and the
		// TLB, and the resolves after it refill from the tables.
		run(b, m, vas, func(i int) {
			if i%1024 == 0 {
				m.Kernel().Unmap(vas[i%len(vas)])
			}
		})
	})
	b.Run("hit-thp-ineligible", func(b *testing.B) {
		m, vas := machine(b, "BC", true, 2)
		if m.gen.VMAs()[2].THPEligible {
			b.Fatal("BC's third VMA is THP-eligible")
		}
		run(b, m, vas, nil)
	})
}

var benchSink addr.HPA

// BenchmarkPrepopulate times a machine's set-up, NewMachine plus
// Prepopulate, on 4KB GUPS at the benchmark's scale of 16: every page
// of the footprint mapped on both sides, a run of consecutive pages at a
// time.
func BenchmarkPrepopulate(b *testing.B) {
	for _, design := range []Design{DesignNestedECPT, DesignNestedRadix} {
		b.Run(design.String(), func(b *testing.B) {
			cfg := DefaultConfig(design, "GUPS", false)
			cfg.WorkloadOpts.Scale = 16
			var pages uint64
			for i := 0; i < b.N; i++ {
				m, err := NewMachine(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Prepopulate(); err != nil {
					b.Fatal(err)
				}
				pages = m.Kernel().Stats().MinorFaults
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*pages), "ns/page")
		})
	}
}
