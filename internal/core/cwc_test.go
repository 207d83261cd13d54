package core

import (
	"fmt"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/trace"
	"nestedecpt/internal/traceaudit"
)

func newPlannerSet(t *testing.T, withPTECWT bool) *ecpt.Set[uint64, uint64] {
	t.Helper()
	alloc := memsim.NewAllocator[uint64](1<<30, 3)
	set, err := ecpt.NewSet[uint64](ecpt.ScaledSetConfig(withPTECWT, 64), alloc, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// probesForPlan expands a plan into the concrete line probes (walkers
// expand groups into their own scratch).
func probesForPlan[V, P addr.Addr](set *ecpt.Set[V, P], va V, plan *probePlan[P]) []ecpt.Probe[P] {
	var probes []ecpt.Probe[P]
	for _, g := range plan.groups {
		probes = set.Table(g.size).AppendProbes(probes, addr.VPN(va, g.size), g.way)
	}
	return probes
}

func TestCWCPartitioning(t *testing.T) {
	c := NewCWC("t", CWCConfig{PMD: 4, PUD: 2})
	if c.Has(addr.Page4K) {
		t.Error("PTE class exists without capacity")
	}
	if !c.Has(addr.Page2M) || !c.Has(addr.Page1G) {
		t.Error("configured classes missing")
	}
	if c.Lookup(addr.Page4K, 1) {
		t.Error("lookup in absent class hit")
	}
	c.Insert(addr.Page2M, 5)
	if !c.Lookup(addr.Page2M, 5) {
		t.Error("inserted key missed")
	}
	if c.Lookup(addr.Page1G, 5) {
		t.Error("classes not isolated")
	}
}

func TestCWCEnableDisable(t *testing.T) {
	c := NewCWC("t", CWCConfig{PTE: 4})
	c.Insert(addr.Page4K, 1)
	c.SetEnabled(addr.Page4K, false)
	if c.Has(addr.Page4K) || c.Lookup(addr.Page4K, 1) {
		t.Error("disabled class still answers")
	}
	c.SetEnabled(addr.Page4K, true)
	if !c.Lookup(addr.Page4K, 1) {
		t.Error("re-enabled class lost contents")
	}
}

func TestCWCWindowStats(t *testing.T) {
	c := NewCWC("t", CWCConfig{PMD: 4})
	c.Lookup(addr.Page2M, 1) // miss
	c.Insert(addr.Page2M, 1)
	c.Lookup(addr.Page2M, 1) // hit
	wnd := c.WindowStats(addr.Page2M)
	if wnd.Hits != 1 || wnd.Misses != 1 {
		t.Errorf("window = %+v", wnd)
	}
	if w2 := c.WindowStats(addr.Page2M); w2.Total() != 0 {
		t.Error("window not reset")
	}
	if cum := c.Stats(addr.Page2M); cum.Total() != 2 {
		t.Error("cumulative stats affected by window reset")
	}
}

func warmCWC(set *ecpt.Set[uint64, uint64], cwc *CWC, va uint64, usePTE bool) {
	// The planner descends one level per consult round (a miss at one
	// level stops the walk there), so warming all three levels takes
	// up to four rounds.
	var plan probePlan[uint64]
	for i := 0; i < 4; i++ {
		planWalk(set, cwc, va, addr.Page1G, usePTE, &plan)
		if r := plan.refill; r.pa != 0 {
			cwc.Insert(r.size, r.key)
		}
	}
}

func TestPlanWalkComplete(t *testing.T) {
	set := newPlannerSet(t, true)
	cwc := NewCWC("t", CWCConfig{PTE: 4, PMD: 4, PUD: 2})
	set.Map(0x1000, addr.Page4K, 0xAA000)
	var plan probePlan[uint64]
	planWalk(set, cwc, uint64(0x1000), addr.Page1G, true, &plan)
	if plan.class != WalkComplete {
		t.Fatalf("cold plan class = %v", plan.class)
	}
	if len(plan.groups) != 3 {
		t.Errorf("complete walk groups = %d", len(plan.groups))
	}
	if plan.refill.pa == 0 {
		t.Error("no refill requested on CWC miss")
	}
}

func TestPlanWalkDirect4K(t *testing.T) {
	set := newPlannerSet(t, true)
	cwc := NewCWC("t", CWCConfig{PTE: 4, PMD: 4, PUD: 2})
	set.Map(0x1000, addr.Page4K, 0xAA000)
	warmCWC(set, cwc, 0x1000, true)
	var plan probePlan[uint64]
	planWalk(set, cwc, uint64(0x1000), addr.Page1G, true, &plan)
	if plan.class != WalkDirect {
		t.Fatalf("warm 4K plan = %v", plan.class)
	}
	probes := probesForPlan(set, uint64(0x1000), &plan)
	if len(probes) != 1 || !probes[0].Match {
		t.Errorf("direct probes = %+v", probes)
	}
}

func TestPlanWalkDirect2M(t *testing.T) {
	set := newPlannerSet(t, true)
	cwc := NewCWC("t", CWCConfig{PMD: 4, PUD: 2})
	set.Map(0x4000_0000, addr.Page2M, 0x20_0000)
	warmCWC(set, cwc, 0x4000_0000, true)
	var plan probePlan[uint64]
	planWalk(set, cwc, uint64(0x4000_0000+0x1234), addr.Page1G, true, &plan)
	if plan.class != WalkDirect {
		t.Fatalf("warm 2M plan = %v", plan.class)
	}
	if plan.groups[0].size != addr.Page2M {
		t.Errorf("direct group size = %v", plan.groups[0].size)
	}
}

func TestPlanWalkSizeWithoutPTECWT(t *testing.T) {
	set := newPlannerSet(t, false) // guest layout: no PTE-CWT
	cwc := NewCWC("t", CWCConfig{PMD: 4, PUD: 2})
	set.Map(0x1000, addr.Page4K, 0xAA000)
	warmCWC(set, cwc, 0x1000, true)
	var plan probePlan[uint64]
	planWalk(set, cwc, uint64(0x1000), addr.Page1G, true, &plan)
	if plan.class != WalkSize {
		t.Fatalf("guest 4K plan = %v, want Size", plan.class)
	}
	if len(plan.groups) != 1 || plan.groups[0].way != ecpt.AllWays {
		t.Errorf("size groups = %+v", plan.groups)
	}
}

func TestPlanWalkUsePTEFlag(t *testing.T) {
	set := newPlannerSet(t, true)
	cwc := NewCWC("t", CWCConfig{PTE: 4, PMD: 4, PUD: 2})
	set.Map(0x1000, addr.Page4K, 0xAA000)
	warmCWC(set, cwc, 0x1000, true)
	var plan probePlan[uint64]
	planWalk(set, cwc, uint64(0x1000), addr.Page1G, false, &plan) // Hybrid lower rows
	if plan.class != WalkSize {
		t.Fatalf("usePTE=false plan = %v, want Size", plan.class)
	}
}

func TestPlanWalkPartialOnPMDMiss(t *testing.T) {
	set := newPlannerSet(t, true)
	cwc := NewCWC("t", CWCConfig{PTE: 4, PMD: 2, PUD: 2})
	set.Map(0x1000, addr.Page4K, 0xAA000)
	// Warm only the PUD class: the first consult misses there.
	var plan probePlan[uint64]
	planWalk(set, cwc, uint64(0x1000), addr.Page1G, true, &plan)
	if plan.refill.size != addr.Page1G {
		t.Fatalf("cold refill size = %v, want 1GB", plan.refill.size)
	}
	cwc.Insert(plan.refill.size, plan.refill.key)
	planWalk(set, cwc, uint64(0x1000), addr.Page1G, true, &plan)
	if plan.class != WalkPartial {
		t.Fatalf("plan = %v, want Partial", plan.class)
	}
	if len(plan.groups) != 2 {
		t.Errorf("partial groups = %+v", plan.groups)
	}
}

func TestPlanWalkFaultOnUnmapped(t *testing.T) {
	set := newPlannerSet(t, true)
	cwc := NewCWC("t", CWCConfig{PTE: 4, PMD: 4, PUD: 2})
	set.Map(0x1000, addr.Page4K, 0xAA000)
	warmCWC(set, cwc, 0x1000, true)
	// Same covered region, different unmapped page: the warm CWT entry
	// proves nothing is mapped there.
	var plan probePlan[uint64]
	planWalk(set, cwc, uint64(0x9000), addr.Page1G, true, &plan)
	if !plan.fault {
		t.Errorf("plan for unmapped page = %+v, want fault", &plan)
	}
}

// planMapping is what TestPlanWalkStateSpace maps near the planned
// address: one page of size at base (none if base is 0), which holds
// the address if mapped.
type planMapping struct {
	name   string
	size   addr.PageSize
	base   uint64
	mapped bool
}

// TestPlanWalkStateSpace enumerates every state one consult can meet —
// each size's CWT present or not, its CWC class configured or not and
// its entry warm or cold, the address mapped at 4KB, 2MB or 1GB, or
// unmapped beside a 4KB or 2MB page, or in an empty space — for a full
// descent and for the 4KB-only one (§4.3, planned only for 4KB pages),
// with and without the PTE class, and checks the plan's invariants.
func TestPlanWalkStateSpace(t *testing.T) {
	const va = uint64(0x4000_3000)
	mappings := []planMapping{
		{name: "empty"},
		{name: "4KB", size: addr.Page4K, base: va, mapped: true},
		{name: "2MB", size: addr.Page2M, base: 0x4000_0000, mapped: true},
		{name: "1GB", size: addr.Page1G, base: 0x4000_0000, mapped: true},
		{name: "beside-4KB", size: addr.Page4K, base: va + 0x1000},
		{name: "beside-2MB", size: addr.Page2M, base: 0x4020_0000},
	}
	for _, top := range []addr.PageSize{addr.Page1G, addr.Page4K} {
		for _, usePTE := range []bool{true, false} {
			t.Run(fmt.Sprintf("top=%v,usePTE=%v", top, usePTE), func(t *testing.T) {
				for _, m := range mappings {
					if top < m.size {
						continue // a 4KB-only descent presumes 4KB pages
					}
					for cwts := 0; cwts < 1<<addr.NumPageSizes; cwts++ {
						cfg := ecpt.ScaledSetConfig(false, 64)
						for _, s := range addr.Sizes() {
							cfg.WithCWT[s] = cwts&(1<<s) != 0
						}
						set, err := ecpt.NewSet[uint64](cfg, memsim.NewAllocator[uint64](1<<30, 3), 1, 11)
						if err != nil {
							t.Fatal(err)
						}
						if m.base != 0 {
							if err := set.Map(m.base, m.size, 0x8000_0000); err != nil {
								t.Fatal(err)
							}
						}
						for classes := 0; classes < 1<<addr.NumPageSizes; classes++ {
							for warm := 0; warm < 1<<addr.NumPageSizes; warm++ {
								checkPlanState(t, set, va, top, usePTE, m, classes, warm,
									fmt.Sprintf("%s cwts=%03b classes=%03b warm=%03b", m.name, cwts, classes, warm))
							}
						}
					}
				}
			})
		}
	}
}

// checkPlanState plans va over set, which holds m, through a CWC with
// the classes in the bits of classes, warm for the sizes in warm, and
// checks the plan.
func checkPlanState(t *testing.T, set *ecpt.Set[uint64, uint64], va uint64, top addr.PageSize, usePTE bool, m planMapping, classes, warm int, what string) {
	t.Helper()
	entries := func(s addr.PageSize) int { return 2 * (classes >> s & 1) }
	cwc := NewCWC("t", CWCConfig{PTE: entries(addr.Page4K), PMD: entries(addr.Page2M), PUD: entries(addr.Page1G)})
	// known: the size's CWC is consulted (CWT, class, PTE policy);
	// hits: and the consult hits.
	var known, hits [addr.NumPageSizes]bool
	for _, s := range addr.Sizes() {
		cwt := set.Table(s).CWT()
		known[s] = cwt != nil && cwc.Has(s) && (usePTE || s != addr.Page4K)
		hits[s] = known[s] && warm&(1<<s) != 0
		if cwt != nil && warm&(1<<s) != 0 {
			cwc.Insert(s, cwt.Query(addr.VPN(va, s)).EntryKey)
		}
	}
	var plan probePlan[uint64]
	planWalk(set, cwc, va, top, usePTE, &plan)

	// The descent passes a level only on a hit, and only when a
	// smaller page may lie beneath it.
	stop := top
	if len(plan.groups) > 0 {
		stop = plan.groups[0].size
	}
	for s := top; s > stop; s-- {
		if !hits[s] || m.base == 0 || m.size >= s {
			t.Errorf("%s: the descent passed the %v level (hit %v)", what, s, hits[s])
		}
	}
	switch {
	case plan.fault:
		if m.mapped || !hits[top] {
			t.Errorf("%s: a fault (mapped %v, hit at the top %v)", what, m.mapped, hits[top])
		}
		if len(plan.groups) != 0 || plan.refill.pa != 0 {
			t.Errorf("%s: a fault plans groups %+v, refill %+v", what, plan.groups, plan.refill)
		}
	case plan.class == WalkDirect:
		if len(plan.groups) != 1 || plan.groups[0].way == ecpt.AllWays || plan.refill.pa != 0 || !hits[stop] {
			t.Errorf("%s: direct plan groups %+v, refill %+v", what, plan.groups, plan.refill)
		}
	default:
		// All ways of a descending run of sizes that ends at 4KB, one
		// size per walk class step, starting where the descent stopped
		// on a miss, with that miss's refill when its CWC was consulted.
		if plan.class != WalkClass(len(plan.groups)) || len(plan.groups) > int(top)+1 {
			t.Errorf("%s: class %v from top %v over groups %+v", what, plan.class, top, plan.groups)
		}
		for i, g := range plan.groups {
			if g.way != ecpt.AllWays || int(g.size) != len(plan.groups)-1-i {
				t.Errorf("%s: groups %+v are not an all-ways run down to 4KB", what, plan.groups)
				break
			}
		}
		if hits[stop] {
			t.Errorf("%s: the descent stopped at a warm %v entry", what, stop)
		}
		if got := plan.refill.pa != 0; got != known[stop] || got && plan.refill.size != stop {
			t.Errorf("%s: stopped at %v (consulted %v), refill %+v", what, stop, known[stop], plan.refill)
		}
	}
	if m.mapped && !plan.fault {
		found := false
		for _, p := range probesForPlan(set, va, &plan) {
			found = found || p.Match
		}
		if !found {
			t.Errorf("%s: class %v plan %+v misses the mapped page", what, plan.class, plan.groups)
		}
	}
}

func TestAdaptiveControllerDisablesAndBacksOff(t *testing.T) {
	f := newFixture(t, false, true, false, true, false)
	cfg := DefaultNestedECPTConfig(AdvancedTechniques())
	cfg.AdaptIntervalCycles = 1000
	w := NewNestedECPT(cfg, f.mem, f.kern, f.hyp)

	feedPTE := func(hit bool) {
		for i := 0; i < 20; i++ {
			key := uint64(i * 1000)
			if hit {
				w.hCWC3.Insert(addr.Page4K, key)
			}
			w.hCWC3.Lookup(addr.Page4K, key)
		}
	}
	feedPMD := func(hit bool) {
		for i := 0; i < 20; i++ {
			key := uint64(i * 1000)
			if hit {
				w.hCWC3.Insert(addr.Page2M, key)
			}
			w.hCWC3.Lookup(addr.Page2M, key)
		}
	}

	// Interval 1: PTE hit rate 0 -> disable.
	feedPTE(false)
	w.maybeAdapt(10_000)
	if w.hCWC3.Has(addr.Page4K) {
		t.Fatal("PTE caching not disabled at 0% hit rate")
	}
	// Interval 2: PMD hot, but backoff (cooldown=1) delays re-enable.
	feedPMD(true)
	w.maybeAdapt(20_000)
	if w.hCWC3.Has(addr.Page4K) {
		t.Fatal("re-enabled without serving the backoff")
	}
	// Interval 3: PMD still hot -> re-enable.
	feedPMD(true)
	w.maybeAdapt(30_000)
	if !w.hCWC3.Has(addr.Page4K) {
		t.Fatal("not re-enabled after backoff")
	}
	// Disable again: the backoff must have doubled.
	feedPTE(false)
	w.maybeAdapt(40_000)
	feedPMD(true)
	w.maybeAdapt(50_000)
	feedPMD(true)
	w.maybeAdapt(60_000)
	if w.hCWC3.Has(addr.Page4K) {
		t.Fatal("second re-enable did not respect the doubled backoff")
	}
	st := w.Stats()
	if st.AdaptDisabled == 0 {
		t.Error("AdaptDisabled not counted")
	}
	if len(st.PTESeries.Points) == 0 || len(st.PMDSeries.Points) == 0 {
		t.Error("no Figure 12 interval samples recorded")
	}
}

// TestAdaptiveControllerExactThresholds pins the strictness of the
// §4.2/§9.2 comparisons at the exact boundary values: a window hit
// rate equal to the 0.5 disable threshold must NOT disable (the
// comparison is strictly below), and a rate equal to the 0.85 enable
// threshold must NOT enable — and must not consume backoff cooldown
// either, since the window did not qualify.
func TestAdaptiveControllerExactThresholds(t *testing.T) {
	f := newFixture(t, false, true, false, true, false)
	cfg := DefaultNestedECPTConfig(AdvancedTechniques())
	cfg.AdaptIntervalCycles = 1000
	w := NewNestedECPT(cfg, f.mem, f.kern, f.hyp)
	rec, col := trace.NewCollected()
	w.SetRecorder(rec)

	// feed drives one class's monitoring window to exactly hits/misses:
	// a hit is an insert immediately looked back up, a miss a lookup of
	// an absent key.
	feed := func(size addr.PageSize, hits, misses int) {
		for i := 0; i < hits; i++ {
			key := uint64((i + 1) * 1000)
			w.hCWC3.Insert(size, key)
			w.hCWC3.Lookup(size, key)
		}
		for i := 0; i < misses; i++ {
			w.hCWC3.Lookup(size, uint64((i+1)*997_001))
		}
	}

	// Interval 1: PTE rate exactly 0.5 over 20 samples. The disable
	// rule is strictly < 0.5, so caching must stay enabled.
	feed(addr.Page4K, 10, 10)
	w.maybeAdapt(10_000)
	if !w.hCWC3.Has(addr.Page4K) {
		t.Fatal("PTE caching disabled at hit rate == 0.5 (threshold is strict)")
	}

	// Interval 2: just below the boundary -> disable (backoff=1,
	// cooldown=1).
	feed(addr.Page4K, 9, 11)
	w.maybeAdapt(20_000)
	if w.hCWC3.Has(addr.Page4K) {
		t.Fatal("PTE caching not disabled at hit rate 0.45")
	}

	// Interval 3: PMD rate exactly 0.85 (17/20). The enable rule is
	// strictly > 0.85: no re-enable, and the non-qualifying window must
	// not consume the cooldown.
	feed(addr.Page2M, 17, 3)
	w.maybeAdapt(30_000)
	if w.hCWC3.Has(addr.Page4K) {
		t.Fatal("PTE caching re-enabled at hit rate == 0.85 (threshold is strict)")
	}

	// Interval 4: qualifying window; if interval 3 had consumed the
	// cooldown this would re-enable — it must only decrement it.
	feed(addr.Page2M, 18, 2)
	w.maybeAdapt(40_000)
	if w.hCWC3.Has(addr.Page4K) {
		t.Fatal("boundary-rate window consumed the backoff cooldown")
	}

	// Interval 5: second qualifying window -> re-enable.
	feed(addr.Page2M, 18, 2)
	w.maybeAdapt(50_000)
	if !w.hCWC3.Has(addr.Page4K) {
		t.Fatal("not re-enabled after cooldown was served")
	}

	// The emitted adaptive events must satisfy the auditor's toggle
	// discipline (interval spacing, adjacency, strict thresholds).
	rec.Flush()
	spec := traceaudit.Spec{
		Walker:              trace.WalkerNestedECPT,
		Ways:                3,
		AdaptIntervalCycles: cfg.AdaptIntervalCycles,
		AdaptDisableBelow:   cfg.AdaptDisableBelow,
		AdaptEnableAbove:    cfg.AdaptEnableAbove,
	}
	events := col.Events()
	toggles := 0
	for _, ev := range events {
		if ev.Kind == trace.KindAdaptToggle {
			toggles++
		}
	}
	if toggles != 2 {
		t.Errorf("toggle events = %d, want 2 (one disable, one enable)", toggles)
	}
	for _, v := range traceaudit.Audit(events, spec) {
		t.Errorf("trace audit: %v", v)
	}
}
