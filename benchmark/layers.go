package main

import (
	"fmt"
	"time"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/cachesim"
	"nestedecpt/internal/core"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/hypervisor"
	"nestedecpt/internal/kernel"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/mmucache"
	"nestedecpt/internal/sim"
	"nestedecpt/internal/stats"
	"nestedecpt/internal/tlbsim"
	"nestedecpt/internal/trace"
	"nestedecpt/internal/vhash"
	"nestedecpt/internal/workload"
)

// The layer probe: every layer a walk crosses, timed from outside
// through its public calls. One clock read costs about as much as the
// calls being measured, so each figure is a batch: one clock pair
// around sizes.batchCalls calls on inputs captured beforehand, the
// median of sizes.batchReps batches. The probe runs on a fixed configuration (Nested
// ECPTs, GUPS, scale 16) whatever workload the traced pass belongs to,
// so the same layer reads the same way beside every workload.
// sink keeps the compiler from discarding a measured call's result.
var sink uint64

// batchNs returns the median ns per call over sz.batchReps runs of fn,
// which performs n calls.
func (sz *sizes) batchNs(n int, fn func(n int)) float64 {
	fn(n) // grow scratch and warm caches before timing
	samples := make([]float64, 0, sz.batchReps)
	for r := 0; r < sz.batchReps; r++ {
		s := time.Now()
		fn(n)
		samples = append(samples, float64(time.Since(s).Nanoseconds())/float64(n))
	}
	return median(samples)
}

// probeLayers fills the probe block of the per-layer metrics.
func probeLayers(sz *sizes, seed uint64, out *runResult, tr *tracer) error {
	root := tr.begin(0, "benchmark", "layer_probe")
	defer tr.end(root)
	out.set("trace.timer_ns", tr.readNs)

	probePure(sz, out)
	if err := probeTables(sz, seed, out); err != nil {
		return fmt.Errorf("layer probe: tables: %w", err)
	}
	if err := probeWalks(sz, seed, out, tr, root); err != nil {
		return fmt.Errorf("layer probe: walks: %w", err)
	}
	return nil
}

// probePure times the layers that need no machine: hash, MMU caches,
// TLB, cache hierarchy, generator, statistics, the disabled recorder.
func probePure(sz *sizes, out *runResult) {
	batchCalls := sz.batchCalls
	h := vhash.New(0, 1)
	out.set("vhash.hash_ns", sz.batchNs(batchCalls, func(n int) {
		var acc uint64
		for i := 0; i < n; i++ {
			acc ^= h.Hash(uint64(i) * 0x9E3779B97F4A7C15)
		}
		sink += acc
	}))

	mc := mmucache.New[uint64, uint64]("probe", 16)
	for k := uint64(0); k < 16; k++ {
		mc.Insert(k, k)
	}
	out.set("mmucache.lookup_hit_ns", sz.batchNs(batchCalls, func(n int) {
		for i := 0; i < n; i++ {
			v, _ := mc.Lookup(uint64(i) & 15)
			sink += v
		}
	}))
	out.set("mmucache.lookup_miss_ns", sz.batchNs(batchCalls, func(n int) {
		for i := 0; i < n; i++ {
			v, _ := mc.Lookup(1<<32 + uint64(i))
			sink += v
		}
	}))
	next := uint64(1 << 20)
	out.set("mmucache.insert_ns", sz.batchNs(batchCalls, func(n int) {
		for i := 0; i < n; i++ {
			next++
			mc.Insert(next, next) // always evicts: the cache is full
		}
	}))

	cwc := core.NewCWC("probe", core.CWCConfig{PTE: 16, PMD: 16, PUD: 2})
	for k := uint64(0); k < 16; k++ {
		cwc.Insert(addr.Page2M, k)
	}
	out.set("core.cwc_lookup_ns", sz.batchNs(batchCalls, func(n int) {
		for i := 0; i < n; i++ {
			if cwc.Lookup(addr.Page2M, uint64(i)&15) {
				sink++
			}
		}
	}))

	scfg, _ := sz.hotConfig(true, 42).Normalized(4 << 30)
	tlb := tlbsim.New(scfg.TLB)
	const tlbBase = addr.GVA(0x4000_0000_0000)
	const hpa0 = addr.HPA(0)
	out.set("tlbsim.fill_ns", sz.batchNs(batchCalls, func(n int) {
		for i := 0; i < n; i++ {
			tlb.Fill(addr.Add(tlbBase, uint64(i)<<12), addr.Page4K, addr.Add(hpa0, uint64(i)<<12))
		}
	}))
	// The last 32 pages filled, in turn: more than the scaled L1 holds,
	// fewer than the L2, so accesses miss L1, hit L2 and promote.
	out.set("tlbsim.access_ns", sz.batchNs(batchCalls, func(n int) {
		for i := 0; i < n; i++ {
			r := tlb.Access(addr.Add(tlbBase, uint64(batchCalls-1-i&31)<<12))
			sink += r.Latency
		}
	}))

	mem := cachesim.NewHierarchy(scfg.Hierarchy)
	var clock uint64
	out.set("cachesim.access_l1_ns", sz.batchNs(batchCalls, func(n int) {
		for i := 0; i < n; i++ {
			lat, _ := mem.Access(clock, addr.Add(hpa0, uint64(i&7)<<6), cachesim.SourceMMU)
			clock += lat
		}
	}))
	line := uint64(1 << 30)
	out.set("cachesim.access_dram_ns", sz.batchNs(batchCalls, func(n int) {
		for i := 0; i < n; i++ {
			line += 64 // a line never seen before: misses every level
			lat, _ := mem.Access(clock, addr.Add(hpa0, line), cachesim.SourceMMU)
			clock += lat
		}
	}))
	// Three probes a group over a set four times the scaled L2, so the
	// group mixes service levels as a 4KB walk step does.
	span := 4 * scfg.Hierarchy.L2.SizeBytes / addr.CacheLineBytes
	rng := vhash.NewRNG(7)
	groups := make([][3]addr.HPA, 1024)
	for i := range groups {
		for j := range groups[i] {
			groups[i][j] = addr.Add(hpa0, 2<<30+rng.Uint64n(span)*addr.CacheLineBytes)
		}
	}
	out.set("cachesim.access_parallel3_ns", sz.batchNs(batchCalls, func(n int) {
		for i := 0; i < n; i++ {
			g := &groups[i&1023]
			clock += mem.AccessParallel(clock, g[:], cachesim.SourceMMU)
		}
	}))
	sink += clock

	// BC's generator: sim_bc_thp is where Generator.Next is a visible
	// share of a step.
	gen := workload.MustNew("BC", workload.Options{Scale: sz.simScale, Seed: 42})
	out.set("workload.next_ns", sz.batchNs(batchCalls, func(n int) {
		for i := 0; i < n; i++ {
			sink += addr.VPN(gen.Next().VA, addr.Page4K)
		}
	}))

	hist := stats.NewHistogram(20)
	out.set("stats.histogram_observe_ns", sz.batchNs(batchCalls, func(n int) {
		for i := 0; i < n; i++ {
			hist.Observe(uint64(i) % 600)
		}
	}))
	dist := stats.NewDistribution()
	classes := [4]string{core.WalkDirect.String(), core.WalkSize.String(), core.WalkDirect.String(), core.WalkPartial.String()}
	out.set("stats.distribution_observe_ns", sz.batchNs(batchCalls, func(n int) {
		for i := 0; i < n; i++ {
			dist.Observe(classes[i&3])
		}
	}))
	var rec *trace.Recorder
	out.set("trace.nil_emit_ns", sz.batchNs(batchCalls, func(n int) {
		for i := 0; i < n; i++ {
			rec.Emit(trace.Event{Now: uint64(i), Kind: trace.KindWalkBegin})
		}
	}))
}

// probeTables times the page-table layers on a guest kernel and a
// hypervisor of their own: probePages 4KB pages demand-mapped on both
// sides, probed sequentially, then switched to concurrent mode and
// probed again through the sealed view, then churned and published.
//
//nestedlint:writer the probe is the only goroutine touching these tables
func probeTables(sz *sizes, seed uint64, out *runResult) error {
	batchCalls, insertKeys, probePages := sz.batchCalls, sz.insertKeys, uint64(sz.hotPages)
	tab := ecpt.MustNew[addr.GPA](addr.Page4K, ecpt.ScaledSetConfig(false, sz.simScale).PerSize[addr.Page4K],
		memsim.NewAllocator[addr.GPA](8<<30, seed+1), nil, 1, seed+1)
	t0 := time.Now()
	for i := uint64(0); i < insertKeys; i++ {
		tab.Insert(i*ecpt.TranslationsPerLine, addr.Add(addr.GPA(0), i<<12)) // one line per key: every insert places a line
	}
	out.set("ecpt.insert_ns", float64(time.Since(t0).Nanoseconds())/float64(insertKeys))
	st := tab.Stats()
	out.set("ecpt.kicks_per_insert", float64(st.Kicks)/float64(st.Inserts))
	out.set("ecpt.resizes", float64(st.Resizes))
	t0 = time.Now()
	for i := uint64(0); i < insertKeys; i++ {
		tab.Remove(i * ecpt.TranslationsPerLine)
	}
	out.set("ecpt.remove_ns", float64(time.Since(t0).Nanoseconds())/float64(insertKeys))

	const base = addr.GVA(0x4000_0000_0000)
	const pageBytes = uint64(1) << 12
	k, err := kernel.New(kernel.Config{
		GuestMemBytes: 1 << 30, BuildECPT: true, ECPT: ecpt.ScaledSetConfig(false, sz.simScale), Seed: seed + 101,
	})
	if err != nil {
		return err
	}
	hyp, err := hypervisor.New(hypervisor.Config{
		HostMemBytes: 4 << 30, BuildECPT: true, ECPT: ecpt.ScaledSetConfig(true, sz.simScale), Seed: seed + 202,
	})
	if err != nil {
		return err
	}
	k.DefineVMA(kernel.VMA{Base: base, Size: 4 * probePages * pageBytes})
	t0 = time.Now()
	for i := uint64(0); i < probePages; i++ {
		if _, _, err := k.Touch(addr.Add(base, i*pageBytes)); err != nil {
			return err
		}
	}
	out.set("kernel.touch_ns", float64(time.Since(t0).Nanoseconds())/float64(probePages))
	gpas := make([]addr.GPA, probePages)
	for i := range gpas {
		gpas[i], _, _ = k.Translate(addr.Add(base, uint64(i)*pageBytes))
	}
	t0 = time.Now()
	for _, gpa := range gpas {
		if _, err := hyp.EnsureMapped(gpa, false); err != nil {
			return err
		}
	}
	out.set("hypervisor.ensure_mapped_ns", float64(time.Since(t0).Nanoseconds())/float64(probePages))

	// Host side: the PTE table with its CWT, as Step 1 and Step 3 of a
	// 4KB walk use them.
	hset := hyp.ECPTs()
	htab := hset.Table(addr.Page4K)
	vpns := make([]uint64, len(gpas))
	for i, gpa := range gpas {
		vpns[i] = addr.VPN(gpa, addr.Page4K)
	}
	probes := make([]ecpt.Probe[addr.HPA], 0, 16)
	appendAll := func(way int) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				probes = htab.AppendProbes(probes[:0], vpns[i%len(vpns)], way)
				sink += uint64(len(probes))
			}
		}
	}
	out.set("ecpt.append_probes_ns", sz.batchNs(batchCalls, appendAll(ecpt.AllWays)))
	out.set("ecpt.append_probes_direct_ns", sz.batchNs(batchCalls, appendAll(0)))
	var info ecpt.Info[addr.HPA]
	cwt := htab.CWT()
	out.set("ecpt.cwt_query_ns", sz.batchNs(batchCalls, func(n int) {
		for i := 0; i < n; i++ {
			cwt.QueryInto(vpns[i%len(vpns)], &info)
			sink += info.EntryKey
		}
	}))
	out.set("ecpt.set_lookup_ns", sz.batchNs(batchCalls, func(n int) {
		for i := 0; i < n; i++ {
			f, _, _ := hset.Lookup(gpas[i%len(gpas)])
			sink += addr.VPN(f, addr.Page4K)
		}
	}))

	// Concurrent mode: the same probes through the published view.
	dom := &ecpt.EpochDomain{}
	hset.EnterConcurrent(dom)
	out.set("ecpt.append_probes_view_ns", sz.batchNs(batchCalls, appendAll(ecpt.AllWays)))
	out.set("ecpt.epoch_enter_exit_ns", probeEpochBracket(sz, dom))

	// Churn as serve's writer does: map 16 fresh pages, publish.
	gdom := &ecpt.EpochDomain{}
	k.ECPTs().EnterConcurrent(gdom)
	const rounds = 64
	pub := make([]float64, 0, rounds)
	nextPage := probePages
	for r := 0; r < rounds; r++ {
		for p := 0; p < 16; p++ {
			if _, _, err := k.Touch(addr.Add(base, nextPage*pageBytes)); err != nil {
				return err
			}
			nextPage++
		}
		s := time.Now()
		k.ECPTs().Publish()
		pub = append(pub, float64(time.Since(s).Nanoseconds()))
	}
	out.set("ecpt.publish_ns", median(pub))
	t0 = time.Now()
	for i := uint64(0); i < probePages; i++ {
		k.Unmap(addr.Add(base, i*pageBytes))
	}
	out.set("kernel.unmap_ns", float64(time.Since(t0).Nanoseconds())/float64(probePages))
	k.ECPTs().Publish()
	hset.Publish()
	out.set("ecpt.pending_reclaims", float64(dom.Pending()+gdom.Pending()))
	return nil
}

// probeEpochBracket times the reader's Enter/Exit pair around a walk.
func probeEpochBracket(sz *sizes, dom *ecpt.EpochDomain) float64 {
	rd := dom.NewReader()
	defer rd.Close()
	return sz.batchNs(sz.batchCalls, func(n int) {
		for i := 0; i < n; i++ {
			rd.Enter()
			rd.Exit()
		}
	})
}

// walkLoop is walk_hot_thp's pass at probe length — sz.probeChunks
// chunks — on any warmed machine. It returns the median chunk's ns per
// walk.
func (sz *sizes) walkLoop(hm *hotMachine, c *check) float64 {
	short := *sz
	short.hotChunks = sz.probeChunks
	st := &hotState{sz: &short, hm: hm, now: hotClock0}
	p, _ := st.pass() // a hot pass has no error of its own; failed walks are counted
	c.merge(st.check)
	return median(p.chunkNs)
}

// probeWalks measures the walk itself — THP, 4KB, batched, Nested
// Radix — and splits the THP walk into its budget.
func probeWalks(sz *sizes, seed uint64, out *runResult, tr *tracer, root int) error {
	hm, err := newHotMachine(sz.hotConfig(true, seed), sz.hotPages)
	if err != nil {
		return err
	}
	w := hm.m.Walker().(*core.NestedECPT)
	walkNs := sz.walkLoop(hm, &out.check)
	out.set("core.walk_ns", walkNs)

	// Batched: 32 lanes a call over sliding windows of the VA set.
	const lanes = 32
	pool := append(append([]addr.GVA(nil), hm.vas...), hm.vas[:lanes]...)
	outs := make([]core.WalkResult, lanes)
	errs := make([]error, lanes)
	now := uint64(1) << 37
	off := 0
	out.set("core.walkbatch32_ns_per_walk", sz.batchNs(sz.hotChunkWalks/lanes+1, func(n int) {
		for i := 0; i < n; i++ {
			now += w.WalkBatch(now, pool[off:off+lanes], outs, errs) + 1
			if off++; off == len(hm.vas) {
				off = 0
			}
		}
	})/lanes)

	// The budget: a second walker on the same tables whose memory
	// system is the wrapper. It first records one lap's memory calls —
	// replayed below in a batch, like every other row — then times each
	// call and each Walk with a clock pair of its own, for the spans.
	tm := &timedMem{h: cachesim.NewHierarchy(hm.cfg.Hierarchy)}
	tw := core.NewNestedECPT(hm.cfg.NestedECPT, tm, hm.m.Kernel(), hm.m.Hypervisor())
	bud := sz.budgetLoop(tw, tm, hm, tr, root, &out.check)
	memNs := sz.replayMem(tm, hm.cfg.Hierarchy)
	out.set("core.walk_traced_ns", bud.tracedNs)
	out.set("cachesim.walk_calls_per_walk", bud.memCalls)
	out.set("cachesim.walk_share", bud.memCalls*memNs/walkNs)
	out.set("core.walk_self_ns", walkNs-bud.memCalls*memNs)
	necptCounts(tw, out.values)

	// Rows: calls per walk (from the traced walker's own statistics)
	// times the layer's batch-timed cost. The rows are disjoint —
	// AppendProbes contains its hashes, CWC.Lookup its mmucache scan —
	// and what they do not explain is reported, not spread over them.
	v := out.values
	direct, all := v["ecpt.append_probes_direct_ns"], v["ecpt.append_probes_ns"]
	rows := []budgetRow{
		{"cachesim.Hierarchy (replayed calls)", bud.memCalls, memNs},
		{"ecpt.AppendProbes, one way", bud.directGroups, direct},
		{"ecpt.AppendProbes, all ways", bud.allGroups, all},
		{"ecpt.CWT.QueryInto", bud.cwcLookups, v["ecpt.cwt_query_ns"]},
		{"core.CWC.Lookup (mmucache)", bud.cwcLookups, v["core.cwc_lookup_ns"]},
		{"stats.Distribution.Observe", bud.plans, v["stats.distribution_observe_ns"]},
	}
	var explained float64
	for _, r := range rows {
		explained += r.calls * r.ns
		out.note("budget %-36s %6.2f calls/walk x %7.2f ns = %7.2f ns", r.name, r.calls, r.ns, r.calls*r.ns)
	}
	unattributed := 1 - explained/walkNs
	out.set("core.walk_unattributed_share", unattributed)
	out.note("budget %-36s %32.2f ns (%.1f%% of core.walk_ns %.2f ns; of the probes' cost, vhash is %.2f hashes x %.2f ns)",
		"unattributed (walker itself)", unattributed*walkNs, 100*unattributed, walkNs, bud.probes, v["vhash.hash_ns"])

	// 4KB pages: the sim_gups_4k machine, whose two set-up phases are
	// the sim.* set-up figures. The 4KB and radix loops walk a sixteenth
	// of the pages (4MB, as the repository's own walk benchmarks do):
	// without huge pages the full set no longer fits the scaled simulated
	// caches, and the loop would time the DRAM model instead of the walk.
	few := sz.hotPages / 16
	m4k, newS, prepS, err := buildMachine(sz.hotConfig(false, seed))
	if err != nil {
		return err
	}
	out.set("sim.new_machine_s", newS)
	out.set("sim.prepopulate_s", prepS)
	hm4k, err := resolveHot(m4k, sz.hotConfig(false, seed), few)
	if err != nil {
		return err
	}
	out.set("core.walk_4k_ns", sz.walkLoop(hm4k, &out.check))

	rcfg := sz.hotConfig(false, seed)
	rcfg.Design = sim.DesignNestedRadix
	hmr, err := newHotMachine(rcfg, few)
	if err != nil {
		return err
	}
	out.set("core.walk_nradix_ns", sz.walkLoop(hmr, &out.check))
	return nil
}

type budgetRow struct {
	name  string
	calls float64
	ns    float64
}

// budget is what the wrapper loop measured, per walk.
type budget struct {
	tracedNs float64 // a walk with every clock pair in place
	memCalls float64
	// Call counts per walk, from the walker's statistics.
	directGroups, allGroups float64
	probes                  float64
	cwcLookups              float64
	plans                   float64
}

func (sz *sizes) budgetLoop(tw *core.NestedECPT, tm *timedMem, hm *hotMachine, tr *tracer, root int, c *check) budget {
	probeChunks, hotChunkWalks := sz.probeChunks, sz.hotChunkWalks
	// Two untimed laps: the first fills the second walker's MMU caches
	// and the wrapper's hierarchy, the second is recorded for the replay.
	now := uint64(1) << 36
	for lap := 0; lap < 2; lap++ {
		tm.recording = lap == 1
		for _, va := range hm.vas {
			res, err := walkServiced(tw, hm.m, now, va)
			if err != nil {
				c.fail(1, "budget loop warm-up: %v", err)
			}
			now += res.Latency + 1
		}
	}
	tm.recording = false
	tw.ResetStats()
	tm.reset()
	var walks uint64
	var wall time.Duration
	i := 0
	for ch := 0; ch < probeChunks; ch++ {
		memBefore, callsBefore := tm.busy, tm.calls
		var inWalk time.Duration
		var bad uint64
		start := tr.now()
		cs := time.Now()
		for k := 0; k < hotChunkWalks; k++ {
			s := time.Now()
			res, err := tw.Walk(now, hm.vas[i])
			inWalk += time.Since(s)
			if err != nil || res.Frame != hm.want[i] {
				bad++
			}
			now += res.Latency + 1
			if i++; i == len(hm.vas) {
				i = 0
			}
		}
		wall += time.Since(cs)
		walks += uint64(hotChunkWalks)
		c.attempted += uint64(hotChunkWalks)
		if bad > 0 {
			c.fail(bad, "budget loop: %d of %d walks failed or disagreed with the oracle", bad, hotChunkWalks)
		}
		// One summed span per chunk and layer, as the clock read them:
		// each call's span includes about half a clock pair, and a Walk's
		// span all of its memory calls' pairs.
		chunk := tr.add(root, "benchmark", "walk_chunk", start, float64(tr.now()-start), uint64(hotChunkWalks))
		ws := tr.add(chunk, "core", "NestedECPT.Walk", start, float64(inWalk.Nanoseconds()), uint64(hotChunkWalks))
		tr.add(ws, "cachesim", "Access+AccessParallel", start, float64((tm.busy - memBefore).Nanoseconds()), tm.calls-callsBefore)
	}
	n := float64(walks)
	st := tw.Stats()
	g, h1, h3 := tw.CWCs()
	var lookups uint64
	for _, cwc := range []*core.CWC{g, h1, h3} {
		for _, s := range addr.Sizes() {
			cs := cwc.Stats(s)
			lookups += cs.Total()
		}
	}
	// A Direct plan probes one way of one table; Size all ways of one;
	// Partial all ways of two; Complete all ways of three.
	var direct, all float64
	for _, d := range []*stats.Distribution{st.GuestClasses, st.HostClasses} {
		t := float64(d.Total())
		direct += t * d.Fraction(core.WalkDirect.String())
		all += t * (d.Fraction(core.WalkSize.String()) + 2*d.Fraction(core.WalkPartial.String()) + 3*d.Fraction(core.WalkComplete.String()))
	}
	return budget{
		tracedNs:     float64(wall.Nanoseconds()) / n,
		memCalls:     float64(tm.calls) / n,
		directGroups: direct / n,
		allGroups:    all / n,
		probes:       st.Par1.Value() + st.Par2.Value() + st.Par3.Value(),
		cwcLookups:   float64(lookups) / n,
		plans:        float64(st.GuestClasses.Total()+st.HostClasses.Total()) / n,
	}
}

// replayMem batch-times the memory calls the wrapper recorded on a
// hierarchy of its own and returns the ns per call.
func (sz *sizes) replayMem(tm *timedMem, cfg cachesim.HierarchyConfig) float64 {
	if len(tm.rec) == 0 {
		return 0
	}
	h := cachesim.NewHierarchy(cfg)
	return sz.batchNs(len(tm.rec), func(n int) {
		for i := 0; i < n; i++ {
			r := &tm.rec[i]
			sink += h.AccessParallel(r.now, tm.recPAs[r.lo:r.hi], cachesim.SourceMMU)
		}
	})
}

// necptCounts reads the simulated per-walk counts and hit rates a
// Nested ECPT walker accumulated since its last ResetStats.
func necptCounts(w *core.NestedECPT, into map[string]float64) {
	st := w.Stats()
	into["core.parallel_step1"] = st.Par1.Value()
	into["core.parallel_step2"] = st.Par2.Value()
	into["core.parallel_step3"] = st.Par3.Value()
	into["core.walk_accesses_mean"] = st.Par1.Value() + st.Par2.Value() + st.Par3.Value()
	into["core.stc_hit_rate"] = st.STC.HitRate()
	g, h1, h3 := w.CWCs()
	for name, cwc := range map[string]*core.CWC{"core.cwc_hit_rate_g": g, "core.cwc_hit_rate_h1": h1, "core.cwc_hit_rate_h3": h3} {
		var c stats.Counter
		for _, s := range addr.Sizes() {
			c.Add(cwc.Stats(s))
		}
		into[name] = c.HitRate()
	}
}
