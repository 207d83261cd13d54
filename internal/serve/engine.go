package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/cachesim"
	"nestedecpt/internal/core"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/hypervisor"
	"nestedecpt/internal/kernel"
	"nestedecpt/internal/runner"
	"nestedecpt/internal/sim"
	"nestedecpt/internal/stats"
	"nestedecpt/internal/trace"
	"nestedecpt/internal/vhash"
	"nestedecpt/internal/workload"
)

// Churn-VMA layout: every guest gets one churn-private area above all
// workload VMAs (the generators' bases top out at 0x6800_...). The
// mutators demand-map fresh pages through it and unmap old ones,
// driving cuckoo inserts, removes, and elastic resizes while the
// workers translate workload addresses — which are never unmapped, so
// a snapshot can only ever be stale about churn pages. The churn-probe
// lane (Config.ProbeEvery) deliberately walks those pages to give the
// serve-mode audit its staleness witnesses.
const churnBase addr.GVA = 0x7000_0000_0000

// engine is one fully-built service instance.
//
// Writer topology (DESIGN.md §10): each guest's table set has its own
// epoch domain and exactly one mutating shard (vm % Shards); the
// shared host set has its own domain and one dedicated host-writer
// goroutine the shards funnel mapping requests through. Workers hold
// one epoch reader per domain and pin the guest's and the host's epoch
// around every walk.
type engine struct {
	cfg     Config
	simCfg  sim.Config // normalized single-VM sizing, reused per guest
	hyp     *hypervisor.Hypervisor
	kerns   []*kernel.Kernel
	hostDom *ecpt.EpochDomain
	vmDoms  []*ecpt.EpochDomain

	shards int
	window uint64 // live churn pages per guest
	span   uint64 // churn VA span in pages

	// metaFloor tracks each guest's metadata-region low-water mark:
	// gPAs below it are not yet host-mapped, and the churn round that
	// grows metadata past it pre-maps the new span before publishing.
	// Owned by the guest's shard after build.
	metaFloor []addr.GPA

	// churn state, owned by each guest's shard.
	churnNext []uint64 // next page index to touch, per VM
	churnLive []uint64 // live churn pages, per VM

	// vmGen counts each guest's publishes; the owning shard increments
	// it after the guest set's Publish, and readers load it when
	// pinning and unpinning an epoch — the generation window the
	// serve-mode audit judges every traced translation against.
	vmGen []atomic.Uint64
	// churnHead is each guest's reader-visible churn frontier (the
	// page index below which churn pages have been published at least
	// once); the probe lane picks targets under it.
	churnHead []atomic.Uint64

	// rec receives the serve-lane trace events; nil disables them.
	rec *trace.Recorder

	// hostReq funnels the shards' host-mapping requests to the host
	// writer. In replay mode (syncHost) requests apply inline instead —
	// the whole schedule runs on one goroutine.
	hostReq  chan *hostRequest
	syncHost bool

	stop      atomic.Bool
	publishes atomic.Uint64
	churnOps  atomic.Uint64
	shardErrs []error
}

// hostRequest is one churn round's host-side work: map the round's
// fresh guest-physical data pages (answering with their host frames)
// and any metadata-region growth, then publish the host set.
type hostRequest struct {
	data   []addr.GPA // fresh data pages to host-map
	hpas   []addr.HPA // reply: host frame per data page; nil wants none
	metaLo addr.GPA   // metadata growth [metaLo, metaHi)
	metaHi addr.GPA
	done   chan error
}

// churnOp is one map/unmap of a churn round in program order; data
// indexes the round's hostRequest.data for maps and is -1 for unmaps.
type churnOp struct {
	va   addr.GVA
	data int
}

// Run builds the service for cfg and drives it to completion.
func Run(ctx context.Context, cfg Config) (*Summary, error) {
	cfg = cfg.normalized()
	e, err := build(cfg)
	if err != nil {
		return nil, err
	}
	return e.run(ctx)
}

// build constructs the shared host, the per-VM guests, and pre-maps
// every translation the steady-state workers will ask for.
//
//nestedlint:writer construction precedes every reader goroutine
func build(cfg Config) (*engine, error) {
	base := sim.DefaultConfig(sim.DesignNestedECPT, cfg.Workload, cfg.THP)
	base.WorkloadOpts.Scale = cfg.Scale
	base.WorkloadOpts.Seed = cfg.Seed
	// Every guest and the host are built as the single-VM simulator
	// builds its own: from the set-up key, overriding only the window,
	// the seed and the memory that many guests sharing one host need.
	key, _, err := sim.SetupOf(base)
	if err != nil {
		return nil, err
	}
	probe, err := workload.New(cfg.Workload, base.WorkloadOpts)
	if err != nil {
		return nil, err
	}
	simCfg, err := base.Normalized(probe.Footprint())
	if err != nil {
		return nil, err
	}

	// Each guest owns a disjoint 1GB-aligned guest-physical window, so
	// gPAs from different VMs never collide in the shared host tables.
	stride := alignUp(key.Kernel.GuestMemBytes, addr.Page1G.Bytes())

	hcfg := key.Hypervisor
	hcfg.HostMemBytes = uint64(cfg.VMs)*key.Kernel.GuestMemBytes + (2 << 30)
	hyp, err := hypervisor.New(hcfg)
	if err != nil {
		return nil, err
	}

	e := &engine{
		cfg:       cfg,
		simCfg:    simCfg,
		hyp:       hyp,
		kerns:     make([]*kernel.Kernel, cfg.VMs),
		hostDom:   &ecpt.EpochDomain{},
		vmDoms:    make([]*ecpt.EpochDomain, cfg.VMs),
		shards:    cfg.Shards,
		window:    uint64(cfg.ChurnWindowPages),
		span:      uint64(cfg.ChurnSpanPages),
		metaFloor: make([]addr.GPA, cfg.VMs),
		churnNext: make([]uint64, cfg.VMs),
		churnLive: make([]uint64, cfg.VMs),
		vmGen:     make([]atomic.Uint64, cfg.VMs),
		churnHead: make([]atomic.Uint64, cfg.VMs),
		rec:       cfg.Trace,
		shardErrs: make([]error, cfg.Shards),
	}
	for i := 0; i < cfg.VMs; i++ {
		kcfg := key.Kernel
		kcfg.GPABase = uint64(i) * stride
		kcfg.Seed += uint64(i) * 9973
		k, err := kernel.New(kcfg)
		if err != nil {
			return nil, fmt.Errorf("serve: vm %d: %w", i, err)
		}
		for _, v := range probe.VMAs() {
			k.DefineVMA(v)
		}
		k.DefineVMA(kernel.VMA{Base: churnBase, Size: e.span * addr.Page4K.Bytes()})
		e.kerns[i] = k
		e.vmDoms[i] = &ecpt.EpochDomain{}
	}

	if err := e.prepopulate(probe.VMAs()); err != nil {
		return nil, err
	}

	// Switch every table into concurrent mode, host set first: a
	// published guest snapshot may reference guest-physical table and
	// CWT addresses, and those must already be translatable through
	// the published host snapshot.
	e.hyp.ECPTs().EnterConcurrent(e.hostDom)
	for i, k := range e.kerns {
		k.ECPTs().EnterConcurrent(e.vmDoms[i])
	}
	return e, nil
}

// prepopulate installs the complete guest mappings for every workload
// VMA of every guest, then hands each guest's data pages — every 4KB
// granule of them — and its page-table and CWT region to the host, as
// one churn round's host half, so steady-state walks never fault. The
// guests take turns with one request's buffers.
func (e *engine) prepopulate(vmas []kernel.VMA) error {
	req := &hostRequest{}
	for i, k := range e.kerns {
		req.data = req.data[:0]
		for _, v := range vmas {
			limit := addr.Add(v.Base, v.Size)
			for va := v.Base; va < limit; {
				gpa, size, _, err := k.Resolve(va)
				if err != nil {
					return fmt.Errorf("serve: vm %d prepopulate %#x: %w", i, va, err)
				}
				// Host-map every 4KB granule of the guest page: a host
				// huge-page fallback covers only one granule per call,
				// and a later walk may ask for any of them.
				gpa = addr.PageBase(gpa, size)
				for off := uint64(0); off < size.Bytes(); off += addr.Page4K.Bytes() {
					req.data = append(req.data, addr.Add(gpa, off))
				}
				va = addr.Add(addr.PageBase(va, size), size.Bytes())
			}
		}
		req.metaLo, req.metaHi = e.metaSpan(i)
		if err := e.hostApply(req); err != nil {
			return fmt.Errorf("serve: vm %d: %w", i, err)
		}
	}
	return nil
}

// metaSpan returns guest vm's metadata-region growth since the last
// call: the span of page-table/CWT frames the guest allocated that the
// host has not mapped yet. Walkers fetch guest table lines and gCWT
// entries by guest-physical address, so the span must be host-mapped
// before a snapshot referencing it is published. Owned by vm's shard
// after build.
func (e *engine) metaSpan(vm int) (lo, hi addr.GPA) {
	floor, top := e.kerns[vm].Allocator().MetaRegion()
	prev := e.metaFloor[vm]
	if prev == 0 {
		prev = top
	}
	e.metaFloor[vm] = floor
	if floor >= prev {
		return 0, 0
	}
	return floor, prev
}

// run starts the host writer, the churn shards, and the worker pool,
// then aggregates the workers' measurements. The final Publish happens
// after every worker has returned, when this goroutine is the sole
// owner again.
//
//nestedlint:writer owns the tables before workers start and after they stop
func (e *engine) run(ctx context.Context) (*Summary, error) {
	e.hostReq = make(chan *hostRequest)
	hostDone := make(chan struct{})
	go func() {
		defer close(hostDone)
		e.hostWriter()
	}()

	var shardWG sync.WaitGroup
	if e.cfg.ChurnPagesPerRound > 0 {
		for s := 0; s < e.shards; s++ {
			shardWG.Add(1)
			go func(s int) {
				defer shardWG.Done()
				e.shardLoop(s)
			}(s)
		}
	}

	if e.cfg.OpsPerWorker == 0 {
		timer := time.AfterFunc(e.cfg.Duration, func() { e.stop.Store(true) })
		defer timer.Stop()
	}

	n := e.cfg.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	tasks := make([]runner.Task[*workerResult], 0, n)
	for w := 0; w < n; w++ {
		w := w
		tasks = append(tasks, runner.Task[*workerResult]{
			Name: fmt.Sprintf("serve/worker%d", w),
			Run:  func(ctx context.Context) (*workerResult, error) { return e.worker(ctx, w) },
		})
	}

	start := time.Now()
	results := runner.Run(ctx, tasks, runner.Options{Parallelism: n})
	elapsed := time.Since(start)

	// Workers are done: stop the shards and the host writer, making
	// this goroutine the sole owner of every table again.
	e.stop.Store(true)
	shardWG.Wait()
	close(e.hostReq)
	<-hostDone
	if err := runner.FirstError(results); err != nil {
		return nil, err
	}
	for _, err := range e.shardErrs {
		if err != nil {
			return nil, err
		}
	}

	// Final publish + collect: with every reader idle, all retired
	// generations' grace periods have elapsed.
	e.hyp.ECPTs().Publish()
	for _, k := range e.kerns {
		k.ECPTs().Publish()
	}

	return e.summarize(results, elapsed), nil
}

// hostWriter is the host set's single mutator: it serves the shards'
// mapping requests in arrival order and publishes after each. It keeps
// draining after an error (the shard that sent the failing request
// exits; the others must not deadlock on an abandoned channel).
//
//nestedlint:writer the sole mutating goroutine of the host table set
func (e *engine) hostWriter() {
	for req := range e.hostReq {
		req.done <- e.hostApply(req)
	}
}

// hostApply performs one request's host-side mappings and publish.
//
//nestedlint:writer the host half of a churn round; called only from the host writer, inline in single-goroutine replay, or by build before any reader exists
func (e *engine) hostApply(req *hostRequest) error {
	for i, gpa := range req.data {
		hpa, _, _, err := e.hyp.Resolve(gpa, false)
		if err != nil {
			return fmt.Errorf("serve: host map %#x: %w", gpa, err)
		}
		if req.hpas != nil {
			req.hpas[i] = hpa
		}
	}
	for pa := req.metaLo; pa < req.metaHi; pa = addr.Add(pa, addr.Page4K.Bytes()) {
		if _, err := e.hyp.EnsureMapped(pa, true); err != nil {
			return fmt.Errorf("serve: host metadata map %#x: %w", pa, err)
		}
	}
	// The host snapshot must cover every guest-physical address the
	// requesting shard's next guest snapshot references — publish
	// before replying.
	e.hyp.ECPTs().Publish()
	return nil
}

// applyHost routes one host request: through the host-writer channel
// in live mode, inline in single-goroutine replay mode.
//
//nestedlint:writer replay's inline path mutates the host set on the scheduler goroutine, which owns every table
func (e *engine) applyHost(req *hostRequest) error {
	if e.syncHost {
		return e.hostApply(req)
	}
	e.hostReq <- req
	return <-req.done
}

// shardLoop is one churn mutator: it owns the guests with vm % shards
// == s and runs churn rounds over them until stopped. A round that
// fails (a guest out of memory) ends a wall-clock run early: Run
// returns the shard's error once the workers stop.
//
//nestedlint:writer the one mutating goroutine of its guests' table sets
func (e *engine) shardLoop(s int) {
	for !e.stop.Load() {
		for vm := s; vm < len(e.kerns); vm += e.shards {
			if err := e.churnRound(s, vm); err != nil {
				e.shardErrs[s] = err
				e.stop.Store(true)
				return
			}
		}
		time.Sleep(e.cfg.ChurnInterval)
	}
}

// churnRound runs one guest's churn round: demand-map fresh churn
// pages (unmapping old ones past the window), host-map whatever the
// mutations made reachable, publish — host snapshot first, then the
// guest that references it — and finally stamp the round's generation
// and emit its publish events.
//
//nestedlint:writer runs on vm's owning shard (or the replay scheduler), the set's single mutator
func (e *engine) churnRound(shard, vm int) error {
	k := e.kerns[vm]
	pageBytes := addr.Page4K.Bytes()
	ops := make([]churnOp, 0, 2*e.cfg.ChurnPagesPerRound)
	req := &hostRequest{done: make(chan error, 1)}
	for n := 0; n < e.cfg.ChurnPagesPerRound; n++ {
		if e.churnLive[vm] >= e.window {
			oldest := e.churnNext[vm] - e.churnLive[vm]
			va := addr.Add(churnBase, (oldest%e.span)*pageBytes)
			k.Unmap(va)
			e.churnLive[vm]--
			ops = append(ops, churnOp{va: va, data: -1})
		}
		va := addr.Add(churnBase, (e.churnNext[vm]%e.span)*pageBytes)
		// Keep the gPA resolved here: a tight replay window can unmap
		// this same address later in the round.
		gpa, _, _, err := k.Resolve(va)
		if err != nil {
			return fmt.Errorf("serve: churn vm %d touch %#x: %w", vm, va, err)
		}
		e.churnNext[vm]++
		e.churnLive[vm]++
		ops = append(ops, churnOp{va: va, data: len(req.data)})
		req.data = append(req.data, gpa)
	}
	req.hpas = make([]addr.HPA, len(req.data))
	req.metaLo, req.metaHi = e.metaSpan(vm)
	if err := e.applyHost(req); err != nil {
		return err
	}
	// The host snapshot now covers everything the guest snapshot below
	// references; publish the guest and stamp the round's generation.
	k.ECPTs().Publish()
	gen := e.vmGen[vm].Add(1)
	e.churnHead[vm].Store(e.churnNext[vm])
	e.publishes.Add(1)
	e.churnOps.Add(uint64(len(ops)))
	if e.rec != nil {
		id := trace.PackIDs(uint32(shard), uint32(vm))
		for _, op := range ops {
			ev := trace.Event{
				Space: trace.SpaceGuest, Size: addr.Page4K,
				Way: trace.WayNone, GVA: op.va, Aux: gen, Aux2: id,
			}
			if op.data >= 0 {
				ev.Kind = trace.KindMapPublish
				ev.GPA = req.data[op.data]
				ev.HPA = req.hpas[op.data]
				ev.Flag = true
			} else {
				ev.Kind = trace.KindUnmapPublish
			}
			e.rec.Emit(ev)
		}
	}
	return nil
}

// workerResult is one worker's measurements.
type workerResult struct {
	ops       []uint64 // per VM
	retries   uint64
	probes    uint64
	probeHits uint64
	// staleServes counts probes served from the injected stale TLB.
	staleServes uint64
	latency     *stats.Histogram
}

// servePage identifies one guest page in the injected stale TLB.
type servePage struct {
	vm int
	va addr.GVA
}

// workerState is one reader actor's private state, whether a live
// goroutine loops over it or Replay's scheduler steps it: its own epoch
// readers (one per guest domain plus the host's) bracket each walk, its
// own cache hierarchy and per-VM walkers keep all mutable state
// private, so the only shared reads are the published table snapshots.
type workerState struct {
	id      int
	walkers []*core.NestedECPT
	gens    []workload.Generator
	rds     []*ecpt.EpochReader
	rdHost  *ecpt.EpochReader
	rng     *vhash.RNG // probe targets
	res     *workerResult
	now     uint64
	total   uint64
	vm      int // the next step's guest, round-robin

	// staleTLB is the StaleTLB fault injector, nil unless Replay injects
	// it: a deliberately broken translation cache in front of the probe
	// lane. Successful probes fill it and nothing ever invalidates it,
	// so once the mutator unmaps a cached page the worker keeps serving
	// the dead translation — exactly what the audit must flag.
	staleTLB map[servePage]core.WalkResult
}

// newWorker builds worker id's private state.
func (e *engine) newWorker(id int) (*workerState, error) {
	w := &workerState{
		id:      id,
		walkers: make([]*core.NestedECPT, len(e.kerns)),
		gens:    make([]workload.Generator, len(e.kerns)),
		rds:     make([]*ecpt.EpochReader, len(e.kerns)),
		rdHost:  e.hostDom.NewReader(),
		rng:     vhash.NewRNG(runner.Seed(e.cfg.Seed, fmt.Sprintf("serve/probe/w%d", id))),
		res:     &workerResult{ops: make([]uint64, len(e.kerns)), latency: stats.NewHistogram(20)},
	}
	for vm := range e.kerns {
		w.rds[vm] = e.vmDoms[vm].NewReader()
	}
	mem := cachesim.NewHierarchy(e.simCfg.Hierarchy)
	for vm := range e.kerns {
		w.walkers[vm] = core.NewNestedECPT(e.simCfg.NestedECPT, mem, e.kerns[vm], e.hyp)
		opts := e.simCfg.WorkloadOpts
		opts.Seed = runner.Seed(e.cfg.Seed, fmt.Sprintf("serve/%s/w%d/vm%d", e.cfg.Workload, id, vm))
		g, err := workload.New(e.cfg.Workload, opts)
		if err != nil {
			w.close()
			return nil, err
		}
		w.gens[vm] = g
	}
	return w, nil
}

// close retires the worker's epoch readers.
func (w *workerState) close() {
	w.rdHost.Close()
	for _, rd := range w.rds {
		rd.Close()
	}
}

// worker is the live lane: it steps its state round-robin across every
// VM until the stop condition, checked once per round.
func (e *engine) worker(ctx context.Context, id int) (*workerResult, error) {
	w, err := e.newWorker(id)
	if err != nil {
		return nil, err
	}
	defer w.close()
	for {
		if err := e.step(w); err != nil {
			return nil, err
		}
		if w.vm != 0 {
			continue
		}
		if e.cfg.OpsPerWorker > 0 {
			if w.total >= e.cfg.OpsPerWorker {
				return w.res, nil
			}
		} else if e.stop.Load() {
			return w.res, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// step is the unit of reader work both the live goroutines and Replay's
// scheduler run: one workload walk against the worker's next VM, plus a
// churn probe at the configured cadence.
func (e *engine) step(w *workerState) error {
	vm := w.vm
	// Compare-and-reset, not %: the live lane runs this once per
	// translation, and a division here showed in serve_steady.
	if w.vm++; w.vm == len(e.kerns) {
		w.vm = 0
	}
	va := w.gens[vm].Next().VA
	sampled := e.rec != nil && e.cfg.TraceSample > 0 &&
		w.total%uint64(e.cfg.TraceSample) == 0
	w.rds[vm].Enter()
	w.rdHost.Enter()
	if sampled {
		e.emitTranslateBegin(w.id, vm, va)
	}
	wres, err := e.walkRetry(w.walkers[vm], w.rds[vm], w.rdHost, w.now, va, &w.res.retries)
	if sampled {
		e.emitTranslateEnd(w.id, vm, va, &wres, err == nil)
	}
	w.rdHost.Exit()
	w.rds[vm].Exit()
	if err != nil {
		return fmt.Errorf("serve: worker %d vm %d: %w", w.id, vm, err)
	}
	w.res.latency.Observe(wres.Latency)
	w.now += wres.Latency + 1
	w.res.ops[vm]++
	w.total++
	if e.cfg.ProbeEvery > 0 && w.total%uint64(e.cfg.ProbeEvery) == 0 {
		if err := e.churnProbe(w, vm); err != nil {
			return fmt.Errorf("serve: worker %d vm %d probe: %w", w.id, vm, err)
		}
	}
	return nil
}

// churnProbe walks one recently-churned address without retries. Churn
// pages are the only pages a publish can take away, so these walks are
// the staleness witnesses the serve-mode audit replays: a fault is an
// expected outcome (the page was unmapped), and what the audit proves
// is that a success never contradicts the generation window the reader
// pinned.
func (e *engine) churnProbe(w *workerState, vm int) error {
	head := e.churnHead[vm].Load()
	if head == 0 {
		return nil // nothing published into the churn lane yet
	}
	// Reach back past the live window so some probes land on pages the
	// mutator has already unmapped — successful walks there are exactly
	// the staleness the audit must rule out.
	reach := e.window + e.window/2
	if reach > head {
		reach = head
	}
	idx := head - 1 - uint64(w.rng.Intn(int(reach)))
	va := addr.Add(churnBase, (idx%e.span)*addr.Page4K.Bytes())
	key := servePage{vm: vm, va: va}

	w.rds[vm].Enter()
	w.rdHost.Enter()
	e.emitTranslateBegin(w.id, vm, va)
	// An injected stale TLB serves its hits without walking.
	wres, cached := w.staleTLB[key]
	var err error
	if !cached {
		wres, err = w.walkers[vm].Walk(w.now, va)
	}
	e.emitTranslateEnd(w.id, vm, va, &wres, err == nil)
	w.rdHost.Exit()
	w.rds[vm].Exit()
	w.res.probes++
	if err != nil {
		var nm *core.ErrNotMapped
		if errors.As(err, &nm) {
			return nil // unmapped churn page: the expected miss
		}
		return err
	}
	w.res.probeHits++
	if cached {
		w.res.staleServes++
	} else if w.staleTLB != nil {
		w.staleTLB[key] = wres
	}
	return nil
}

// emitTranslateBegin opens one audited serve translation. Call with
// the guest and host epochs already pinned: the generation loaded here
// is the window floor the audit holds the translation to.
func (e *engine) emitTranslateBegin(id, vm int, va addr.GVA) {
	if e.rec == nil {
		return
	}
	e.rec.Emit(trace.Event{
		Kind: trace.KindTranslateBegin, Walker: trace.WalkerNestedECPT,
		Space: trace.SpaceGuest, Size: trace.NoSize, Way: trace.WayNone,
		GVA: va, Aux: e.vmGen[vm].Load(),
		Aux2: trace.PackIDs(uint32(id), uint32(vm)),
	})
}

// emitTranslateEnd closes it, recording the outcome and the generation
// ceiling (loaded while still pinned).
func (e *engine) emitTranslateEnd(id, vm int, va addr.GVA, wres *core.WalkResult, ok bool) {
	if e.rec == nil {
		return
	}
	ev := trace.Event{
		Kind: trace.KindTranslateEnd, Walker: trace.WalkerNestedECPT,
		Space: trace.SpaceGuest, Size: trace.NoSize, Way: trace.WayNone,
		GVA: va, Aux: e.vmGen[vm].Load(),
		Aux2: trace.PackIDs(uint32(id), uint32(vm)), Flag: ok,
	}
	if ok {
		ev.HPA = wres.Frame
		ev.Size = wres.Size
	}
	e.rec.Emit(ev)
}

// walkRetry runs one walk, retrying transient misses: a walk that
// spans a snapshot publish can observe a torn guest/host view pair and
// miss a mapping that the next (fresh) snapshot serves. Mapped
// workload translations are never unmapped or remapped, so a retry
// against the latest snapshots always converges; maxRetries bounds
// pathological schedules.
func (e *engine) walkRetry(w *core.NestedECPT, rdG, rdHost *ecpt.EpochReader, now uint64, va addr.GVA, retries *uint64) (core.WalkResult, error) {
	for attempt := 0; ; attempt++ {
		res, err := w.Walk(now, va)
		if err == nil {
			return res, nil
		}
		var nm *core.ErrNotMapped
		if !errors.As(err, &nm) || attempt >= maxRetries {
			return res, err
		}
		*retries++
		// Re-pin both readers so the retry reads the newest snapshots
		// and no writer's reclamation is ever stalled behind a retry
		// loop.
		rdG.Exit()
		rdG.Enter()
		rdHost.Exit()
		rdHost.Enter()
	}
}

// maxRetries bounds walkRetry's retries of one walk, mirroring the
// simulator's fault-convergence bound.
const maxRetries = 64

// alignUp rounds v up to a multiple of a (a power of two).
func alignUp(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }
