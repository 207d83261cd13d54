package sim

import (
	"context"
	"errors"
	"fmt"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/baselines"
	"nestedecpt/internal/cachesim"
	"nestedecpt/internal/core"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/hypervisor"
	"nestedecpt/internal/kernel"
	"nestedecpt/internal/stats"
	"nestedecpt/internal/tlbsim"
	"nestedecpt/internal/trace"
	"nestedecpt/internal/workload"
)

// Machine is one fully-wired simulated system.
type Machine struct {
	cfg    Config
	key    SetupKey
	gen    workload.Generator
	kern   *kernel.Kernel
	hyp    *hypervisor.Hypervisor // nil for native designs
	tlb    *tlbsim.TLB
	mem    *cachesim.Hierarchy
	walker core.Walker
	// corunners generate the other cores' access streams; the paper
	// runs each application on all 8 cores of the simulated server,
	// and their shared-L3/DRAM traffic is what keeps page-table lines
	// from parking in the last-level cache.
	corunners []workload.Generator
	// remote is step's co-runner scratch: one address per co-runner.
	remote []addr.HPA

	// cycles is the core clock, tracked fractionally so issue-width
	// division does not lose time.
	cycles float64

	// populated records that Prepopulate completed, started that
	// RunContext went past it: a machine is a fork template only in
	// between.
	populated, started bool

	// memo backs resolve, the functional side's single entry point.
	memo memo

	// rec, when set, receives walk-trace events for the measured phase.
	rec *trace.Recorder

	// lanes, vas, outs and errs are step's scratch, sized once for the
	// widest step the run issues so the measure loop stays allocation-
	// free: lanes holds the step's accesses, and vas, outs and errs are
	// the walker's arguments for its unique TLB misses.
	lanes []lane
	vas   []addr.GVA
	outs  []core.WalkResult
	errs  []error

	// res is its own allocation: a caller keeping the *Result Run
	// returns (a sweep keeps every run's) must not keep the machine and
	// its page tables alive with it.
	res *Result
}

// lane is one access in flight through a pipeline step.
type lane struct {
	acc   workload.Access
	frame addr.HPA
	size  addr.PageSize
	// walk indexes the walk (in Machine.vas/outs) that services the
	// lane's TLB miss, -1 on a hit: secondary misses to a page already
	// in flight coalesce onto the primary's walk, as MSHR secondary
	// misses do.
	walk int
}

// SetupKey is everything a machine's pre-populated state is built
// from: the workload's address space and the configs of the guest
// kernel and the hypervisor managing it. NewMachine builds the kernel
// and hypervisor from the key's own configs, so two configs with equal
// keys pre-populate identical kernels, hypervisors and memos, whatever
// walker, TLB, caches or run lengths they go on to simulate — the
// technique matrix of Figure 9 and the §9.4 STC sweep run over one
// address space. A key is comparable: it can index a map.
type SetupKey struct {
	Workload     string
	WorkloadOpts workload.Options
	Kernel       kernel.Config
	// Hypervisor is zero for native designs.
	Hypervisor hypervisor.Config
}

// SetupOf returns cfg's set-up key and whether runs of cfg may share a
// set-up: whether a Fork of a populated machine with the same key runs
// exactly as a machine NewMachine built for cfg. It fails where
// NewMachine would fail to size cfg.
func SetupOf(cfg Config) (SetupKey, bool, error) {
	gen, err := workload.New(cfg.Workload, cfg.WorkloadOpts)
	if err != nil {
		return SetupKey{}, false, err
	}
	key, err := setupOf(&cfg, gen)
	if err != nil {
		return SetupKey{}, false, err
	}
	return key, cfg.Design.sharesSetup(), nil
}

// sharesSetup reports whether the design's walker leaves the set-up
// alone. POM-TLB and flat nested tables reserve their host structures
// from the host allocator when the walker is built, before
// pre-population, so a machine of theirs neither forks into another
// design's run nor starts from another design's set-up.
func (d Design) sharesSetup() bool {
	return d != DesignPOMTLB && d != DesignFlatNested
}

// setupOf normalizes cfg for gen's footprint and derives its key.
func setupOf(cfg *Config, gen workload.Generator) (SetupKey, error) {
	if err := cfg.normalize(gen.Footprint()); err != nil {
		return SetupKey{}, err
	}
	guestECPT := ecpt.ScaledSetConfig(false, cfg.WorkloadOpts.Scale)
	hostECPT := ecpt.ScaledSetConfig(true, cfg.WorkloadOpts.Scale)
	if cfg.ECPTWays > 0 {
		for i := range guestECPT.PerSize {
			guestECPT.PerSize[i].Ways = cfg.ECPTWays
			hostECPT.PerSize[i].Ways = cfg.ECPTWays
		}
	}
	key := SetupKey{
		Workload:     cfg.Workload,
		WorkloadOpts: cfg.WorkloadOpts,
		Kernel: kernel.Config{
			GuestMemBytes:       cfg.GuestMemBytes,
			THP:                 cfg.THP,
			BuildRadix:          cfg.Design.UsesGuestRadix(),
			BuildECPT:           cfg.Design.UsesGuestECPT(),
			ECPT:                guestECPT,
			Seed:                cfg.WorkloadOpts.Seed + 101,
			HugePageFailureRate: cfg.HugePageFailureRate,
		},
	}
	if cfg.Design.Nested() {
		key.Hypervisor = hypervisor.Config{
			HostMemBytes:        cfg.HostMemBytes,
			THP:                 cfg.THP,
			BuildRadix:          !cfg.Design.UsesHostECPT(),
			BuildECPT:           cfg.Design.UsesHostECPT(),
			ECPT:                hostECPT,
			Seed:                cfg.WorkloadOpts.Seed + 202,
			HugePageFailureRate: cfg.HugePageFailureRate,
		}
	}
	return key, nil
}

// NewMachine builds the system for cfg without running it.
func NewMachine(cfg Config) (*Machine, error) {
	gen, err := workload.New(cfg.Workload, cfg.WorkloadOpts)
	if err != nil {
		return nil, err
	}
	key, err := setupOf(&cfg, gen)
	if err != nil {
		return nil, err
	}
	kern, err := kernel.New(key.Kernel)
	if err != nil {
		return nil, err
	}
	for _, v := range gen.VMAs() {
		kern.DefineVMA(v)
	}
	var hyp *hypervisor.Hypervisor
	if cfg.Design.Nested() {
		if hyp, err = hypervisor.New(key.Hypervisor); err != nil {
			return nil, err
		}
	}
	return newMachine(cfg, key, gen, kern, hyp, newMemo(gen.VMAs(), key.Kernel.THP))
}

// Fork builds a machine for cfg over a copy-on-write fork of m's
// pre-populated set-up: its own generator, co-runners, TLB, caches,
// walker, scratch and Result, and forks of m's kernel, hypervisor and
// memo. The fork runs exactly as NewMachine(cfg) would, at the cost of
// a copy instead of a pre-population; m and the fork never see each
// other's paging. m must be pre-populated and not yet run, and cfg must
// have m's set-up key, with a design SetupOf allows to share it.
func (m *Machine) Fork(cfg Config) (*Machine, error) {
	if !m.populated || m.started {
		return nil, errors.New("sim: fork of a machine that is not freshly pre-populated")
	}
	gen, err := workload.New(cfg.Workload, cfg.WorkloadOpts)
	if err != nil {
		return nil, err
	}
	key, err := setupOf(&cfg, gen)
	if err != nil {
		return nil, err
	}
	if key != m.key {
		return nil, fmt.Errorf("sim: %v/%s does not have the set-up of the %v/%s machine", cfg.Design, cfg.Workload, m.cfg.Design, m.cfg.Workload)
	}
	if !cfg.Design.sharesSetup() || !m.cfg.Design.sharesSetup() {
		return nil, fmt.Errorf("sim: a %v machine cannot share a set-up with a %v run", m.cfg.Design, cfg.Design)
	}
	kern, err := m.kern.Fork()
	if err != nil {
		return nil, err
	}
	var hyp *hypervisor.Hypervisor
	if m.hyp != nil {
		if hyp, err = m.hyp.Fork(); err != nil {
			return nil, err
		}
	}
	f, err := newMachine(cfg, key, gen, kern, hyp, m.memo.fork())
	if err != nil {
		return nil, err
	}
	f.populated = true
	return f, nil
}

// newMachine wires the per-run parts — TLB, caches, walker, co-runners,
// scratch — around a normalized cfg's set-up.
func newMachine(cfg Config, key SetupKey, gen workload.Generator, kern *kernel.Kernel, hyp *hypervisor.Hypervisor, mm memo) (m *Machine, err error) {
	m = &Machine{cfg: cfg, key: key, gen: gen, kern: kern, hyp: hyp, memo: mm, res: new(Result)}
	m.tlb = tlbsim.New(cfg.TLB)
	m.mem = cachesim.NewHierarchy(cfg.Hierarchy)

	switch cfg.Design {
	case DesignRadix:
		m.walker = core.NewNativeRadix(cfg.RadixWalk, m.mem, m.kern)
	case DesignECPT:
		m.walker = core.NewNativeECPT(cfg.NativeECPT, m.mem, m.kern)
	case DesignNestedRadix:
		m.walker = core.NewNestedRadix(cfg.RadixWalk, m.mem, m.kern, m.hyp)
	case DesignNestedECPT:
		m.walker = core.NewNestedECPT(cfg.NestedECPT, m.mem, m.kern, m.hyp)
	case DesignNestedHybrid:
		m.walker = core.NewHybrid(cfg.Hybrid, m.mem, m.kern, m.hyp)
	case DesignAgileIdeal:
		m.walker = baselines.NewAgileIdeal(m.mem, m.kern, m.hyp)
	case DesignPOMTLB:
		m.walker, err = baselines.NewPOMTLB(baselines.DefaultPOMTLBConfig(), m.mem, m.kern, m.hyp)
	case DesignFlatNested:
		m.walker, err = baselines.NewFlatNested(m.mem, m.kern, m.hyp)
	default:
		return nil, fmt.Errorf("sim: unhandled design %v", cfg.Design)
	}
	if err != nil {
		return nil, err
	}

	if cfg.BatchMSHRs > 0 {
		type mshrSetter interface{ SetBatchMSHRs(int) }
		if s, ok := m.walker.(mshrSetter); ok {
			s.SetBatchMSHRs(cfg.BatchMSHRs)
		}
	}

	for i := 1; i < cfg.Cores; i++ {
		opts := cfg.WorkloadOpts
		opts.Seed += uint64(i) * 7919
		g, err := workload.New(cfg.Workload, opts)
		if err != nil {
			return nil, err
		}
		m.corunners = append(m.corunners, g)
	}
	m.remote = make([]addr.HPA, len(m.corunners))

	// BatchSize is outside input: size the scratch for the widest step
	// this run can reach, not for the width it asked for.
	width := max(int(min(uint64(cfg.BatchSize), cfg.MeasureAccesses)), 1)
	m.lanes = make([]lane, width)
	m.vas = make([]addr.GVA, 0, width)
	m.outs = make([]core.WalkResult, width)
	m.errs = make([]error, width)

	m.res.Config = cfg
	m.res.WalkLatency = stats.NewHistogram(20)
	return m, nil
}

// EffectiveConfig returns the machine's configuration after
// normalization and structure scaling — what the simulation actually
// models.
func (m *Machine) EffectiveConfig() Config { return m.cfg }

// Walker exposes the machine's walk engine (for characterization).
func (m *Machine) Walker() core.Walker { return m.walker }

// Kernel exposes the guest kernel.
func (m *Machine) Kernel() *kernel.Kernel { return m.kern }

// Hypervisor exposes the hypervisor (nil for native designs).
func (m *Machine) Hypervisor() *hypervisor.Hypervisor { return m.hyp }

// SetRecorder attaches a trace recorder to the machine. Tracing
// activates at the start of the measured phase — after pre-population
// and warm-up — so the trace captures steady-state walks plus the
// structural events (elastic resizes, adaptive toggles) they trigger,
// not the bulk mapping work. Call before Run; a nil recorder leaves
// tracing disabled.
func (m *Machine) SetRecorder(r *trace.Recorder) { m.rec = r }

// wireRecorder threads the recorder through the walker and the live
// page tables. Walkers that do not support tracing (the idealized
// baselines) are silently left untraced.
func (m *Machine) wireRecorder() {
	type recorderSetter interface{ SetRecorder(*trace.Recorder) }
	if s, ok := m.walker.(recorderSetter); ok {
		s.SetRecorder(m.rec)
	}
	if m.kern.ECPTs() != nil {
		m.kern.ECPTs().SetRecorder(m.rec)
	}
	if m.hyp != nil && m.hyp.ECPTs() != nil {
		m.hyp.ECPTs().SetRecorder(m.rec)
	}
}

// now returns the current core cycle.
func (m *Machine) now() uint64 { return uint64(m.cycles) }

// prefault makes sure va's data page is mapped end to end, charging
// fault costs. Page-table and CWT pages are demand-mapped through the
// walker's nested-fault path instead.
func (m *Machine) prefault(va addr.GVA) error {
	_, _, guestFault, hostFault, err := m.resolve(va)
	if guestFault {
		m.res.GuestFaults++
		m.cycles += float64(m.cfg.Timing.PageFaultCycles)
	}
	if hostFault {
		m.res.HostFaults++
		m.cycles += float64(m.cfg.Timing.PageFaultCycles)
	}
	return err
}

// maxWalkFaults is how many nested faults walk services for one access
// before calling the walk divergent.
const maxWalkFaults = 64

// walk runs the configured walker, servicing nested faults on guest
// page-table pages (EPT violations in real hardware) and retrying.
func (m *Machine) walk(va addr.GVA) (core.WalkResult, error) {
	for attempt := 0; ; attempt++ {
		res, err := m.walker.Walk(m.now(), va)
		if err == nil {
			return res, nil
		}
		var nm *core.ErrNotMapped
		if !errors.As(err, &nm) {
			return res, err
		}
		if attempt > maxWalkFaults {
			return res, fmt.Errorf("sim: walk for %#x cannot converge: %w", va, err)
		}
		if err := m.serviceFault(nm); err != nil {
			return res, err
		}
	}
}

// serviceFault charges fault-entry cycles and repairs the mapping an
// ErrNotMapped walk error reported, so the walk can be retried.
func (m *Machine) serviceFault(nm *core.ErrNotMapped) error {
	m.cycles += float64(m.cfg.Timing.PageFaultCycles)
	if nm.Space == "host" {
		if m.hyp == nil {
			return nm
		}
		m.res.HostFaults++
		_, err := m.hyp.EnsureMapped(nm.GPA, nm.PageTable)
		return err
	}
	m.res.GuestFaults++
	_, _, err := m.kern.Touch(nm.GVA)
	return err
}

// step runs the next n application accesses through the machine as
// one pipeline step: issue, TLB probe, walk, fill, data access. At
// n = 1 that is one access at a time. At n > 1 the lanes are in flight
// together: every probe precedes every fill, so a second access to a
// page that missed misses too and rides the first one's walk instead of
// TLB-hitting, and the core stalls for the walks' overlapped critical
// path instead of their sum. batched says which walk engine the phase
// uses (see walkMisses); functional behaviour per lane is the same. A
// data access that reaches the L3 brings one co-runner group with it:
// every co-runner's next address is resolved first, then each goes to
// the shared L3 in co-runner order, so the memo loads overlap instead
// of each waiting on the previous one's tag scan.
func (m *Machine) step(measure, batched bool, n int) error {
	t := &m.cfg.Timing
	lanes := m.lanes[:n]

	// Issue, in program order: the next access, the non-memory
	// instructions executed since the last one, and the demand fault.
	for i := range lanes {
		acc := m.gen.Next()
		lanes[i].acc = acc
		m.cycles += float64(acc.Gap) / t.IssueWidth
		if err := m.prefault(acc.VA); err != nil {
			return err
		}
	}

	// TLB probe: every lane, the misses coalesced into unique walks by
	// 4KB page — the MSHR merge real hardware performs, and what keeps
	// a read-modify-write pair inside one step from walking twice.
	vas := m.vas[:0]
	for i := range lanes {
		l := &lanes[i]
		tr := m.tlb.Access(l.acc.VA)
		m.cycles += float64(tr.Latency)
		l.frame, l.size, l.walk = tr.Frame, tr.Size, -1
		if tr.Hit() {
			continue
		}
		vpn := addr.VPN(l.acc.VA, addr.Page4K)
		w := 0
		for w < len(vas) && addr.VPN(vas[w], addr.Page4K) != vpn {
			w++
		}
		if w == len(vas) {
			vas = append(vas, l.acc.VA)
		}
		l.walk = w
	}

	if len(vas) > 0 {
		// Walk the unique misses.
		outs := m.outs[:len(vas)]
		if err := m.walkMisses(measure, batched, vas, outs); err != nil {
			return err
		}

		// Fill and account.
		for w := range outs {
			wres := &outs[w]
			m.tlb.Fill(vas[w], wres.Size, wres.Frame)
			if measure {
				m.res.Walks++
				m.res.WalkCycles += wres.Latency
				m.res.MMUBusyCycles += wres.Latency + wres.BackgroundCycles
				m.res.MMUAccesses += uint64(wres.Accesses + wres.BackgroundAccesses)
				m.res.WalkLatency.Observe(wres.Latency)
			}
		}
		for i := range lanes {
			if l := &lanes[i]; l.walk >= 0 {
				l.frame, l.size = outs[l.walk].Frame, outs[l.walk].Size
			}
		}
	}

	// The data accesses themselves, in program order.
	for i := range lanes {
		l := &lanes[i]
		pa := addr.Translate(l.frame, l.acc.VA, l.size)
		lat, served := m.mem.Access(m.now(), pa, cachesim.SourceCPU)
		if l.acc.Write {
			m.cycles += float64(lat) * t.ExposedWriteFrac
		} else {
			m.cycles += float64(lat) * t.ExposedReadFrac
		}

		// Co-runner interference: when this core's access reached the
		// shared L3, the other cores are statistically doing the same, so
		// inject one shared-level access per co-runner (their private
		// caches filter the rest). Resolving the whole group first
		// changes no order: resolve touches no cache state and no
		// cycles pass.
		if served >= cachesim.ServedL3 {
			for j, g := range m.corunners {
				hpa, _, _, _, err := m.resolve(g.Next().VA)
				if err != nil {
					return err
				}
				m.remote[j] = hpa
			}
			for _, hpa := range m.remote {
				m.mem.AccessRemote(m.now(), hpa)
			}
		}

		if measure {
			m.res.Instructions += l.acc.Gap + 1 // the access is an instruction too
			m.res.MemAccesses++
		}
	}
	return nil
}

// walkMisses walks a step's unique TLB misses into outs and charges the
// exposed stall. It is the one place the two kinds of phase differ. An
// unbatched phase walks each miss on its own, retried across nested
// faults. A batched phase issues them as one Walker.WalkBatch, so they
// overlap in the MSHR model and the core stalls for the batch's
// critical path; a faulted lane replays sequentially after fault
// service, as hardware would, its latency charged on top of that path
// (faults are rare in steady state, so the serialization is
// negligible).
func (m *Machine) walkMisses(measure, batched bool, vas []addr.GVA, outs []core.WalkResult) error {
	frac := m.cfg.Timing.ExposedWalkFrac
	if !batched {
		for w, va := range vas {
			var err error
			if outs[w], err = m.walk(va); err != nil {
				return err
			}
			m.cycles += float64(outs[w].Latency) * frac
		}
		return nil
	}

	errs := m.errs[:len(vas)]
	batchLat := m.walker.WalkBatch(m.now(), vas, outs, errs)
	m.cycles += float64(batchLat) * frac
	for w, werr := range errs {
		if werr == nil {
			continue
		}
		var nm *core.ErrNotMapped
		if !errors.As(werr, &nm) {
			return werr
		}
		if err := m.serviceFault(nm); err != nil {
			return err
		}
		var err error
		if outs[w], err = m.walk(vas[w]); err != nil {
			return err
		}
		m.cycles += float64(outs[w].Latency) * frac
	}
	if measure {
		m.res.Batches++
		m.res.BatchWalkCycles += batchLat
	}
	return nil
}

// Prepopulate installs the complete guest and host mappings for every
// VMA before simulation, mirroring the paper's methodology: the region
// of interest runs in steady state with mappings already established
// (§7: faults are rare; §9.4 uses "the complete mappings of the
// applications"). It populates once: a call after one that completed
// returns at once, so Run on an already-populated machine does not
// re-walk its VMAs. A page the caller unmaps afterwards is repaired by
// step's demand paging, timed as the fault it is, after resolve has
// dropped every cached copy of the old translation.
func (m *Machine) Prepopulate() error {
	if m.populated {
		return nil
	}
	for _, v := range m.gen.VMAs() {
		limit := addr.Add(v.Base, v.Size)
		for va := v.Base; va < limit; {
			_, size, _, _, err := m.resolve(va)
			if err != nil {
				return fmt.Errorf("sim: prepopulate %#x: %w", va, err)
			}
			va = addr.Add(va, size.Bytes())
		}
	}
	m.populated = true
	return nil
}

// Run executes pre-population, warm-up, then measurement, and returns
// the results.
func (m *Machine) Run() (*Result, error) {
	return m.RunContext(context.Background())
}

// ctxCheckInterval is how many accesses run between context checks: a
// power of two large enough to keep the check off the hot path, small
// enough that cancellation and per-run timeouts bite within
// milliseconds.
const ctxCheckInterval = 1 << 12

// RunContext is Run honoring ctx: the simulation stops with ctx's
// error at its next checkpoint once ctx is cancelled, so a sweep
// engine can bound and abort individual runs.
func (m *Machine) RunContext(ctx context.Context) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := m.Prepopulate(); err != nil {
		return nil, err
	}
	m.started = true
	// Warm-up is one access at a time on every machine: it exists to
	// fill the caches, TLBs and tables, not to be timed.
	if err := m.phase(ctx, "warm-up", m.cfg.WarmupAccesses, 1, false); err != nil {
		return nil, err
	}
	m.resetStats()
	if m.rec != nil {
		m.wireRecorder()
	}

	startCycles := m.cycles
	if err := m.phase(ctx, "measured", m.cfg.MeasureAccesses, max(m.cfg.BatchSize, 1), true); err != nil {
		return nil, err
	}
	m.res.Cycles = uint64(m.cycles - startCycles)
	m.rec.Flush()

	m.collect()
	return m.res, nil
}

// phase runs total accesses through step, width at a time (the last
// step takes what is left), checking ctx every ctxCheckInterval
// accesses. A phase wider than one access is batched, its tail step
// included.
func (m *Machine) phase(ctx context.Context, name string, total uint64, width int, measure bool) error {
	for i, check := uint64(0), uint64(0); i < total; {
		if i >= check {
			if err := ctx.Err(); err != nil {
				return err
			}
			check = i + ctxCheckInterval
		}
		n := min(uint64(width), total-i)
		if err := m.step(measure, width > 1, int(n)); err != nil {
			return fmt.Errorf("sim: %s access %d: %w", name, i, err)
		}
		i += n
	}
	return nil
}

// resetStats clears warm-up statistics while keeping all cache, TLB
// and table state hot.
func (m *Machine) resetStats() {
	m.mem.ResetStats()
	m.tlb.ResetStats()
	m.res.GuestFaults = 0
	m.res.HostFaults = 0
	type statsResetter interface{ ResetStats() }
	if r, ok := m.walker.(statsResetter); ok {
		r.ResetStats()
	}
}

// collect gathers end-of-run statistics into the result.
func (m *Machine) collect() {
	m.res.L1TLB = m.tlb.L1Stats()
	m.res.L2TLB = m.tlb.L2Stats()
	m.res.L1Stats, m.res.L2Stats, m.res.L3Stats = m.mem.Stats()
	m.res.DRAM = m.mem.DRAMStats()
	m.res.FootprintBytes = m.gen.Footprint()

	m.res.GuestPTBytes = m.kern.PageTableMemoryBytes()
	if m.hyp != nil {
		m.res.HostPTBytes = m.hyp.PageTableMemoryBytes()
	}
	if m.kern.ECPTs() != nil {
		m.res.PTEntries += m.kern.ECPTs().Entries()
	} else if m.kern.Radix() != nil {
		m.res.PTEntries += m.kern.Radix().Entries()
	}
	if m.hyp != nil {
		if m.hyp.ECPTs() != nil {
			m.res.PTEntries += m.hyp.ECPTs().Entries()
		} else if m.hyp.Radix() != nil {
			m.res.PTEntries += m.hyp.Radix().Entries()
		}
	}

	switch w := m.walker.(type) {
	case *core.NestedECPT:
		st := w.Stats()
		m.res.NestedECPT = &st
	case *core.NativeECPT:
		st := w.Stats()
		m.res.NativeECPT = &st
	case *core.Hybrid:
		st := w.Stats()
		m.res.Hybrid = &st
	}
}

// Run builds the machine for cfg and runs it to completion.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext builds the machine for cfg and runs it to completion,
// honoring ctx's cancellation and deadline.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return RunTraced(ctx, cfg, nil)
}

// RunTraced is RunContext with a walk-trace recorder attached: the
// measured phase emits events into rec, which is flushed before the
// result returns. A nil rec runs untraced.
func RunTraced(ctx context.Context, cfg Config, rec *trace.Recorder) (*Result, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	m.SetRecorder(rec)
	return m.RunContext(ctx)
}
