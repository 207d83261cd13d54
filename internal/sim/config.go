// Package sim is the full-system driver: it wires a workload's access
// stream through the TLBs, the configured page-walk engine, and the
// cache hierarchy, and accounts cycles the way the paper's evaluation
// does (execution, translation stalls, MMU busy cycles, per-kilo-
// instruction rates).
package sim

import (
	"fmt"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/cachesim"
	"nestedecpt/internal/core"
	"nestedecpt/internal/tlbsim"
	"nestedecpt/internal/workload"
)

// Design enumerates the page-table architectures of Table 1 plus the
// §9.6 comparison designs.
type Design int

// The modelled designs.
const (
	// DesignRadix is native radix paging (baseline "Radix").
	DesignRadix Design = iota
	// DesignECPT is native elastic cuckoo page tables ("ECPTs").
	DesignECPT
	// DesignNestedRadix is two-dimensional radix paging ("Nested Radix").
	DesignNestedRadix
	// DesignNestedECPT is the paper's contribution ("Nested ECPTs");
	// Config.Tech selects Plain vs Advanced vs partial technique sets.
	DesignNestedECPT
	// DesignNestedHybrid is the §6 migration design ("Nested Hybrid").
	DesignNestedHybrid
	// DesignAgileIdeal is the idealized Agile Paging of §9.6.
	DesignAgileIdeal
	// DesignPOMTLB is the part-of-memory TLB of §9.6.
	DesignPOMTLB
	// DesignFlatNested is flat nested page tables of §9.6.
	DesignFlatNested
	numDesigns
)

// String names the design following Table 1.
func (d Design) String() string {
	switch d {
	case DesignRadix:
		return "Radix"
	case DesignECPT:
		return "ECPTs"
	case DesignNestedRadix:
		return "Nested Radix"
	case DesignNestedECPT:
		return "Nested ECPTs"
	case DesignNestedHybrid:
		return "Nested Hybrid"
	case DesignAgileIdeal:
		return "Ideal Agile"
	case DesignPOMTLB:
		return "POM-TLB"
	case DesignFlatNested:
		return "Flat Nested"
	}
	return fmt.Sprintf("Design(%d)", int(d))
}

// Nested reports whether the design runs under a hypervisor.
func (d Design) Nested() bool {
	return d != DesignRadix && d != DesignECPT
}

// UsesGuestECPT reports whether the guest kernel maintains ECPTs.
func (d Design) UsesGuestECPT() bool {
	return d == DesignECPT || d == DesignNestedECPT
}

// UsesGuestRadix reports whether the guest kernel maintains radix
// tables.
func (d Design) UsesGuestRadix() bool {
	return !d.UsesGuestECPT()
}

// UsesHostECPT reports whether the hypervisor maintains ECPTs.
func (d Design) UsesHostECPT() bool {
	return d == DesignNestedECPT || d == DesignNestedHybrid
}

// TimingConfig is the core timing model (DESIGN.md §5): a 4-issue OoO
// core approximated by exposing configurable fractions of memory and
// translation latency.
type TimingConfig struct {
	// IssueWidth is the sustained non-memory IPC.
	IssueWidth float64
	// ExposedReadFrac / ExposedWriteFrac are the fractions of a data
	// access's latency the core actually stalls for (reads partially
	// hide behind MLP; writes drain through store buffers).
	ExposedReadFrac  float64
	ExposedWriteFrac float64
	// ExposedWalkFrac is the fraction of page-walk latency exposed; a
	// L2-TLB-missing load blocks its dependents, so this is ~1.
	ExposedWalkFrac float64
	// PageFaultCycles charges OS/hypervisor entry per fault (rare in
	// steady state, §7).
	PageFaultCycles uint64
}

// DefaultTimingConfig returns the evaluation timing model.
func DefaultTimingConfig() TimingConfig {
	return TimingConfig{
		IssueWidth:       4,
		ExposedReadFrac:  0.35,
		ExposedWriteFrac: 0.05,
		ExposedWalkFrac:  1.0,
		PageFaultCycles:  1500,
	}
}

// Config describes one simulation run: a (design, workload)
// configuration of Figure 9.
type Config struct {
	Design Design
	// THP enables transparent huge pages: for the guest in native
	// designs, for both guest and host in nested ones (§8: "nested THP
	// enables THP for both").
	THP bool
	// Tech selects Nested-ECPT techniques (ignored by other designs).
	Tech core.Techniques

	Workload     string
	WorkloadOpts workload.Options

	// WarmupAccesses / MeasureAccesses mirror the paper's 50M warm-up
	// and 500M measured instructions, expressed in memory accesses
	// (the simulator's unit of work).
	WarmupAccesses  uint64
	MeasureAccesses uint64

	// GuestMemBytes / HostMemBytes size the physical address spaces;
	// zero derives them from the workload footprint.
	GuestMemBytes uint64
	HostMemBytes  uint64
	// HugePageFailureRate models physical fragmentation on both sides:
	// each 2MB allocation fails with this probability and falls back to
	// 4KB pages. A negative value means "exactly zero"; zero takes the
	// default (8%, the imperfect THP coverage real systems see, §10).
	HugePageFailureRate float64

	TLB tlbsim.Config
	// TLBScale divides TLB entry counts to match the scaled workload
	// footprints (preserves TLB pressure; see tlbsim.Config.Scaled).
	// Zero derives it from WorkloadOpts.Scale.
	TLBScale int
	// CacheScale divides cache capacities to match the scaled
	// footprints (preserves the page-table-to-cache pressure ratio).
	// Zero derives it from WorkloadOpts.Scale.
	CacheScale int
	// Cores is the core count of the modelled machine (Table 2: 8).
	// The simulator runs one core's access stream; Cores corrects the
	// shared-L3 capacity to the per-core slice the paper's cores see.
	Cores     int
	Hierarchy cachesim.HierarchyConfig
	Timing    TimingConfig

	// BatchSize issues this many application accesses per pipeline
	// step of the measured phase; the page walks their L2 TLB misses
	// trigger go through Walker.WalkBatch and overlap in the MSHR
	// model. Zero or one is the same step at width 1: one access at a
	// time, each miss walked by Walker.Walk.
	BatchSize int
	// BatchMSHRs bounds how many of a batch's walker memory probes
	// may be in flight at once (miss-status holding registers); zero
	// takes cachesim.DefaultWalkMSHRs, one serializes the batch.
	BatchMSHRs int

	// ECPTWays overrides the paper's d=3 cuckoo ways in every elastic
	// table (guest and host), for the ways-ablation study; zero keeps 3.
	ECPTWays int

	// NestedECPT / NativeECPT / RadixWalk / Hybrid / POMTLB configure
	// the respective walkers; zero values take the Table 2 defaults.
	NestedECPT core.NestedECPTConfig
	NativeECPT core.NativeECPTConfig
	RadixWalk  core.RadixWalkConfig
	Hybrid     core.HybridConfig
}

// DefaultConfig returns a ready-to-run configuration for the given
// design and workload.
func DefaultConfig(design Design, app string, thp bool) Config {
	cfg := Config{
		Design:          design,
		THP:             thp,
		Tech:            core.AdvancedTechniques(),
		Workload:        app,
		WorkloadOpts:    workload.DefaultOptions(),
		WarmupAccesses:  200_000,
		MeasureAccesses: 1_000_000,
		TLB:             tlbsim.DefaultConfig(),
		Hierarchy:       cachesim.DefaultHierarchyConfig(),
		Timing:          DefaultTimingConfig(),
		NativeECPT:      core.DefaultNativeECPTConfig(),
		RadixWalk:       core.DefaultRadixWalkConfig(),
		Hybrid:          core.DefaultHybridConfig(),
	}
	cfg.NestedECPT = core.DefaultNestedECPTConfig(cfg.Tech)
	return cfg
}

// Normalized returns the config with every derived field filled in for
// a workload of the given footprint — the same sizing NewMachine does
// internally (memory provisioning, TLB/cache scaling, fragmentation
// defaults). internal/serve uses it to provision multi-VM guests
// exactly like the single-VM simulator would.
func (c Config) Normalized(footprint uint64) (Config, error) {
	if err := c.normalize(footprint); err != nil {
		return Config{}, err
	}
	return c, nil
}

// maxECPTWays bounds Config.ECPTWays. A cold nested walk faults once a
// table line it probes — one a way a page size, and a handful for the
// CWTs and the data page — and Machine.walk gives up after
// maxWalkFaults: 16 ways is 54 faults, 20 would not converge.
const maxECPTWays = 16

func (c *Config) normalize(footprint uint64) error {
	c.WorkloadOpts = c.WorkloadOpts.Normalized()
	if c.Workload == "" {
		return fmt.Errorf("sim: empty workload name")
	}
	if c.MeasureAccesses == 0 {
		return fmt.Errorf("sim: zero measured accesses")
	}
	if c.Design < 0 || c.Design >= numDesigns {
		return fmt.Errorf("sim: invalid design %d", int(c.Design))
	}
	// Physical memory must hold the data plus page tables plus slack
	// for huge-page alignment waste.
	if c.GuestMemBytes == 0 {
		c.GuestMemBytes = footprint*2 + (256 << 20)
	}
	if c.HostMemBytes == 0 {
		c.HostMemBytes = c.GuestMemBytes*2 + (256 << 20)
	}
	if c.Timing.IssueWidth <= 0 {
		c.Timing = DefaultTimingConfig()
	}
	if c.HugePageFailureRate == 0 {
		c.HugePageFailureRate = 0.08
	} else if c.HugePageFailureRate < 0 {
		c.HugePageFailureRate = 0
	}
	if c.TLB.L1.PerSize[0].Entries == 0 {
		c.TLB = tlbsim.DefaultConfig()
	}
	if c.TLBScale == 0 {
		// The TLB shrinks by half the footprint reduction: scaled-down
		// working sets are also proportionally hotter, and this pairing
		// reproduces the paper's L2 TLB miss-rate regime (validated in
		// the sim tests).
		c.TLBScale = int(c.WorkloadOpts.Scale / 2)
	}
	c.TLB = c.TLB.Scaled(c.TLBScale)
	if c.Hierarchy.L1.SizeBytes == 0 {
		c.Hierarchy = cachesim.DefaultHierarchyConfig()
	}
	if c.CacheScale == 0 {
		// Caches scale by twice the footprint factor: what decides
		// whether a page-table line survives between walks is the
		// ratio of table working set to cache capacity, and the
		// radix tables' mid levels shrink faster than linearly with
		// the footprint (validated against the paper's walk-latency
		// regime in the sim tests).
		c.CacheScale = int(c.WorkloadOpts.Scale) * 2
	}
	for i, ways := range [...]int{c.Hierarchy.L1.Ways, c.Hierarchy.L2.Ways, c.Hierarchy.L3.Ways} {
		if ways <= 0 {
			return fmt.Errorf("sim: Hierarchy.L%d.Ways is %d, want at least 1", i+1, ways)
		}
	}
	if c.Cores == 0 {
		c.Cores = 8
	}
	// One generator a co-runner and one L3 share a core: a negative
	// count, or one that leaves a core less than a line of the L3, is
	// not a machine.
	if l3Lines := c.Hierarchy.L3.SizeBytes / addr.CacheLineBytes; c.Cores < 0 || l3Lines < uint64(c.Cores) {
		return fmt.Errorf("sim: Cores is %d, want 1 to %d (one %d-byte line of the %d-byte L3 each)",
			c.Cores, l3Lines, addr.CacheLineBytes, c.Hierarchy.L3.SizeBytes)
	}
	if c.ECPTWays > maxECPTWays {
		return fmt.Errorf("sim: ECPTWays is %d, want at most %d", c.ECPTWays, maxECPTWays)
	}
	if c.BatchSize < 0 {
		c.BatchSize = 0
	}
	if c.BatchMSHRs < 0 {
		c.BatchMSHRs = 0
	}
	// The L3 is shared: the paper runs the application on all 8 cores,
	// so one core sees 1/Cores of the capacity, plus the contention the
	// co-runners generate. Scaled rounds the share to a valid geometry.
	c.Hierarchy.L3.SizeBytes /= uint64(c.Cores)
	c.Hierarchy = c.Hierarchy.Scaled(c.CacheScale)
	c.scaleMMUCaches()
	if c.NestedECPT.STCEntries == 0 {
		c.NestedECPT = core.DefaultNestedECPTConfig(c.Tech)
	} else {
		// The walker config must match the technique selection.
		c.NestedECPT.Tech = c.Tech
	}
	if c.NativeECPT.CWC == (core.CWCConfig{}) {
		c.NativeECPT = core.DefaultNativeECPTConfig()
	}
	if c.RadixWalk.PWCEntriesPerLevel == 0 {
		c.RadixWalk = core.DefaultRadixWalkConfig()
	}
	if c.Hybrid.PWCEntriesPerLevel == 0 {
		c.Hybrid = core.DefaultHybridConfig()
	}
	return nil
}

// scaleMMUCaches divides the radix and Hybrid walkers' PWC, NPWC and
// NTLB entry counts by CacheScale, with a floor of one entry, and
// leaves the CWCs at their Table 2 sizes. Scaled-down footprints
// shrink page tables; without this, Table 2's PWC/NPWC/NTLB sizes
// would cover the entire (scaled) tables and hide the very walk costs
// the paper measures.
func (c *Config) scaleMMUCaches() {
	// PWC, NPWC and NTLB entries each cover a fixed number of page-
	// table pages or entries, and the number of those scales with the
	// footprint — so these caches scale by the full footprint factor.
	div := c.CacheScale
	if div <= 1 {
		return
	}
	scale := func(n, floor int) int {
		n /= div
		if n < floor {
			n = floor
		}
		return n
	}
	c.RadixWalk.PWCEntriesPerLevel = scale(c.RadixWalk.PWCEntriesPerLevel, 1)
	c.RadixWalk.NPWCEntriesPerLevel = scale(c.RadixWalk.NPWCEntriesPerLevel, 1)
	c.RadixWalk.NTLBEntries = scale(c.RadixWalk.NTLBEntries, 1)

	// CWC capacities keep their Table 2 sizes: a CWT entry's coverage
	// is fixed by its format (1MB/512MB/256GB per PTE/PMD/PUD entry),
	// already large relative to the scaled footprints, so the CWCs'
	// reach-to-footprint ratio lands in the paper's hit-rate regime
	// (~99% PUD, 80-100% PMD with GUPS/SysBench lower as in Figure 12,
	// high Step-1 PTE rates).
	c.Hybrid.PWCEntriesPerLevel = scale(c.Hybrid.PWCEntriesPerLevel, 1)
	c.Hybrid.NTLBEntries = scale(c.Hybrid.NTLBEntries, 1)
}
