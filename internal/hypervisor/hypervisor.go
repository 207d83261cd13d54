// Package hypervisor models a KVM-like hypervisor for one virtual
// machine: it owns host physical memory, demand-maps guest physical
// pages into it, and maintains the host page tables (radix "EPT",
// ECPTs, or both) that the nested walkers traverse.
//
// Two behaviours from the paper are modelled explicitly:
//   - the host backs guest *data* memory with huge pages whenever it
//     can ("the hypervisor frequently uses huge pages", §9.4), and
//   - guest page-table pages are backed only by 4KB host pages
//     (§4.3 — the property the Advanced design's fourth technique
//     exploits).
package hypervisor

import (
	"nestedecpt/internal/addr"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/paging"
	"nestedecpt/internal/radix"
)

// Config configures the hypervisor for one VM.
type Config struct {
	// HostMemBytes is the host physical memory size.
	HostMemBytes uint64
	// THP backs guest data memory with 2MB host pages when possible.
	THP bool
	// BuildRadix / BuildECPT select the host page-table structures.
	BuildRadix bool
	BuildECPT  bool
	// ECPT configures the host ECPT set when BuildECPT is set.
	ECPT ecpt.SetConfig
	// Seed drives allocator and cuckoo randomness.
	Seed uint64
	// HugePageFailureRate models host physical fragmentation.
	HugePageFailureRate float64
}

// DefaultConfig returns a host with the given memory, ECPT tables
// (including the PTE-hCWT the Advanced design caches), and THP off.
func DefaultConfig(memBytes uint64) Config {
	return Config{
		HostMemBytes: memBytes,
		BuildECPT:    true,
		ECPT:         ecpt.DefaultSetConfig(true),
		Seed:         2,
	}
}

// Stats counts hypervisor-level mapping events.
type Stats struct {
	NestedFaults uint64
	paging.Stats
}

// Hypervisor manages host memory for one VM.
type Hypervisor struct {
	cfg          Config
	tables       *paging.Tables[addr.GPA, addr.HPA] // gPA → hPA (EPT / NPT, hECPTs)
	nestedFaults uint64
}

// New builds a hypervisor from cfg.
func New(cfg Config) (*Hypervisor, error) {
	alloc := memsim.NewAllocator[addr.HPA](cfg.HostMemBytes, cfg.Seed)
	alloc.SetHugePageFailureRate(cfg.HugePageFailureRate)
	tables, err := paging.New[addr.GPA](alloc, cfg.BuildRadix, cfg.BuildECPT, cfg.ECPT, 2, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &Hypervisor{cfg: cfg, tables: tables}, nil
}

// Fork returns an independent copy of the hypervisor: the same
// mappings, 4KB-region marks and allocator state, over host page tables
// forked from h's (paging.Tables.Fork). Mapping on either hypervisor
// never shows in the other.
func (h *Hypervisor) Fork() (*Hypervisor, error) {
	tables, err := h.tables.Fork()
	if err != nil {
		return nil, err
	}
	return &Hypervisor{cfg: h.cfg, tables: tables, nestedFaults: h.nestedFaults}, nil
}

// Radix returns the host radix table (EPT), or nil.
func (h *Hypervisor) Radix() *radix.Table[addr.GPA, addr.HPA] { return h.tables.Radix() }

// ECPTs returns the host ECPT set, or nil.
func (h *Hypervisor) ECPTs() *ecpt.Set[addr.GPA, addr.HPA] { return h.tables.ECPTs() }

// Allocator exposes the host-physical allocator.
func (h *Hypervisor) Allocator() *memsim.Allocator[addr.HPA] { return h.tables.Allocator() }

// Stats returns a copy of the mapping statistics.
func (h *Hypervisor) Stats() Stats {
	return Stats{NestedFaults: h.nestedFaults, Stats: h.tables.Stats()}
}

// Resolve is the functional (untimed) side of one host translation: it
// returns the host-physical address and host page size backing gpa,
// demand-mapping the guest physical page on a nested fault
// (paging.Tables.Fault), and reports whether it faulted. isPageTable
// marks gPAs that hold guest page tables or CWTs, which KVM backs only
// with 4KB pages (§4.3); under THP any other fault may take a 2MB page.
// The mapped path costs one Translate; the fault path returns the frame
// it just mapped without looking it up again.
//
//nestedlint:writer reads and mutates the staged host tables
func (h *Hypervisor) Resolve(gpa addr.GPA, isPageTable bool) (hpa addr.HPA, size addr.PageSize, faulted bool, err error) {
	if hpa, size, ok := h.Translate(gpa); ok {
		return hpa, size, false, nil
	}
	h.nestedFaults++
	hpa, size, err = h.tables.Fault(gpa, h.cfg.THP, !isPageTable)
	return hpa, size, err == nil, err
}

// EnsureMapped is Resolve for callers that only need the page mapped:
// it reports whether a nested fault occurred.
func (h *Hypervisor) EnsureMapped(gpa addr.GPA, isPageTable bool) (faulted bool, err error) {
	_, _, faulted, err = h.Resolve(gpa, isPageTable)
	return faulted, err
}

// Translate resolves gPA → hPA functionally.
//
//nestedlint:hotpath
func (h *Hypervisor) Translate(gpa addr.GPA) (hpa addr.HPA, size addr.PageSize, ok bool) {
	return h.tables.Translate(gpa)
}

// PageTableMemoryBytes reports the host bytes held by host page tables
// and CWTs (§9.5 host structures).
func (h *Hypervisor) PageTableMemoryBytes() uint64 { return h.tables.PageTableMemoryBytes() }
