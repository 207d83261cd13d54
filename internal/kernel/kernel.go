// Package kernel models the guest operating system's memory manager:
// demand paging of anonymous memory, transparent huge pages (THP), and
// maintenance of the guest page tables — radix, ECPT, or both — that
// the simulated MMU walks. It corresponds to the "modest modifications
// to Linux" of §7: high-level memory management is unchanged, only the
// page-table implementation varies.
package kernel

import (
	"fmt"
	"slices"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/ecpt"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/paging"
	"nestedecpt/internal/radix"
)

// Config configures one guest kernel instance.
type Config struct {
	// GuestMemBytes is the guest-physical memory size.
	GuestMemBytes uint64
	// GPABase offsets this guest's physical window: all gPAs the kernel
	// mints lie in [GPABase, GPABase+GuestMemBytes). A multi-VM host
	// (internal/serve) gives each guest a disjoint window over one
	// shared hypervisor; zero (the default) reproduces the single-VM
	// layout byte for byte. Must be 1GB-aligned.
	GPABase uint64
	// THP enables transparent 2MB pages for eligible VMAs.
	THP bool
	// BuildRadix / BuildECPT select which page-table structures the
	// kernel maintains. Simulations build one; the cross-validation
	// tests build both and check they agree.
	BuildRadix bool
	BuildECPT  bool
	// ECPT configures the guest ECPT set when BuildECPT is set.
	ECPT ecpt.SetConfig
	// Seed drives all allocator and cuckoo randomness.
	Seed uint64
	// HugePageFailureRate models guest physical fragmentation.
	HugePageFailureRate float64
}

// DefaultConfig returns a guest with the given memory size, ECPT
// tables only, and THP off.
func DefaultConfig(memBytes uint64) Config {
	return Config{
		GuestMemBytes: memBytes,
		BuildECPT:     true,
		ECPT:          ecpt.DefaultSetConfig(false),
		Seed:          1,
	}
}

// VMA is a virtual memory area registered by the workload.
type VMA struct {
	Base addr.GVA
	Size uint64
	// THPEligible marks areas khugepaged would back with 2MB pages.
	THPEligible bool
}

// Stats counts kernel-level paging events.
type Stats struct {
	MinorFaults uint64
	paging.Stats
}

// Kernel is one guest OS instance managing one address space.
type Kernel struct {
	cfg         Config
	tables      *paging.Tables[addr.GVA, addr.GPA]
	vmas        []VMA
	minorFaults uint64
	unmaps      uint64 // successful Unmaps; see Unmaps
}

// New builds a kernel from cfg.
func New(cfg Config) (*Kernel, error) {
	alloc := memsim.NewAllocatorAt[addr.GPA](cfg.GPABase, cfg.GuestMemBytes, cfg.Seed)
	alloc.SetHugePageFailureRate(cfg.HugePageFailureRate)
	tables, err := paging.New[addr.GVA](alloc, cfg.BuildRadix, cfg.BuildECPT, cfg.ECPT, 1, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &Kernel{cfg: cfg, tables: tables}, nil
}

// Fork returns an independent copy of the kernel: the same VMAs,
// mappings, THP decisions and allocator state, over page tables forked
// from k's (paging.Tables.Fork). Paging on either kernel never shows in
// the other.
func (k *Kernel) Fork() (*Kernel, error) {
	tables, err := k.tables.Fork()
	if err != nil {
		return nil, err
	}
	return &Kernel{
		cfg:         k.cfg,
		tables:      tables,
		vmas:        slices.Clone(k.vmas),
		minorFaults: k.minorFaults,
		unmaps:      k.unmaps,
	}, nil
}

// Radix returns the guest radix table, or nil.
func (k *Kernel) Radix() *radix.Table[addr.GVA, addr.GPA] { return k.tables.Radix() }

// ECPTs returns the guest ECPT set, or nil.
func (k *Kernel) ECPTs() *ecpt.Set[addr.GVA, addr.GPA] { return k.tables.ECPTs() }

// Allocator exposes the guest-physical allocator (the hypervisor needs
// its capacity; tests inspect accounting).
func (k *Kernel) Allocator() *memsim.Allocator[addr.GPA] { return k.tables.Allocator() }

// Stats returns a copy of the paging statistics.
func (k *Kernel) Stats() Stats { return Stats{MinorFaults: k.minorFaults, Stats: k.tables.Stats()} }

// Unmaps returns how many pages Unmap has removed. Mapping a page never
// changes a translation that already exists (Resolve maps only what
// Translate misses, and a region holding 4KB pages is never re-backed
// by a 2MB one), so whoever caches translations holds no stale one for
// as long as this count stands still.
func (k *Kernel) Unmaps() uint64 { return k.unmaps }

// DefineVMA registers a virtual memory area. Touching addresses
// outside every VMA is a segmentation violation.
func (k *Kernel) DefineVMA(v VMA) {
	k.vmas = append(k.vmas, v)
}

func (k *Kernel) vmaFor(va addr.GVA) *VMA {
	for i := range k.vmas {
		v := &k.vmas[i]
		if va >= v.Base && va < addr.Add(v.Base, v.Size) {
			return v
		}
	}
	return nil
}

// Resolve is the functional (untimed) side of one guest translation:
// it returns the guest-physical address and page size backing va,
// demand-allocating the page on a minor fault (paging.Tables.Fault), and
// reports whether it faulted. Under THP a fault may take a 2MB page when
// its VMA is THP-eligible and holds the whole 2MB region. The mapped
// path costs one Translate; the fault path returns the frame it just
// mapped without looking it up again.
//
//nestedlint:writer reads and mutates the staged guest tables
func (k *Kernel) Resolve(va addr.GVA) (gpa addr.GPA, size addr.PageSize, faulted bool, err error) {
	if gpa, size, ok := k.Translate(va); ok {
		return gpa, size, false, nil
	}
	v := k.vmaFor(va)
	if v == nil {
		return 0, 0, false, fmt.Errorf("kernel: segfault at %#x (no VMA)", va)
	}
	k.minorFaults++
	region := addr.PageBase(va, addr.Page2M)
	huge := k.cfg.THP && v.THPEligible &&
		region >= v.Base && addr.Add(region, addr.Page2M.Bytes()) <= addr.Add(v.Base, v.Size)
	gpa, size, err = k.tables.Fault(va, k.cfg.THP, huge)
	return gpa, size, err == nil, err
}

// Touch is Resolve for callers that only need the page mapped: it
// reports whether a minor fault occurred and the page size now backing
// va.
func (k *Kernel) Touch(va addr.GVA) (faulted bool, size addr.PageSize, err error) {
	_, size, faulted, err = k.Resolve(va)
	return faulted, size, err
}

// Unmap removes the mapping for the page containing va, if any,
// from every maintained structure. A region backed by 4KB pages stays
// marked small (paging.Tables.Fault), since its other pages may still
// be live and a 2MB page mapped over them would shadow every one.
func (k *Kernel) Unmap(va addr.GVA) bool {
	if _, ok := k.tables.Unmap(va); !ok {
		return false
	}
	k.unmaps++
	return true
}

// Translate resolves gVA → gPA functionally, preferring whichever
// structure is built (they are kept identical when both are).
func (k *Kernel) Translate(va addr.GVA) (gpa addr.GPA, size addr.PageSize, ok bool) {
	return k.tables.Translate(va)
}

// PageTableMemoryBytes reports the guest-physical bytes held by page
// tables and CWTs (§9.5 guest structures).
func (k *Kernel) PageTableMemoryBytes() uint64 { return k.tables.PageTableMemoryBytes() }
