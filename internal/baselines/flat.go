package baselines

import (
	"fmt"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/cachesim"
	"nestedecpt/internal/core"
	"nestedecpt/internal/hypervisor"
	"nestedecpt/internal/kernel"
	"nestedecpt/internal/memsim"
)

// FlatNested implements flat nested page tables (§9.6): the guest
// keeps radix tables, while the host table is a single flat array
// indexed by guest frame number, so each gPA→hPA translation costs one
// memory access — Figure 8's shape with a one-access host dimension
// behind a 24-entry NTLB. The worst-case walk is 4×(1+1)+1 = 9
// sequential accesses. The flat table's weakness — it must reserve one
// entry per guest frame regardless of what is mapped — is inherent to
// the design and visible in its memory footprint.
type FlatNested struct {
	*core.RadixWalker
	flat *flatHost
}

// flatHost is the flat host table: 8 bytes per potential guest 4KB
// frame, reserved in host physical memory.
type flatHost struct {
	mem  core.MemSystem
	host *hypervisor.Hypervisor
	base addr.HPA
	size uint64
}

// Translate implements core.HostDim: it charges one access to the flat
// table entry for gpa and returns the functional translation.
//
//nestedlint:hotpath
func (f *flatHost) Translate(now uint64, gpa addr.GPA, _ int, res *core.WalkResult) (addr.HPA, addr.PageSize, uint64, error) {
	entryPA := addr.Add(f.base, addr.VPN(gpa, addr.Page4K)*8)
	lat, _ := f.mem.Access(now, entryPA, cachesim.SourceMMU)
	res.Accesses++
	hpa, size, ok := f.host.Translate(gpa)
	if !ok {
		return 0, 0, lat, &core.ErrNotMapped{Space: "host", GPA: gpa}
	}
	return hpa, size, lat, nil
}

// NewFlatNested builds the walker; it reserves the flat host table in
// host physical memory, or returns the host allocator's
// *memsim.OutOfMemoryError when the table does not fit.
func NewFlatNested(mem core.MemSystem, guest *kernel.Kernel, host *hypervisor.Hypervisor) (*FlatNested, error) {
	size := guest.Allocator().Capacity() / addr.Page4K.Bytes() * 8
	base, err := host.Allocator().AllocRegion(size, memsim.PurposePageTable)
	if err != nil {
		return nil, fmt.Errorf("baselines: the flat host table: %w", err)
	}
	flat := &flatHost{mem: mem, host: host, base: base, size: size}
	return &FlatNested{RadixWalker: core.NewRadixWalker("Flat Nested", 32, 24, mem, guest, flat), flat: flat}, nil
}

// FlatTableBytes returns the reserved flat-table size.
func (w *FlatNested) FlatTableBytes() uint64 { return w.flat.size }
