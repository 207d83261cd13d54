package baselines

import (
	"nestedecpt/internal/addr"
	"nestedecpt/internal/core"
	"nestedecpt/internal/hypervisor"
	"nestedecpt/internal/kernel"
)

// freeHost is the ideal host dimension: the shadow structure keeps
// table pages at host addresses, so composing gPA→hPA costs nothing —
// no access, no latency, no NTLB in front.
type freeHost struct{ host *hypervisor.Hypervisor }

// Translate implements core.HostDim.
//
//nestedlint:hotpath
func (f freeHost) Translate(_ uint64, gpa addr.GPA, _ int, _ *core.WalkResult) (addr.HPA, addr.PageSize, uint64, error) {
	hpa, size, ok := f.host.Translate(gpa)
	if !ok {
		return 0, 0, 0, &core.ErrNotMapped{Space: "host", GPA: gpa}
	}
	return hpa, size, 0, nil
}

// NewAgileIdeal builds the idealized Agile Paging design of §9.6: the
// guest page table is walked as in shadow paging — at most four
// sequential accesses with full PWC support, a native-cost guest walk
// whose table accesses land at host-translated addresses for free —
// and every host-level cost (shadow-table maintenance, hypervisor
// intervention) is waived. This deliberately overestimates Agile
// Paging, as the paper does, so that outperforming it is meaningful.
// The guest kernel must maintain radix tables; the hypervisor provides
// the (free) gPA→hPA composition.
func NewAgileIdeal(mem core.MemSystem, guest *kernel.Kernel, host *hypervisor.Hypervisor) *core.RadixWalker {
	return core.NewRadixWalker("Ideal Agile Paging", 32, 0, mem, guest, freeHost{host})
}
