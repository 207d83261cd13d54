package sim

import (
	"math"
	"slices"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/kernel"
)

// memo is the machine's functional translation memo: the host frame
// number of every page resolve has already found mapped on both sides,
// so asking again costs one load instead of a lookup per address space.
// It is untimed bookkeeping — no simulated structure corresponds to it
// and nothing the walkers are charged for reads it.
//
// Layout: one flat slice of frame numbers laid densely over the
// workload's VMAs at the machine's mapping granule (4KB, or 2MB under
// THP), one spans entry a VMA. An element holds hPA>>shift + 1 and 0
// means "not cached": only positive results are kept, so a hit never
// reports a fault.
//
// Coherence: an entry is stale only if the translation it copied was
// changed or removed. Mapping never does that — kernel.Resolve and
// hypervisor.Resolve map only what Translate misses, and neither side
// re-backs a region holding 4KB pages with a 2MB page over them — and
// the hypervisor never unmaps; so kernel.Unmap is the one such
// operation, and resolve drops the whole memo (and shoots down the
// simulated structures caching the same translations) when
// kernel.Unmaps moves.
type memo struct {
	granule addr.PageSize
	spans   []memoSpan
	pfn     []uint32
	// unmaps is kernel.Unmaps as of the last resolve.
	unmaps uint64
}

// memoSpan places one VMA, [base, limit), in memo.pfn: the granule
// numbered first sits at index off. A base that is not granule-aligned
// shares its first granule with whatever precedes the VMA; the span
// still owns a whole element for it.
type memoSpan struct {
	base, limit addr.GVA
	first       uint64
	off         int
}

func newMemo(vmas []kernel.VMA, thp bool) memo {
	mm := memo{granule: addr.Page4K}
	if thp {
		mm.granule = addr.Page2M
	}
	n := 0
	for _, v := range vmas {
		if v.Size == 0 {
			continue
		}
		sp := memoSpan{base: v.Base, limit: addr.Add(v.Base, v.Size), first: addr.VPN(v.Base, mm.granule), off: n}
		n += int(addr.VPN(sp.limit-1, mm.granule)-sp.first) + 1
		mm.spans = append(mm.spans, sp)
	}
	mm.pfn = make([]uint32, n)
	return mm
}

// fork returns a copy of the memo with its own frame numbers; the
// spans never change after newMemo and stay shared.
func (mm memo) fork() memo {
	mm.pfn = slices.Clone(mm.pfn)
	return mm
}

// slot returns va's element, or nil when va lies outside every VMA.
func (mm *memo) slot(va addr.GVA) *uint32 {
	for i := range mm.spans {
		if sp := &mm.spans[i]; va >= sp.base && va < sp.limit {
			return &mm.pfn[sp.off+int(addr.VPN(va, mm.granule)-sp.first)]
		}
	}
	return nil
}

// shootdown drops every cached copy of a final translation after a page
// went away behind the machine's back: the memo, the TLB, and the
// walker's own translation cache where it keeps one (the POM-TLB; the
// other walkers cache table locations, which an unmap leaves in place).
func (m *Machine) shootdown() {
	clear(m.memo.pfn)
	m.tlb.Flush()
	if f, ok := m.walker.(interface{ Flush() }); ok {
		f.Flush()
	}
}

// resolve is the machine's one functional (untimed) translation: the
// host-physical address behind va — for native designs the guest
// physical address, by identity — demand-mapping the page on either
// side if needed and reporting which side faulted. size is the guest
// page size; on a memo hit it is the granule, which the guest page is
// at least as large as.
//
// A hit is one VMA range check and one load. A miss asks the kernel,
// then the hypervisor, and caches the answer when both sides map va
// with a page no smaller than the granule (so the granule's offset bits
// pass through both translations unchanged) and the frame number fits
// an element.
func (m *Machine) resolve(va addr.GVA) (hpa addr.HPA, size addr.PageSize, guestFault, hostFault bool, err error) {
	mm := &m.memo
	if n := m.kern.Unmaps(); n != mm.unmaps {
		mm.unmaps = n
		m.shootdown()
	}
	g := mm.granule
	slot := mm.slot(va)
	if slot != nil && *slot != 0 {
		return addr.Translate(addr.FrameBase[addr.HPA](uint64(*slot-1), g), va, g), g, false, false, nil
	}

	gpa, size, guestFault, err := m.kern.Resolve(va)
	if err != nil {
		return 0, 0, false, false, err
	}
	hpa, hostSize := addr.IdentityHPA(gpa), size
	if m.hyp != nil {
		if hpa, hostSize, hostFault, err = m.hyp.Resolve(gpa, false); err != nil {
			return 0, size, guestFault, false, err
		}
	}
	if slot != nil && size >= g && hostSize >= g {
		if fn := addr.VPN(hpa, g); fn < math.MaxUint32 {
			*slot = uint32(fn) + 1
		}
	}
	return hpa, size, guestFault, hostFault, nil
}
