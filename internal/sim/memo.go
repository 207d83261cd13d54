package sim

import (
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
// Layout: one flat slice of elements laid densely over the workload's
// VMAs, one spans entry a VMA, each VMA at its own granule: 2MB for a
// THP-eligible VMA under THP, 4KB otherwise. An element holds
// hPA>>shift + 1 and 0 means "not cached": only positive results are
// kept, so a hit never reports a fault. A 2MB element that either side
// maps with 4KB pages is split instead: it holds splitMark plus the
// index of a memoBlock caching the granule's 512 pages at 4KB.
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
	spans []memoSpan
	pfn   []uint32
	// split holds the blocks of the split elements. A shootdown empties
	// it but keeps its storage, so the splits a run re-creates after one
	// (Prepopulate made every split its mappings need) allocate nothing.
	split []memoBlock
	// unmaps is kernel.Unmaps as of the last resolve.
	unmaps uint64
}

// splitMark tags a split element; below it an element is a frame
// number plus one.
const splitMark = 1 << 31

// blockPages is the number of 4KB pages in a 2MB granule.
const blockPages = 512

// memoBlock caches one split 2MB granule at 4KB: an element per page,
// as in memo.pfn, and the guest page size behind all of them — 2MB when
// only the host fell back to 4KB pages, which a hit must still report.
type memoBlock struct {
	guest addr.PageSize
	pfn   [blockPages]uint32
}

// memoSpan places one VMA, [base, limit), in memo.pfn: the granule
// numbered first sits at index off. A base that is not granule-aligned
// shares its first granule with whatever precedes the VMA; the span
// still owns a whole element for it.
type memoSpan struct {
	base, limit addr.GVA
	granule     addr.PageSize
	first       uint64
	off         int
}

func newMemo(vmas []kernel.VMA, thp bool) memo {
	var mm memo
	n := 0
	for _, v := range vmas {
		if v.Size == 0 {
			continue
		}
		g := addr.Page4K
		if thp && v.THPEligible {
			g = addr.Page2M
		}
		sp := memoSpan{base: v.Base, limit: addr.Add(v.Base, v.Size), granule: g, first: addr.VPN(v.Base, g), off: n}
		n += int(addr.VPN(sp.limit-1, g)-sp.first) + 1
		mm.spans = append(mm.spans, sp)
	}
	mm.pfn = make([]uint32, n)
	return mm
}

// fork returns a copy of the memo with its own elements and blocks; the
// spans never change after newMemo and stay shared.
func (mm memo) fork() memo {
	mm.pfn = slices.Clone(mm.pfn)
	mm.split = slices.Clone(mm.split)
	return mm
}

// span returns the span holding va, or nil when va lies outside every
// VMA.
func (mm *memo) span(va addr.GVA) *memoSpan {
	for i := range mm.spans {
		if sp := &mm.spans[i]; va >= sp.base && va < sp.limit {
			return sp
		}
	}
	return nil
}

// slot returns sp's element for va and the page size its frame number
// counts in, looking through a split element into its block, which it
// also returns (nil when the element is not split).
func (mm *memo) slot(sp *memoSpan, va addr.GVA) (e *uint32, g addr.PageSize, blk *memoBlock) {
	e, g = &mm.pfn[sp.off+int(addr.VPN(va, sp.granule)-sp.first)], sp.granule
	if *e >= splitMark {
		blk = &mm.split[*e-splitMark]
		e, g = &blk.pfn[addr.VPN(va, addr.Page4K)%blockPages], addr.Page4K
	}
	return e, g, blk
}

// lookup returns va's cached translation and guest page size, ok
// false when sp's element for va caches none.
func (mm *memo) lookup(sp *memoSpan, va addr.GVA) (hpa addr.HPA, size addr.PageSize, ok bool) {
	e, g, blk := mm.slot(sp, va)
	if *e == 0 {
		return 0, 0, false
	}
	size = g
	if blk != nil {
		size = blk.guest
	}
	return addr.Translate(addr.FrameBase[addr.HPA](uint64(*e-1), g), va, g), size, true
}

// store caches va's translation, hpa behind a guest page of size guest
// and a host page of size host. An unsplit 2MB element splits when
// either page is smaller; then the element found for va caches it when
// both pages are at least its size and the guest page is the size a hit
// reports. A frame number too wide for an element is not cached.
func (mm *memo) store(sp *memoSpan, va addr.GVA, hpa addr.HPA, guest, host addr.PageSize) {
	e, g, blk := mm.slot(sp, va)
	if blk == nil && g == addr.Page2M && (guest < g || host < g) {
		*e = splitMark + uint32(len(mm.split))
		mm.split = append(mm.split, memoBlock{guest: guest})
		e, g, blk = mm.slot(sp, va)
	}
	want := g
	if blk != nil {
		want = blk.guest
	}
	if fn := addr.VPN(hpa, g); guest == want && host >= g && fn < splitMark-1 {
		*e = uint32(fn) + 1
	}
}

// shootdown drops every cached copy of a final translation after a page
// went away behind the machine's back: the memo, the TLB, and the
// walker's own translation cache where it keeps one (the POM-TLB; the
// other walkers cache table locations, which an unmap leaves in place).
func (m *Machine) shootdown() {
	clear(m.memo.pfn)
	m.memo.split = m.memo.split[:0]
	m.tlb.Flush()
	if f, ok := m.walker.(interface{ Flush() }); ok {
		f.Flush()
	}
}

// resolve is the machine's one functional (untimed) translation: the
// host-physical address behind va — for native designs the guest
// physical address, by identity — demand-mapping the page on either
// side if needed and reporting which side faulted. size is the guest
// page size.
//
// A hit is one VMA range check and one load, two in a split granule. A
// miss asks the kernel, then the hypervisor, and caches the answer (see
// memo.store), so every mapped page of every VMA hits from its second
// question on.
func (m *Machine) resolve(va addr.GVA) (hpa addr.HPA, size addr.PageSize, guestFault, hostFault bool, err error) {
	mm := &m.memo
	if n := m.kern.Unmaps(); n != mm.unmaps {
		mm.unmaps = n
		m.shootdown()
	}
	sp := mm.span(va)
	if sp != nil {
		if hpa, size, ok := mm.lookup(sp, va); ok {
			return hpa, size, false, false, nil
		}
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
	if sp != nil {
		mm.store(sp, va, hpa, size, hostSize)
	}
	return hpa, size, guestFault, hostFault, nil
}
