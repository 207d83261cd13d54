package ecpt

import (
	"maps"
	"sync/atomic"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/cow"
	"nestedecpt/internal/memsim"
)

// LinesPerCWTEntry is how many consecutive ECPT lines one CWT entry
// summarizes. Thirty-two lines keep an entry within one 64-byte cache
// line (per line: a 2-bit way code, an 8-bit slot-presence mask, and a
// has-smaller bit = 11 bits; 32 x 11 = 44 bytes), giving each entry
// the coverage the paper's CWC hit rates imply: a PTE-CWT entry covers
// 1MB, a PMD-CWT entry 512MB, and a PUD-CWT entry 256GB of virtual
// (or guest-physical) address space — which is how a 4-entry Step-1
// hCWC reaches its ~99% hit rate over the few-MB gECPTs (§9.4).
const LinesPerCWTEntry = 32

// CWTEntryBytes is the in-memory size of one CWT entry: exactly one
// cache line, so a CWC refill is a single memory access.
const CWTEntryBytes = 64

const wayAbsent = 0xFF

// cwtLineInfo is the per-line payload of a CWT entry.
type cwtLineInfo struct {
	way        uint8 // wayAbsent when no line of this size exists here
	present    uint8 // slot-presence mask for the 8 translations
	hasSmaller bool  // some smaller page size maps part of this range
}

type cwtEntry struct {
	lines [LinesPerCWTEntry]cwtLineInfo
}

// cwtPage is one 4KB backing page of the CWT with its entries stored
// inline: the page's frame, a liveness bitmap over its entries, and
// the entry payloads themselves. Keeping a whole page behind a single
// index slot is what makes Query — the hottest CWT operation,
// consulted up to three times per walk side — one map lookup plus
// array indexing, where a per-entry map cost three lookups (entry,
// entry again for its PA, page frame).
type cwtPage[P addr.Addr] struct {
	base    P
	live    uint64 // bitmap over entries: which have been created
	entries [entriesPerPage]cwtEntry
}

// CWT is the software cuckoo walk table for one page size: the
// OS-maintained structure that records which ECPT way (if any) holds
// each translation, cached in hardware by the CWCs (§3.2). The
// structure occupies real frames so CWC refills have physical
// addresses to fetch.
type CWT[P addr.Addr] struct {
	size  addr.PageSize
	alloc *memsim.Allocator[P]
	// pages holds the backing pages in creation order, copy-on-write
	// (view.go); index maps a CWT page number (entry key /
	// entriesPerPage) to its slot in pages, and changes only when a
	// page is created.
	index    map[uint64]int32
	pages    cow.Store[cwtPage[P]]
	nEntries int
	// One-slot page cache: consecutive queries of one walk (and of
	// consecutive walks over a hot working set) land on the same CWT
	// page, so remembering the last page (its number, slot and
	// pointer) skips even the single map lookup. Pages are never
	// removed, and writablePage re-points the cache at the copy a write
	// makes, so the cached pointer cannot go stale. In concurrent mode
	// the cache is writer-private (reads go through immutable views,
	// which must not mutate shared state).
	lastIdx  uint64
	lastSlot int32
	lastPage *cwtPage[P]

	// Concurrent mode and forks (view.go, fork.go): pub holds the last
	// published snapshot (set by the owning table's Publish);
	// indexShared marks index as held by that snapshot or a fork, so a
	// page creation clones it first; dirty tracks whether anything
	// changed since the last publish.
	pub         atomic.Pointer[cwtView[P]]
	indexShared bool
	dirty       bool
	// cowBytes is the bytes of shared pages and directories the writer
	// copied; the owning table's Stats reports it.
	cowBytes uint64
}

// entriesPerPage is how many CWT entries one 4KB backing page holds.
const entriesPerPage = 4096 / CWTEntryBytes

// NewCWT creates an empty cuckoo walk table for the given page size,
// backed by frames from alloc.
func NewCWT[P addr.Addr](size addr.PageSize, alloc *memsim.Allocator[P]) *CWT[P] {
	return &CWT[P]{
		size:  size,
		alloc: alloc,
		index: make(map[uint64]int32),
	}
}

// Size returns the page size this CWT describes.
func (c *CWT[P]) Size() addr.PageSize { return c.size }

// EntryKey returns the key of the CWT entry covering an ECPT line tag.
func EntryKey(tag uint64) uint64 { return tag / LinesPerCWTEntry }

// KeyForVPN returns the CWT entry key covering a page number.
func KeyForVPN(vpn uint64) uint64 { return EntryKey(lineTag(vpn)) }

// page returns the writer's backing page holding key's entry, or nil,
// consulting the one-slot cache first.
func (c *CWT[P]) page(key uint64) *cwtPage[P] {
	idx := key / entriesPerPage
	if pg := c.lastPage; pg != nil && c.lastIdx == idx {
		return pg
	}
	slot, ok := c.index[idx]
	if !ok {
		return nil
	}
	pg := c.pages.At(int(slot))
	c.lastIdx, c.lastSlot, c.lastPage = idx, slot, pg
	return pg
}

// writablePage returns the backing page holding key's entry, ready to
// write, or nil when it is missing and create is not set, or when no
// frame is free for it. A missing page is built and its frame
// allocated — the same first-touch allocation point the per-entry
// layout had, so allocator streams are unchanged — and a page a
// published snapshot or a fork still shares is copied first (view.go).
// Nothing is shared before the first publish or fork, so sequential
// mode writes its pages in place.
func (c *CWT[P]) writablePage(key uint64, create bool) *cwtPage[P] {
	idx := key / entriesPerPage
	slot, ok := c.lastSlot, c.lastPage != nil && c.lastIdx == idx
	if !ok {
		slot, ok = c.index[idx]
	}
	if !ok {
		if !create {
			return nil
		}
		base, ok := c.alloc.Alloc(addr.Page4K, memsim.PurposeCWT)
		if !ok {
			return nil
		}
		if c.indexShared {
			c.index = maps.Clone(c.index)
			c.indexShared = false
		}
		slot = int32(c.pages.Len())
		c.index[idx] = slot
		c.pages.Append(&cwtPage[P]{base: base}, &c.cowBytes)
	}
	pg := c.pages.Write(int(slot), &c.cowBytes)
	c.lastIdx, c.lastSlot, c.lastPage = idx, slot, pg
	c.dirty = true
	return pg
}

// entry returns key's entry, ready to write, creating it (and its page)
// when create is set, or nil when it does not exist: not created, or
// no frame free for its page. Table.Insert and Set.Map check that the
// pages their writes create fit before making any.
func (c *CWT[P]) entry(key uint64, create bool) *cwtEntry {
	pg := c.writablePage(key, create)
	if pg == nil {
		return nil
	}
	slot := key % entriesPerPage
	if pg.live&(1<<slot) == 0 {
		if !create {
			return nil
		}
		e := &pg.entries[slot]
		for i := range e.lines {
			e.lines[i].way = wayAbsent
		}
		pg.live |= 1 << slot
		c.nEntries++
		c.dirty = true
	}
	return &pg.entries[slot]
}

// existing returns key's entry when it exists, for reading: a write
// that would leave the entry as it is returns before entry makes its
// page writable, so it copies nothing and dirties nothing.
func (c *CWT[P]) existing(key uint64) *cwtEntry {
	pg := c.page(key)
	if pg == nil || pg.live&(1<<(key%entriesPerPage)) == 0 {
		return nil
	}
	return &pg.entries[key%entriesPerPage]
}

// EntryPA returns the physical address (in the CWT's own address
// space) of the entry with the given key, allocating backing storage
// on first touch, or 0 when no frame is free for it. Writer-side in
// concurrent mode (first touch mutates); lock-free readers go through
// RefillPA.
//
//nestedlint:coldpath first-touch allocation point; steady-state refills resolve entries that already exist (RefillPA reads the PA off the page)
func (c *CWT[P]) EntryPA(key uint64) P {
	if c.entry(key, true) == nil {
		return 0
	}
	// entry left key's page in the one-slot cache.
	return c.page(key).base + P((key%entriesPerPage)*CWTEntryBytes)
}

// setWay records that the line with the given tag lives in way; called
// by the ECPT on every placement, keeping CWT and table coherent.
func (c *CWT[P]) setWay(tag uint64, way uint8) {
	key, i := EntryKey(tag), tag%LinesPerCWTEntry
	if e := c.existing(key); e != nil && e.lines[i].way == way {
		return
	}
	if e := c.entry(key, true); e != nil {
		e.lines[i].way = way
	}
}

// clearWay records that no line with the given tag exists any more.
func (c *CWT[P]) clearWay(tag uint64) {
	if e := c.entry(EntryKey(tag), false); e != nil {
		li := &e.lines[tag%LinesPerCWTEntry]
		li.way = wayAbsent
		li.present = 0
	}
}

// SetPresent records that the translation for vpn exists (its slot bit
// within the line). Maintained by the OS alongside the page tables.
func (c *CWT[P]) SetPresent(vpn uint64) {
	key, i, bit := KeyForVPN(vpn), lineTag(vpn)%LinesPerCWTEntry, uint8(1)<<lineSlot(vpn)
	if e := c.existing(key); e != nil && e.lines[i].present&bit != 0 {
		return
	}
	if e := c.entry(key, true); e != nil {
		e.lines[i].present |= bit
	}
}

// ClearPresent removes vpn's slot-presence bit.
func (c *CWT[P]) ClearPresent(vpn uint64) {
	key, i, bit := KeyForVPN(vpn), lineTag(vpn)%LinesPerCWTEntry, uint8(1)<<lineSlot(vpn)
	if e := c.existing(key); e == nil || e.lines[i].present&bit == 0 {
		return
	}
	c.entry(key, false).lines[i].present &^= bit
}

// MarkSmaller records that some page of a smaller size maps part of
// the range vpn's line covers. The bit is sticky: clearing it safely
// would need reference counting, and a stale true only costs probes,
// never correctness — the same conservative choice real CWTs make.
func (c *CWT[P]) MarkSmaller(vpn uint64) {
	key, i := KeyForVPN(vpn), lineTag(vpn)%LinesPerCWTEntry
	if e := c.existing(key); e != nil && e.lines[i].hasSmaller {
		return
	}
	if e := c.entry(key, true); e != nil {
		e.lines[i].hasSmaller = true
	}
}

// Info is the CWT's answer about one page number. P is the space the
// CWT entry itself lives in (the owning table set's physical space).
type Info[P addr.Addr] struct {
	// EntryExists reports whether the covering CWT entry exists at
	// all; when false nothing of this size (or smaller) was ever
	// mapped in the covered range.
	EntryExists bool
	// WayKnown reports whether a line of this size exists for vpn's
	// line, and Way identifies which ECPT way holds it.
	WayKnown bool
	Way      uint8
	// Present reports whether vpn's own slot is populated.
	Present bool
	// HasSmaller reports whether a smaller page size maps part of the
	// line's range, i.e. the walker must consult the next table down.
	HasSmaller bool
	// EntryKey and EntryPA locate the CWT entry, for CWC refills.
	EntryKey uint64
	EntryPA  P
}

// Query returns the walk-pruning information for vpn. It never creates
// the entry: a missing entry reports only its key, and EntryPA is
// populated (straight off the page, no allocation) only for entries
// that already exist — callers needing a PA for a missing entry go
// through EntryPA, which is the allocating first-touch point.
func (c *CWT[P]) Query(vpn uint64) Info[P] {
	var info Info[P]
	c.QueryInto(vpn, &info)
	return info
}

// QueryInto is Query writing into caller-owned storage — the walkers'
// form: planWalk consults up to three CWTs per plan on every
// translation, and filling a reused Info in place keeps the struct off
// the call-return path.
//
//nestedlint:hotpath
func (c *CWT[P]) QueryInto(vpn uint64, out *Info[P]) {
	tag := lineTag(vpn)
	key := EntryKey(tag)
	// Concurrent readers are served from the immutable snapshot, never
	// the writer's mutable one-slot page cache; sequential mode reads
	// the writer's pages through it.
	var pg *cwtPage[P]
	if v := c.pub.Load(); v != nil {
		pg = v.page(key / entriesPerPage)
	} else {
		pg = c.page(key)
	}
	if pg == nil {
		*out = Info[P]{EntryKey: key}
		return
	}
	slot := key % entriesPerPage
	if pg.live&(1<<slot) == 0 {
		*out = Info[P]{EntryKey: key}
		return
	}
	li := &pg.entries[slot].lines[tag%LinesPerCWTEntry]
	*out = Info[P]{
		EntryExists: true,
		WayKnown:    li.way != wayAbsent,
		Way:         li.way,
		Present:     li.present&(1<<lineSlot(vpn)) != 0,
		HasSmaller:  li.hasSmaller,
		EntryKey:    key,
		EntryPA:     pg.base + P(slot*CWTEntryBytes),
	}
}

// Entries returns the number of live CWT entries.
func (c *CWT[P]) Entries() int { return c.nEntries }

// MemoryBytes returns the frames backing the CWT, for §9.5 accounting.
func (c *CWT[P]) MemoryBytes() uint64 {
	return uint64(c.pages.Len()) * addr.Page4K.Bytes()
}
