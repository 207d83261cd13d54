package ecpt

import (
	"maps"
	"slices"
	"unsafe"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/trace"
)

// This file is the concurrent half of the table: immutable,
// epoch-versioned snapshots (views) that walkers read without locks,
// and the copy-on-write machinery the single writer uses to build the
// next snapshot off to the side (DESIGN.md §10).
//
// Mode switch. Both modes share one read path; the mode only picks
// which state readers see and whether writes copy. A table starts in
// sequential mode: pub is nil, readers see the live tables, and nothing
// is sealed, so no write copies. EnterConcurrent attaches an
// EpochDomain and publishes the first view; from then on the read
// paths (AppendProbes, SnapshotLookup, CWT.QueryInto) serve the latest
// published snapshot while mutations accumulate privately, copying what
// a snapshot still holds, until the next Publish.
//
// Writer discipline. Concurrent mode still has exactly one writer:
// Insert/Remove/Map/Unmap and Publish must all come from a single
// goroutine (the allocator and the CWT bookkeeping are deliberately
// not thread-safe). What the mode buys is that any number of *reader*
// goroutines may walk concurrently with that writer.
//
// Copy-on-write granularity. Publishing seals the current generations
// (and CWT pages); the first mutation after a publish clones the
// generation header, and the header copies one simulated 4KB table page
// (64 lines: 512 B of keys, 4 KB of frames) the first time it writes
// that page. A way nobody shares stays flat — its keys and frames are
// plain arrays, read and written in place — which covers every
// sequential simulation and every table before its first publish. The
// first write to a shared way makes it paged: the writer's header gets
// a page directory pointing into the same flat arrays, copies nothing
// for it, and then copies only the page being written. A paged way's
// directory is copied like a page, once per header, so a churn round
// costs the pages it wrote plus one directory per way it touched, not
// the ways (megabytes) themselves. Keeping unshared ways flat keeps the
// directory load off every probe of a sequential run, which an
// always-paged layout measurably slowed (DESIGN.md §10). Once
// every page of a way has been copied nothing references the flat
// arrays, and they die with the last view that holds them. Every copy
// keeps the original's physical base addresses: a view's probe
// addresses stay valid until the region itself is retired through the
// epoch domain.

// tableView is one immutable snapshot of a table's probe state:
// everything the lock-free read paths consult.
//
//nestedlint:immutable
type tableView[P addr.Addr] struct {
	cur *generation[P]
	// old is non-nil while the snapshot was taken mid-resize.
	old *generation[P]
	// migratePtr is the writer's migration frontier at publish time
	// (copied: the writer keeps mutating its own).
	migratePtr []int
	// gen is the table's publish-generation counter at the instant this
	// view was swapped in (Table.pubGen). Monotone across views of one
	// table; the serve-mode audit proves translations against it.
	gen uint64
}

// readState returns the state readers see: the latest published view
// in concurrent mode, the live tables in sequential mode (pub never
// stored). The writer's fields must not even be loaded once a view
// exists — the single writer re-points them while readers are here.
//
//nestedlint:hotpath
func (t *Table[P]) readState() (cur, old *generation[P], mig []int) {
	if v := t.pub.Load(); v != nil {
		return v.cur, v.old, v.migratePtr
	}
	return t.cur, t.old, t.migratePtr
}

// EnterConcurrent switches the table into concurrent mode: reads are
// served from immutable published views, mutations stay private until
// Publish, and dead generations are reclaimed through dom's grace
// periods. The switch itself publishes the current state.
//
//nestedlint:writer the mode switch happens before any reader exists
func (t *Table[P]) EnterConcurrent(dom *EpochDomain) {
	t.dom = dom
	t.Publish()
}

// Concurrent reports whether EnterConcurrent was called.
func (t *Table[P]) Concurrent() bool { return t.dom != nil }

// Publish makes every mutation since the previous Publish visible to
// concurrent readers: it seals the live generations (and the CWT's
// pages), stores the new view with one atomic pointer swap, advances
// the epoch, and retires the backing regions of generations that died
// since the last publish. No-op in sequential mode.
//
// Publishing is per-table: a table with no mutation since its last
// publish skips the seal and swap (its published view is already
// current), so a set-wide Publish republishes only the tables a churn
// round touched — the torn-walk window between tables of one set
// shrinks to the publishes that actually changed something. The clean
// path still drains the epoch domain's limbo: retirements owed by
// other tables (or earlier publishes) must not wait for this table to
// get dirty again.
//
//nestedlint:writer the COW constructor sealing and swapping the view
func (t *Table[P]) Publish() {
	if t.dom == nil {
		return
	}
	if t.pub.Load() != nil && !t.dirty && len(t.deferred) == 0 &&
		(t.cwt == nil || !t.cwt.dirty) {
		t.dom.Collect()
		return
	}
	if t.cwt != nil {
		t.cwt.publish()
	}
	t.seal(t.cur)
	t.seal(t.old)
	t.pubGen++
	v := &tableView[P]{cur: t.cur, old: t.old, gen: t.pubGen}
	if t.migratePtr != nil {
		v.migratePtr = append([]int(nil), t.migratePtr...)
	}
	t.pub.Store(v)
	t.dirty = false
	epoch := t.dom.Advance()
	if t.rec != nil {
		t.rec.Emit(trace.Event{
			Kind: trace.KindGenPublish, Space: t.traceSpace(), Size: t.size,
			Way: trace.WayNone, Aux: epoch, Aux2: t.pubGen,
		})
	}
	for _, free := range t.deferred {
		t.dom.Retire(free)
	}
	t.deferred = t.deferred[:0]
	t.dom.Collect()
}

// PublishedGen returns the table's publish-generation counter: how
// many Publish calls actually swapped the readers' view. Writer-side
// (reads the writer's own counter); zero before EnterConcurrent.
func (t *Table[P]) PublishedGen() uint64 { return t.pubGen }

// seal freezes g against in-place mutation: the next write clones it.
func (t *Table[P]) seal(g *generation[P]) {
	if g == nil || g.sealed {
		return
	}
	g.sealed = true
	if g.shared == nil {
		g.shared = make([]bool, len(g.keys))
	}
	for i := range g.shared {
		g.shared[i] = true
	}
}

// writable returns a mutable stand-in for g, cloning a sealed
// generation and re-pointing t.cur / t.old at the clone. Callers must
// use the returned pointer for both the write and any subsequent
// identity comparison against t.cur / t.old. Nothing is sealed before
// the first publish, so sequential mode gets g back unchanged.
func (t *Table[P]) writable(g *generation[P]) *generation[P] {
	if !g.sealed {
		return g
	}
	ng := g.cowHeader()
	switch g {
	case t.cur:
		t.cur = ng
	case t.old:
		t.old = ng
	}
	return ng
}

// cowHeader returns a second header over g's ways with every way
// marked shared, so the header's first write to a way pages it (or
// copies its directory) and owns nothing yet: the outer slices are
// copied, the ways themselves are not. share hands one to a fork,
// writable to the writer of a sealed generation.
func (g *generation[P]) cowHeader() *generation[P] {
	ng := &generation[P]{
		linesPerWay: g.linesPerWay,
		mask:        g.mask,
		pow2:        g.pow2,
		keys:        slices.Clone(g.keys),
		frames:      slices.Clone(g.frames),
		hash:        g.hash,   // immutable after construction
		basePA:      g.basePA, // both headers model the same region
		pages:       slices.Clone(g.pages),
		shared:      make([]bool, len(g.keys)),
	}
	for w := range ng.shared {
		ng.shared[w] = true
	}
	return ng
}

// writeLine returns the key word and frame group of line idx of way w
// of g (a generation writable returned), ready to write in place. A
// flat way nobody shares is written where it is; otherwise the line's
// page is made the header's own first (writablePage).
func (t *Table[P]) writeLine(g *generation[P], w, idx int) (*uint64, *frameGroup[P]) {
	if g.pages[w] == nil && (g.shared == nil || !g.shared[w]) {
		return &g.keys[w][idx], &g.frames[w][idx]
	}
	pg := t.writablePage(g, w, uint(idx)/linesPerPage)
	return &pg.keys[uint(idx)%linesPerPage], &pg.frames[uint(idx)%linesPerPage]
}

// writablePage returns page p of way w of g, copying it the first time
// g writes it. A shared way first gets a directory of its own — built
// over the flat arrays when the way is flat, copied when it is already
// paged — and g owns none of its pages yet. A page is written in place
// only by the header that copied it.
func (t *Table[P]) writablePage(g *generation[P], w int, p uint) wayPage[P] {
	if g.shared[w] {
		var dir []wayPage[P]
		if g.pages[w] == nil {
			keys, frames := g.keys[w], g.frames[w]
			dir = make([]wayPage[P], pagesPerWay(g.linesPerWay))
			for i := range dir {
				lo := i * linesPerPage
				dir[i] = wayPage[P]{
					keys:   (*[linesPerPage]uint64)(keys[lo : lo+linesPerPage]),
					frames: (*[linesPerPage]frameGroup[P])(frames[lo : lo+linesPerPage]),
				}
			}
			g.keys[w], g.frames[w] = nil, nil
		} else {
			dir = slices.Clone(g.pages[w])
		}
		g.pages[w] = dir
		if g.owned == nil {
			g.owned = make([][]uint64, len(g.pages))
		}
		g.owned[w] = make([]uint64, (len(dir)+63)/64)
		g.shared[w] = false
		t.stats.COWBytes += uint64(len(dir)) * uint64(unsafe.Sizeof(wayPage[P]{}))
	}
	pg := g.pages[w][p]
	if bit := uint64(1) << (p % 64); g.owned[w][p/64]&bit == 0 {
		keys, frames := new([linesPerPage]uint64), new([linesPerPage]frameGroup[P])
		*keys, *frames = *pg.keys, *pg.frames
		pg = wayPage[P]{keys: keys, frames: frames}
		g.pages[w][p] = pg
		g.owned[w][p/64] |= bit
		t.stats.COWBytes += uint64(unsafe.Sizeof(*keys) + unsafe.Sizeof(*frames))
	}
	return pg
}

// load returns line idx of way w as a value.
func (g *generation[P]) load(w, idx int) line[P] {
	return line[P]{key: g.key(w, idx), frames: *g.group(w, idx)}
}

// store writes ln into line idx of way w of g.
func (t *Table[P]) store(g *generation[P], w, idx int, ln line[P]) {
	key, frames := t.writeLine(g, w, idx)
	*key, *frames = ln.key, ln.frames
}

// retireGeneration defers the return of g's backing regions until the
// next Publish retires them through the epoch domain — a reader
// holding the previous view may still be probing them.
func (t *Table[P]) retireGeneration(g *generation[P]) {
	alloc, ways, lines := t.alloc, t.cfg.Ways, g.linesPerWay
	base := g.basePA
	t.deferred = append(t.deferred, func() {
		for w := 0; w < ways; w++ {
			alloc.FreeRegion(base[w], uint64(lines)*LineBytes, memsim.PurposePageTable)
		}
	})
}

// cwtView is one immutable snapshot of a CWT: the page map as of the
// last publish. Pages reachable from a view are sealed; the writer
// replaces (never mutates) them.
//
//nestedlint:immutable
type cwtView[P addr.Addr] struct {
	pages map[uint64]*cwtPage[P]
}

// publish seals the CWT's pages and swaps in a fresh snapshot. Called
// by the owning table's Publish.
func (c *CWT[P]) publish() {
	if c.pub.Load() != nil && !c.dirty {
		return
	}
	//nestedlint:ignore detrange: order-independent, every page is sealed
	for _, pg := range c.pages {
		pg.sealed = true
	}
	c.mapShared = true
	c.pub.Store(&cwtView[P]{pages: c.pages})
	c.dirty = false
}

// privatizeMap clones the page map when the latest snapshot still
// shares it, so map inserts never race with view lookups.
func (c *CWT[P]) privatizeMap() {
	if !c.mapShared {
		return
	}
	c.pages = maps.Clone(c.pages)
	c.mapShared = false
	c.dirty = true
}

// RefillPA resolves the physical address a CWC refill fetches for a
// queried CWT entry. A query of an existing entry already carries its
// PA. A missing entry is the sequential first-touch point (EntryPA
// creates it); concurrent walkers are strictly read-only, so in
// concurrent mode a missing entry's refill reports address zero — a
// negative-caching fetch that costs one access and caches the absence,
// which is also what the hardware would see for a never-touched range.
//
//nestedlint:hotpath
func (c *CWT[P]) RefillPA(info *Info[P]) P {
	if info.EntryExists {
		return info.EntryPA
	}
	if c.pub.Load() != nil {
		return 0
	}
	return c.EntryPA(info.EntryKey)
}
