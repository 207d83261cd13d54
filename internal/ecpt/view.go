package ecpt

import (
	"slices"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/cow"
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
// and shares the CWT's pages; the first mutation after a publish gives
// the writer a new generation header whose ways share the sealed one's
// (generation.share), and each way's key and frame stores (internal/cow)
// copy one simulated 4KB table page (64 lines: 512 B of keys, 2 KB of
// 32-bit frame numbers) the first time the header writes it. A way
// nobody shares stays flat — plain arrays read and written in place —
// which covers every sequential simulation and every table before its
// first publish.
// The first write to a shared way makes it paged: the writer's header
// gets a page directory over the same pages, copied once per header,
// and then copies only the page being written, so a churn round costs
// the pages it wrote plus one directory per way it touched, not the
// ways (megabytes) themselves. Keeping unshared ways flat keeps the
// directory load off every probe of a sequential run, which an
// always-paged layout measurably slowed (DESIGN.md §10). Every copy
// keeps the original's physical base addresses: a view's probe
// addresses stay valid until the region itself is retired through the
// epoch domain. A CWT's pages live in the same kind of store, paged
// from the start; a view holds a header over them and the CWT's page
// index, which the writer clones only when it creates a page while a
// view still holds the index.

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
// concurrent readers: it seals the live generations (and shares the
// CWT's pages), stores the new view with one atomic pointer swap, advances
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
	t.cur.sealed = true
	if t.old != nil {
		t.old.sealed = true
	}
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

// writable returns a mutable stand-in for g, a new header over a
// sealed generation's ways, re-pointing t.cur / t.old at it. Callers
// must use the returned pointer for both the write and any subsequent
// identity comparison against t.cur / t.old. Nothing is sealed before
// the first publish, so sequential mode gets g back unchanged.
func (t *Table[P]) writable(g *generation[P]) *generation[P] {
	if !g.sealed {
		return g
	}
	ng := g.share()
	switch g {
	case t.cur:
		t.cur = ng
	case t.old:
		t.old = ng
	}
	return ng
}

// share returns a second header over g's ways, every way's stores
// shared on both sides, so neither header writes a page the other can
// reach: writable hands one to the writer of a sealed generation, fork
// to a fork. It copies only the outer slices. A nil generation (no
// resize in flight) shares as nil.
func (g *generation[P]) share() *generation[P] {
	if g == nil {
		return nil
	}
	// hash is immutable after construction, and both headers model the
	// same region at basePA: the copy keeps them.
	ng := *g
	ng.sealed = false
	ng.keys, ng.frames = slices.Clone(g.keys), slices.Clone(g.frames)
	for w := range g.keys {
		ng.keys[w], ng.frames[w] = g.keys[w].Share(), g.frames[w].Share()
	}
	return &ng
}

// writeLine returns the key word and frame group of line idx of way w
// of g (a generation writable returned), ready to write in place: the
// line's page is copied first if g does not own it yet.
func (t *Table[P]) writeLine(g *generation[P], w, idx int) (*uint64, *frameGroup) {
	p, i := int(uint(idx)/linesPerPage), uint(idx)%linesPerPage
	keys, frames := g.keys[w].Write(p, &t.stats.COWBytes), g.frames[w].Write(p, &t.stats.COWBytes)
	if keys == nil || frames == nil {
		// Never taken. The compare spares the two pages the compiler's
		// own nil checks, which load each page's first byte: host cache
		// lines the write does not otherwise touch.
		panic("ecpt: nil table page")
	}
	return &keys[i], &frames[i]
}

// load returns line idx of way w as a value.
func (g *generation[P]) load(w, idx int) line {
	return line{key: g.key(w, idx), frames: *g.group(w, idx)}
}

// store writes ln into line idx of way w of g.
func (t *Table[P]) store(g *generation[P], w, idx int, ln line) {
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

// cwtView is one immutable snapshot of a CWT: its page index and a
// header over its pages as of the last publish. The writer copies (never
// mutates) a page a view can reach, and clones the index before adding
// a page to it.
//
//nestedlint:immutable
type cwtView[P addr.Addr] struct {
	index map[uint64]int32
	pages cow.Store[cwtPage[P]]
}

// page returns the view's backing page number idx, or nil.
//
//nestedlint:hotpath
func (v *cwtView[P]) page(idx uint64) *cwtPage[P] {
	slot, ok := v.index[idx]
	if !ok {
		return nil
	}
	return v.pages.At(int(slot))
}

// publish shares the CWT's pages and index with a fresh snapshot.
// Called by the owning table's Publish.
func (c *CWT[P]) publish() {
	if c.pub.Load() != nil && !c.dirty {
		return
	}
	c.pub.Store(&cwtView[P]{index: c.index, pages: c.pages.Share()})
	c.indexShared = true
	c.dirty = false
}

// RefillPA resolves the physical address a CWC refill fetches for a
// queried CWT entry. A query of an existing entry already carries its
// PA. A missing entry is the sequential first-touch point (EntryPA
// creates it), unless no frame is free for its page; concurrent walkers
// are strictly read-only. In those two cases it reports address zero,
// and the walker skips the refill, so the CWC misses again next time:
// hardware never allocates CWT storage, and a walk never fails for want
// of memory.
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
