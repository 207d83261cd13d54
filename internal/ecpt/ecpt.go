// Package ecpt implements Elastic Cuckoo Page Tables (Skarlatos et
// al., ASPLOS'20) — the hashed page tables that this paper nests for
// guest and host — together with their Cuckoo Walk Tables (CWTs).
//
// One Table maps the pages of a single page size. A process (or a
// hypervisor) owns one Table per supported size: the PTE-, PMD-, and
// PUD-ECPTs of §3. Each table is a d-ary cuckoo hash table whose unit
// of storage is a 64-byte line holding one VPN-group tag plus eight
// consecutive translations, exactly as §2.3 describes. Tables resize
// elastically: when occupancy crosses the threshold, a double-sized
// generation is allocated and lines migrate gradually, a bounded
// number per insert, while lookups remain correct throughout.
package ecpt

import (
	"fmt"
	"sync/atomic"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/cow"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/trace"
	"nestedecpt/internal/vhash"
)

// TranslationsPerLine is the number of consecutive translations packed
// into one tagged 64-byte line (§2.3: eight entries per cache line).
const TranslationsPerLine = 8

// LineBytes is the in-memory size of one ECPT line.
const LineBytes = addr.CacheLineBytes

// Config parameterizes one elastic cuckoo table.
type Config struct {
	// Ways is the paper's d (3 in the evaluation).
	Ways int
	// InitialLinesPerWay sizes each way of the first generation
	// (Table 2 gives per-size initial sizes).
	InitialLinesPerWay int
	// MaxKicks bounds the cuckoo eviction chain before forcing a
	// resize.
	MaxKicks int
	// LoadFactorLimit triggers an elastic resize when occupied lines
	// exceed this fraction of capacity.
	LoadFactorLimit float64
	// MigratePerInsert is how many old-generation buckets are rehashed
	// per insert during a resize.
	MigratePerInsert int
}

// DefaultConfig returns the evaluation's cuckoo parameters with the
// given initial way size.
func DefaultConfig(initialLinesPerWay int) Config {
	return Config{
		Ways:               3,
		InitialLinesPerWay: initialLinesPerWay,
		MaxKicks:           32,
		LoadFactorLimit:    0.6,
		MigratePerInsert:   8,
	}
}

func (c Config) validate() error {
	if c.Ways < 2 {
		return fmt.Errorf("ecpt: need at least 2 ways, got %d", c.Ways)
	}
	if c.InitialLinesPerWay < 1 {
		return fmt.Errorf("ecpt: need at least 1 line per way, got %d", c.InitialLinesPerWay)
	}
	if c.MaxKicks < 1 {
		return fmt.Errorf("ecpt: need at least 1 kick, got %d", c.MaxKicks)
	}
	if c.LoadFactorLimit <= 0 || c.LoadFactorLimit >= 1 {
		return fmt.Errorf("ecpt: load factor limit %v out of (0,1)", c.LoadFactorLimit)
	}
	if c.MigratePerInsert < 1 {
		return fmt.Errorf("ecpt: need at least 1 migrated bucket per insert, got %d", c.MigratePerInsert)
	}
	return nil
}

// A line's tag and bookkeeping pack into one key word: tag+1 (the tag
// is VPN >> 3) in the low keyTagBits bits, the present mask over the 8
// slots in the top 8, and 0 for an empty line. A page number of a
// 64-bit address has at most 52 bits, so tag+1 needs 50; Insert checks
// the bound.
const (
	keyTagBits = 56
	keyTagMask = 1<<keyTagBits - 1
)

func makeKey(tag uint64, present uint8) uint64 { return uint64(present)<<keyTagBits | (tag + 1) }

// keyHolds reports whether key is the key of a live line tagged tag.
func keyHolds(key, tag uint64) bool { return key&keyTagMask == tag+1 }

func keyTag(key uint64) uint64    { return key&keyTagMask - 1 }
func keyPresent(key uint64) uint8 { return uint8(key >> keyTagBits) }

// frameGroup is the eight consecutive translations of one line: 64
// host bytes, one simulated (and one host) cache line.
type frameGroup[P addr.Addr] [TranslationsPerLine]P

// line is one tagged group of eight consecutive translations mapping
// into address space P, as a value: what a cuckoo displacement carries
// between buckets. At rest a line is split across a way's keys and
// frames arrays.
type line[P addr.Addr] struct {
	key    uint64
	frames frameGroup[P]
}

// linesPerPage is how many ECPT lines one simulated 4KB table page
// holds: the unit copy-on-write copies (view.go).
const linesPerPage = 4096 / LineBytes

// generation is one allocation of the elastic table: d parallel arrays
// with per-way hash functions and physical base addresses.
type generation[P addr.Addr] struct {
	linesPerWay int
	// mask enables the index fast path when linesPerWay is a power of
	// two (Table 2's sizes all are, and doubling resizes preserve it):
	// hash & mask replaces a hardware divide on the probe hot path.
	// pow2 gates it because mask == 0 is the legitimate mask of a
	// one-line way.
	mask uint64
	pow2 bool
	// keys[w] and frames[w] hold way w, one simulated 4KB table page
	// (64 lines) a store page: line i is word i%64 of key page i/64 and
	// group i%64 of frame page i/64. The split keeps every probe that
	// does not match (findLine, fillProbe, tryPlace's empty-bucket
	// test) inside the dense key pages; a match touches exactly one
	// frame group. A way stays flat until a header writes it while
	// another shares it (view.go).
	keys   []cow.Store[[linesPerPage]uint64]
	frames []cow.Store[[linesPerPage]frameGroup[P]]
	hash   []vhash.Func
	basePA []P
	// sealed marks a generation reachable from a published view: it
	// must not be written, and the next write goes to a new header over
	// its ways (view.go). Writer-private — readers never consult it.
	sealed bool
}

// newGeneration allocates a generation of linesPerWay lines a way, or
// returns the allocator's error having allocated nothing.
func (t *Table[P]) newGeneration(linesPerWay int) (*generation[P], error) {
	bytes := uint64(linesPerWay) * LineBytes
	if err := t.alloc.MetaFits(0, t.cfg.Ways, bytes, memsim.PurposePageTable); err != nil {
		return nil, err
	}
	g := &generation[P]{
		linesPerWay: linesPerWay,
		mask:        uint64(linesPerWay - 1),
		pow2:        linesPerWay&(linesPerWay-1) == 0,
		keys:        make([]cow.Store[[linesPerPage]uint64], t.cfg.Ways),
		frames:      make([]cow.Store[[linesPerPage]frameGroup[P]], t.cfg.Ways),
		hash:        make([]vhash.Func, t.cfg.Ways),
		basePA:      make([]P, t.cfg.Ways),
	}
	for w := range g.basePA {
		base, err := t.alloc.AllocRegion(bytes, memsim.PurposePageTable)
		if err != nil {
			return nil, err
		}
		g.basePA[w] = base
	}
	t.clear(g)
	return g, nil
}

// clear empties g's ways and gives them hash functions no generation
// of the table has used before.
func (t *Table[P]) clear(g *generation[P]) {
	pages := pagesPerWay(g.linesPerWay)
	for w := range g.keys {
		g.keys[w] = cow.Flat[[linesPerPage]uint64](pages)
		g.frames[w] = cow.Flat[[linesPerPage]frameGroup[P]](pages)
		g.hash[w] = vhash.New(t.hashSpace+t.generations*t.cfg.Ways, w)
	}
	t.generations++
}

func (g *generation[P]) index(w int, tag uint64) int {
	h := g.hash[w].Hash(tag)
	if g.pow2 {
		return int(h & g.mask)
	}
	return int(h % uint64(g.linesPerWay))
}

// pagesPerWay is how many simulated 4KB table pages a way of
// linesPerWay lines spans.
func pagesPerWay(linesPerWay int) int { return (linesPerWay + linesPerPage - 1) / linesPerPage }

// key returns the key word of line idx of way w.
//
//nestedlint:hotpath
func (g *generation[P]) key(w, idx int) uint64 {
	return g.keys[w].At(int(uint(idx) / linesPerPage))[uint(idx)%linesPerPage]
}

// group returns the frame group of line idx of way w, for reading.
//
//nestedlint:hotpath
func (g *generation[P]) group(w, idx int) *frameGroup[P] {
	return &g.frames[w].At(int(uint(idx) / linesPerPage))[uint(idx)%linesPerPage]
}

func (g *generation[P]) linePA(w, idx int) P {
	return g.basePA[w] + P(uint64(idx)*LineBytes)
}

func (g *generation[P]) bytes() uint64 {
	return uint64(len(g.keys)) * uint64(g.linesPerWay) * LineBytes
}

// Stats counts structural events in the table's lifetime.
type Stats struct {
	Inserts  uint64
	Removes  uint64
	Kicks    uint64
	Resizes  uint64
	Migrated uint64
	// COWBytes is the host bytes copy-on-write copied: table pages,
	// page directories and CWT pages. It stays 0 for a table that no
	// published view or fork ever shared.
	COWBytes uint64
}

// Table is one elastic cuckoo page table for a single page size. It
// maps page numbers (plain uint64 VPNs — the caller owns the
// virtual-side space) to frames in physical space P: gPA for guest
// tables, hPA for host tables. Its own lines live at P-typed physical
// addresses too, which is what AppendProbes hands walkers.
type Table[P addr.Addr] struct {
	size  addr.PageSize
	cfg   Config
	alloc *memsim.Allocator[P]
	cwt   *CWT[P] // may be nil (e.g. no PTE-gCWT)

	cur *generation[P]
	// old is non-nil while an elastic resize is migrating lines out of
	// the previous generation.
	old *generation[P]
	// migratePtr[w] is the next old-generation bucket of way w to
	// migrate; buckets below it are guaranteed empty.
	migratePtr []int

	occupied    int
	entries     uint64
	generations int
	hashSpace   int
	rng         *vhash.RNG
	stats       Stats
	// kicks is tryPlace's record of the displacement chain it is
	// following, so that a chain that fails can be put back.
	kicks []displaced[P]
	// rec receives structural trace events (resize, migration); nil
	// (the default) disables tracing.
	rec *trace.Recorder

	// Concurrent mode (view.go): dom is the epoch domain reclaiming
	// dead generations (nil = sequential mode, the bit-identical
	// original paths); pub holds the latest published snapshot; and
	// deferred collects the region-free callbacks of generations that
	// died since the last Publish. dirty tracks whether any mutation
	// landed since the last publish — a clean Publish skips the seal
	// and view swap entirely (per-table publish batching), so a set
	// publish only republishes the tables the mutation round touched.
	// pubGen counts the publishes that actually swapped the view; it is
	// stamped into each view and reported in KindGenPublish's Aux2,
	// which is what the serve-mode audit keys its staleness windows on.
	dom      *EpochDomain
	pub      atomic.Pointer[tableView[P]]
	deferred []func()
	dirty    bool
	pubGen   uint64

	// cursor names the slot findLine last found, or tryPlace last filled
	// without a kick, so a run of consecutive pages searches its line
	// once. Writer-private: findLine validates it before every use, and
	// no reader path reads it.
	cursor lineCursor[P]
}

// displaced is one displacement of a cuckoo chain: victim was evicted
// from line idx of way w.
type displaced[P addr.Addr] struct {
	w, idx int
	victim line[P]
}

// lineCursor names line idx of way w of generation g.
type lineCursor[P addr.Addr] struct {
	g      *generation[P]
	w, idx int
}

// SetRecorder attaches a trace recorder to the table's structural
// events. A nil recorder disables tracing.
func (t *Table[P]) SetRecorder(r *trace.Recorder) { t.rec = r }

// traceSpace tags the table's events with the address space its frames
// (and its own lines) live in: guest for gECPTs, host for hECPTs.
func (t *Table[P]) traceSpace() trace.Space { return trace.SpaceOf[P]() }

// New creates an empty table for the given page size. hashSpace
// disambiguates the hash functions of distinct tables (e.g. guest vs
// host) so they never share collision patterns; cwt may be nil when
// the design keeps no CWT for this size (§4.2).
func New[P addr.Addr](size addr.PageSize, cfg Config, alloc *memsim.Allocator[P], cwt *CWT[P], hashSpace int, seed uint64) (*Table[P], error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &Table[P]{
		size:      size,
		cfg:       cfg,
		alloc:     alloc,
		cwt:       cwt,
		hashSpace: hashSpace * 1024,
		rng:       vhash.NewRNG(seed ^ 0xEC97EC97),
	}
	cur, err := t.newGeneration(cfg.InitialLinesPerWay)
	if err != nil {
		return nil, err
	}
	t.cur = cur
	// An empty slot of a live generation: never nil, and holds no tag.
	t.cursor.g = t.cur
	return t, nil
}

// MustNew is New but panics on configuration errors; intended for
// package-internal wiring where configs are static.
func MustNew[P addr.Addr](size addr.PageSize, cfg Config, alloc *memsim.Allocator[P], cwt *CWT[P], hashSpace int, seed uint64) *Table[P] {
	t, err := New(size, cfg, alloc, cwt, hashSpace, seed)
	if err != nil {
		panic(err)
	}
	return t
}

// Size returns the page size this table maps.
func (t *Table[P]) Size() addr.PageSize { return t.size }

// Ways returns the paper's d.
func (t *Table[P]) Ways() int { return t.cfg.Ways }

// Entries returns the number of live translations.
func (t *Table[P]) Entries() uint64 { return t.entries }

// OccupiedLines returns the number of live lines across generations.
func (t *Table[P]) OccupiedLines() int { return t.occupied }

// CapacityLines returns the line capacity across live generations.
func (t *Table[P]) CapacityLines() int {
	c := t.cfg.Ways * t.cur.linesPerWay
	if t.old != nil {
		c += t.cfg.Ways * t.old.linesPerWay
	}
	return c
}

// Resizing reports whether an elastic resize is in flight.
func (t *Table[P]) Resizing() bool { return t.old != nil }

// Stats returns a copy of the structural statistics, the CWT's
// copy-on-write bytes included.
func (t *Table[P]) Stats() Stats {
	s := t.stats
	if t.cwt != nil {
		s.COWBytes += t.cwt.cowBytes
	}
	return s
}

// MemoryBytes returns the bytes of physical memory the table's arrays
// occupy (both generations during a resize), for §9.5 accounting.
func (t *Table[P]) MemoryBytes() uint64 {
	b := t.cur.bytes()
	if t.old != nil {
		b += t.old.bytes()
	}
	return b
}

// CWT returns the table's cuckoo walk table, or nil.
//
//nestedlint:hotpath
func (t *Table[P]) CWT() *CWT[P] { return t.cwt }

func lineTag(vpn uint64) uint64 { return vpn / TranslationsPerLine }
func lineSlot(vpn uint64) int   { return int(vpn % TranslationsPerLine) }

// findLine locates the line holding tag in the writer's state, if
// present, trying the cursor before searching. The cursor needs no
// invalidation: a tag lives in at most one live slot (migration empties
// every old-generation slot it passes), so a live slot holding tag is
// the one the search would find. A slot since emptied or refilled fails
// the key compare; a generation a resize retired, or a sealed one
// writable replaced with its clone, fails the generation compare.
func (t *Table[P]) findLine(tag uint64) (g *generation[P], w, idx int, key uint64) {
	if c := t.cursor; c.g == t.cur || c.g == t.old {
		if key := c.g.key(c.w, c.idx); keyHolds(key, tag) {
			return c.g, c.w, c.idx, key
		}
	}
	if g, w, idx, key = findLineIn(t.cur, t.old, t.migratePtr, tag); key != 0 {
		t.cursor = lineCursor[P]{g, w, idx}
	}
	return g, w, idx, key
}

// findLineIn locates the line holding tag in one state of the table —
// the writer's, or a published view's: the current generation and,
// mid-resize, the buckets of old at or past the migration frontier mig.
// It returns the line's key word too, 0 when tag has no line.
//
//nestedlint:hotpath
func findLineIn[P addr.Addr](cur, old *generation[P], mig []int, tag uint64) (g *generation[P], w, idx int, key uint64) {
	for w := range cur.keys {
		idx := cur.index(w, tag)
		if key := cur.key(w, idx); keyHolds(key, tag) {
			return cur, w, idx, key
		}
	}
	if old != nil {
		for w := range old.keys {
			idx := old.index(w, tag)
			if idx < mig[w] {
				continue // already migrated out
			}
			if key := old.key(w, idx); keyHolds(key, tag) {
				return old, w, idx, key
			}
		}
	}
	return nil, 0, 0, 0
}

// Insert maps vpn (a page number in this table's page size) to the
// given frame base. Inserting an existing vpn updates its frame. An
// insert that cannot finish writes nothing: it returns an error when
// vpn does not fit a line key, and the allocator's
// *memsim.OutOfMemoryError when there is no room for what it can
// allocate: a CWT page for vpn's entry and the doubled generation of a
// resize it starts.
func (t *Table[P]) Insert(vpn uint64, frame P) error { return t.insert(vpn, frame, 0) }

// insert is Insert reserving room for pages more CWT pages, which the
// caller may create once the insert succeeds (Set.Map's has-smaller
// bits).
func (t *Table[P]) insert(vpn uint64, frame P, pages int) error {
	tag, slot := lineTag(vpn), lineSlot(vpn)
	if tag >= keyTagMask {
		return fmt.Errorf("ecpt: page number %#x does not fit a %d-bit line key", vpn, keyTagBits)
	}
	if t.cwt != nil {
		pages++
	}
	g, w, idx, key := t.findLine(tag)
	// A new line that takes occupancy past the load-factor limit starts
	// a resize: the one generation an insert can know it allocates
	// before writing.
	grow := key == 0 && t.old == nil &&
		float64(t.occupied+1) > t.cfg.LoadFactorLimit*float64(t.cfg.Ways*t.cur.linesPerWay)
	if err := t.fits(pages, grow); err != nil {
		return err
	}
	if key != 0 {
		keyp, frames := t.writeLine(t.writable(g), w, idx)
		if keyPresent(key)&(1<<slot) == 0 {
			*keyp = key | 1<<(keyTagBits+slot)
			t.entries++
		}
		frames[slot] = frame
	} else {
		ln := line[P]{key: makeKey(tag, 1<<slot)}
		ln.frames[slot] = frame
		if !t.tryPlace(ln) {
			// The current generation has no room for the line even by
			// displacement: only a resize makes room. tryPlace put the
			// chain back, so an insert that cannot have the resize's
			// generation leaves nothing behind.
			if err := t.fits(pages, true); err != nil {
				return err
			}
			if err := t.startResize(&ln); err != nil {
				return err
			}
			grow = false // that resize is the one this insert starts
		}
		t.entries++
		t.occupied++
	}
	t.stats.Inserts++
	t.dirty = true
	if t.cwt != nil {
		t.cwt.SetPresent(vpn)
	}
	if grow {
		if err := t.startResize(nil); err != nil {
			return err
		}
	}
	t.continueMigration()
	return nil
}

// fits returns the allocator's out-of-memory error unless it has room
// for pages CWT pages and, when grow is set, for the generation a
// resize allocates.
func (t *Table[P]) fits(pages int, grow bool) error {
	if grow {
		return t.alloc.MetaFits(pages, t.cfg.Ways, 2*uint64(t.cur.linesPerWay)*LineBytes, memsim.PurposePageTable)
	}
	return t.alloc.MetaFits(pages, 0, 0, memsim.PurposeCWT)
}

// tryPlace attempts the cuckoo insertion of ln into the current
// generation, displacing lines as needed up to MaxKicks. A chain that
// runs out of kicks is put back, last displacement first, and tryPlace
// reports false: the lines, the CWT and the cuckoo RNG are as they
// were, and ln is still the caller's. The CWT learns a chain's
// placements only once the chain succeeds.
func (t *Table[P]) tryPlace(ln line[P]) bool {
	cur := ln
	lastWay := -1
	var rng vhash.RNG
	// Unseal the destination once up front: every code path below
	// writes into the current generation.
	tcur := t.writable(t.cur)
	for kick := 0; kick <= t.cfg.MaxKicks; kick++ {
		tag := keyTag(cur.key)
		for w := 0; w < t.cfg.Ways; w++ {
			idx := tcur.index(w, tag)
			if tcur.key(w, idx) == 0 {
				t.store(tcur, w, idx, cur)
				if t.cwt != nil {
					placed := keyTag(ln.key)
					for _, k := range t.kicks[:kick] {
						t.cwt.setWay(placed, uint8(k.w))
						placed = keyTag(k.victim.key)
					}
					t.cwt.setWay(tag, uint8(w))
				}
				if kick == 0 {
					t.cursor = lineCursor[P]{tcur, w, idx}
				}
				return true
			}
		}
		if kick == 0 {
			rng, t.kicks = *t.rng, t.kicks[:0]
		}
		// All d candidate buckets are full: evict one resident (never
		// from the way we just came from) and continue with it.
		w := t.rng.Intn(t.cfg.Ways)
		if w == lastWay {
			w = (w + 1) % t.cfg.Ways
		}
		idx := tcur.index(w, tag)
		victim := tcur.load(w, idx)
		t.store(tcur, w, idx, cur)
		t.kicks = append(t.kicks, displaced[P]{w, idx, victim})
		cur = victim
		lastWay = w
		t.stats.Kicks++
	}
	// Linear probing would break the cuckoo lookup invariant, so the
	// chain is undone and the caller decides.
	for i := len(t.kicks) - 1; i >= 0; i-- {
		k := t.kicks[i]
		t.store(tcur, k.w, k.idx, k.victim)
	}
	*t.rng = rng
	return false
}

// Remove unmaps vpn. It reports whether the mapping existed.
func (t *Table[P]) Remove(vpn uint64) bool {
	tag, slot := lineTag(vpn), lineSlot(vpn)
	g, w, idx, key := t.findLine(tag)
	if keyPresent(key)&(1<<slot) == 0 {
		return false
	}
	keyp, frames := t.writeLine(t.writable(g), w, idx)
	key &^= 1 << (keyTagBits + slot)
	if keyPresent(key) == 0 {
		key = 0 // the line's last translation: the bucket is empty again
	}
	*keyp = key
	frames[slot] = 0
	t.entries--
	t.stats.Removes++
	t.dirty = true
	if t.cwt != nil {
		t.cwt.ClearPresent(vpn)
	}
	if key == 0 {
		t.occupied--
		if t.cwt != nil {
			t.cwt.clearWay(tag)
		}
	}
	return true
}

// Lookup resolves vpn functionally (no timing). It reads the writer's
// own state — including mutations staged since the last Publish — so
// in concurrent mode it belongs to the mutating goroutine (the kernel
// and hypervisor fault paths depend on seeing their unpublished maps);
// concurrent readers use SnapshotLookup.
func (t *Table[P]) Lookup(vpn uint64) (frame P, ok bool) {
	g, w, idx, key := t.findLine(lineTag(vpn))
	return slotFrame(g, key, w, idx, lineSlot(vpn))
}

// SnapshotLookup resolves vpn against the state readers see
// (readState): the latest published view in concurrent mode, the live
// tables in sequential mode. It is the form safe to call from
// concurrent reader goroutines.
//
//nestedlint:hotpath
func (t *Table[P]) SnapshotLookup(vpn uint64) (frame P, ok bool) {
	cur, old, mig := t.readState()
	g, w, idx, key := findLineIn(cur, old, mig, lineTag(vpn))
	return slotFrame(g, key, w, idx, lineSlot(vpn))
}

// slotFrame returns the frame in slot of the line a search found at
// line idx of way w of g with key word key (0: no line), if present.
func slotFrame[P addr.Addr](g *generation[P], key uint64, w, idx, slot int) (frame P, ok bool) {
	if keyPresent(key)&(1<<slot) == 0 {
		return 0, false
	}
	return g.group(w, idx)[slot], true
}

// startResize begins an elastic resize into a generation twice the
// current one, which the caller has checked fits. ln, when not nil, is
// a line the current generation had no room for, placed in the new
// one. A resize still in flight is finished by moving the lines it has
// not migrated straight into the new generation, so at most two
// generations are ever live. Should a displacement chain fail even in
// the new generation, it is filled again under fresh hash functions,
// in the same regions.
func (t *Table[P]) startResize(ln *line[P]) error {
	n, err := t.newGeneration(2 * t.cur.linesPerWay)
	if err != nil {
		return err
	}
	var moving []line[P]
	if t.old != nil {
		for w := range t.old.keys {
			for idx := t.migratePtr[w]; idx < t.old.linesPerWay; idx++ {
				if t.old.key(w, idx) != 0 {
					moving = append(moving, t.old.load(w, idx))
				}
			}
		}
		t.stats.Migrated += uint64(len(moving))
	}
	if ln != nil {
		moving = append(moving, *ln)
	}
	prev := t.cur
	t.cur = n
	for !t.placeAll(moving) {
		t.clear(n)
	}
	if t.old != nil {
		t.completeResize()
	}
	t.stats.Resizes++
	t.old = prev
	t.migratePtr = make([]int, t.cfg.Ways)
	if t.rec != nil {
		// Structural events carry no cycle time (Now=0): the table does
		// not know the walker clock; Seq orders them within the trace.
		t.rec.Emit(trace.Event{
			Kind: trace.KindResizeStart, Space: t.traceSpace(), Size: t.size,
			Way: trace.WayNone, Aux: uint64(t.cur.linesPerWay),
		})
	}
	return nil
}

// placeAll places lines into the current generation, reporting whether
// every one found a bucket.
func (t *Table[P]) placeAll(lines []line[P]) bool {
	for _, ln := range lines {
		if !t.tryPlace(ln) {
			return false
		}
	}
	return true
}

// continueMigration migrates a bounded number of old-generation
// buckets, preserving the elastic property that table growth never
// stalls the process. A line the current generation has no room for
// goes back to its bucket, and migration resumes there on a later
// insert (or the next resize moves it).
func (t *Table[P]) continueMigration() {
	old := t.old
	if old == nil {
		return
	}
	budget := t.cfg.MigratePerInsert
	for budget > 0 {
		progressed := false
		for w := 0; w < t.cfg.Ways && budget > 0; w++ {
			if t.migratePtr[w] >= old.linesPerWay {
				continue
			}
			idx := t.migratePtr[w]
			t.migratePtr[w]++
			progressed = true
			budget--
			if old.key(w, idx) != 0 {
				ln := old.load(w, idx)
				// writable re-points t.old at the clone it may make.
				old = t.writable(old)
				t.store(old, w, idx, line[P]{})
				if !t.tryPlace(ln) {
					t.store(old, w, idx, ln)
					t.migratePtr[w] = idx
					return
				}
				t.stats.Migrated++
				if t.rec != nil {
					t.rec.Emit(trace.Event{
						Kind: trace.KindMigrateLine, Space: t.traceSpace(),
						Size: t.size, Way: int8(w), Aux: keyTag(ln.key),
					})
				}
			}
		}
		if !progressed {
			break
		}
	}
	for w := 0; w < t.cfg.Ways; w++ {
		if t.migratePtr[w] < old.linesPerWay {
			return
		}
	}
	t.completeResize()
}

func (t *Table[P]) completeResize() {
	if t.dom != nil {
		// Readers holding the last published view may still probe the
		// dead generation's region: retire it through the epoch domain
		// instead of freeing it in place.
		t.retireGeneration(t.old)
	} else {
		for w := 0; w < t.cfg.Ways; w++ {
			t.alloc.FreeRegion(t.old.basePA[w], uint64(t.old.linesPerWay)*LineBytes, memsim.PurposePageTable)
		}
	}
	t.old = nil
	t.migratePtr = nil
	if t.rec != nil {
		t.rec.Emit(trace.Event{
			Kind: trace.KindResizeEnd, Space: t.traceSpace(), Size: t.size,
			Way: trace.WayNone, Aux: t.stats.Migrated,
		})
	}
}
