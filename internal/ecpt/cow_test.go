package ecpt

import (
	"testing"
	"unsafe"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/vhash"
)

// Copy-on-write costs in host bytes: one simulated 4KB table page is 64
// key words (512 B) plus 64 frame groups (2 KB), and a way's page
// directories (keys and frames) hold two pointers per page.
const (
	cowPageBytes     = uint64(linesPerPage * (unsafe.Sizeof(uint64(0)) + unsafe.Sizeof(frameGroup{})))
	cowDirEntryBytes = 16
)

// TestSequentialTableCopiesNothing holds the copy-on-write counter at 0
// for a table that no view or fork shares: its ways stay flat and are
// written in place, through inserts, removes and several resizes.
func TestSequentialTableCopiesNothing(t *testing.T) {
	alloc := memsim.NewAllocator[uint64](1<<30, 1)
	cfg := DefaultConfig(8)
	cfg.MigratePerInsert = 1
	tb := MustNew(addr.Page4K, cfg, alloc, NewCWT(addr.Page4K, alloc), 1, 7)
	rng := vhash.NewRNG(3)
	var live []uint64
	for i := 0; i < 4000; i++ {
		if len(live) > 0 && rng.Intn(4) == 0 {
			j := rng.Intn(len(live))
			tb.Remove(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		vpn := rng.Uint64n(1 << 16)
		tb.Insert(vpn, vpn<<12)
		live = append(live, vpn)
	}
	if tb.Stats().Resizes < 3 {
		t.Fatalf("%d resizes; the check wants several", tb.Stats().Resizes)
	}
	if got := tb.Stats().COWBytes; got != 0 {
		t.Fatalf("sequential table copied %d bytes; unshared ways must be written in place", got)
	}
	for w := range tb.cur.keys {
		if tb.cur.keys[w].Paged() || tb.cur.frames[w].Paged() {
			t.Fatalf("way %d of a sequential table is paged", w)
		}
	}
}

// tagInPage returns the first tag after from whose way-0 bucket in g
// lies in (or, with in unset, outside) table page p.
func tagInPage(g *generation[uint64], from uint64, p int, in bool) uint64 {
	for tag := from + 1; ; tag++ {
		if (g.index(0, tag)/linesPerPage == p) == in {
			return tag
		}
	}
}

// TestCopyOnWriteCopiesOnePage pins the unit of copying: after a
// publish, the first write to a way costs its page directory plus the
// one page written; a second write to that page costs nothing, a write
// to another page of the way costs that page, and the next publish
// starts over with a copied directory.
func TestCopyOnWriteCopiesOnePage(t *testing.T) {
	tb, _, _ := newConcurrentTable(t, 4*linesPerPage, false)
	const dir = 4 * cowDirEntryBytes
	// An empty table places a fresh line in way 0, at its way-0 bucket.
	tagA := tagInPage(tb.cur, 0, 0, false)
	pageA := tb.cur.index(0, tagA) / linesPerPage
	tagB := tagInPage(tb.cur, tagA, pageA, true)
	tagC := tagInPage(tb.cur, tagA, pageA, false)

	steps := []struct {
		what string
		do   func()
		want uint64
	}{
		{"first write after the mode switch's publish", func() { tb.Insert(tagA*8, 0x1000) }, dir + cowPageBytes},
		{"second write to the same line", func() { tb.Insert(tagA*8+1, 0x2000) }, 0},
		{"another line of the same page", func() { tb.Insert(tagB*8, 0x3000) }, 0},
		{"a line of another page", func() { tb.Insert(tagC*8, 0x4000) }, cowPageBytes},
		{"publish", tb.Publish, 0},
		{"first write after a publish", func() { tb.Remove(tagA * 8) }, dir + cowPageBytes},
	}
	for _, s := range steps {
		before := tb.Stats().COWBytes
		s.do()
		if got := tb.Stats().COWBytes - before; got != s.want {
			t.Fatalf("%s copied %d bytes, want %d", s.what, got, s.want)
		}
	}
	if !tb.cur.keys[0].Paged() || !tb.cur.frames[0].Paged() {
		t.Fatal("way 0 is not paged after writes to it while shared")
	}
	if tb.cur.keys[1].Paged() || tb.cur.keys[2].Paged() {
		t.Fatal("ways nobody wrote were paged")
	}
}

// TestForkCopiesOnlyWrittenPages: a fork shares every page with its
// template; the fork's first write costs a directory and one page, and
// the template, which owns none of the shared pages either, pays its
// own copy when it writes the same page — neither sees the other's
// write.
func TestForkCopiesOnlyWrittenPages(t *testing.T) {
	alloc := memsim.NewAllocator[uint64](1<<30, 1)
	tb := MustNew(addr.Page4K, DefaultConfig(4*linesPerPage), alloc, nil, 1, 7)
	for vpn := uint64(0); vpn < 512; vpn += 8 {
		tb.Insert(vpn, vpn<<12|0x1000)
	}
	f, err := tb.fork(alloc.Fork())
	if err != nil {
		t.Fatal(err)
	}
	const want = 4*cowDirEntryBytes + cowPageBytes
	f.Insert(8, 0xF000)
	if got := f.Stats().COWBytes; got != want {
		t.Fatalf("fork's first write copied %d bytes, want %d", got, want)
	}
	if got := tb.Stats().COWBytes; got != 0 {
		t.Fatalf("template copied %d bytes for the fork's write", got)
	}
	tb.Insert(8, 0xE000)
	if got := tb.Stats().COWBytes; got != want {
		t.Fatalf("template's first write after the fork copied %d bytes, want %d", got, want)
	}
	if fr, _ := tb.Lookup(8); fr != 0xE000 {
		t.Fatalf("template Lookup(8) = %#x, want its own write", fr)
	}
	if fr, _ := f.Lookup(8); fr != 0xF000 {
		t.Fatalf("fork Lookup(8) = %#x, want its own write", fr)
	}
}

// TestUnchangedCWTWriteDoesNotRepublish: every 4KB Map marks the PMD
// and PUD CWT entries above it has-smaller. Once the bit is set, the
// mark changes nothing, so it must neither copy a CWT page nor dirty
// the larger tables: the second 4KB map of a 2MB range republishes the
// PTE table only.
func TestUnchangedCWTWriteDoesNotRepublish(t *testing.T) {
	alloc := memsim.NewAllocator[uint64](1<<30, 3)
	set, err := NewSet[uint64](ScaledSetConfig(true, 64), alloc, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	set.EnterConcurrent(&EpochDomain{})
	set.Map(0x4000_0000, addr.Page4K, 0x7000)
	set.Publish()
	var gens [addr.NumPageSizes]uint64
	var cow [addr.NumPageSizes]uint64
	for _, size := range addr.Sizes() {
		gens[size], cow[size] = set.Table(size).PublishedGen(), set.Table(size).Stats().COWBytes
	}
	set.Map(0x4000_1000, addr.Page4K, 0x8000)
	set.Publish()
	for _, size := range []addr.PageSize{addr.Page2M, addr.Page1G} {
		tb := set.Table(size)
		if got := tb.PublishedGen(); got != gens[size] {
			t.Errorf("%s table republished (gen %d -> %d) for a has-smaller bit already set", size, gens[size], got)
		}
		if got := tb.Stats().COWBytes; got != cow[size] {
			t.Errorf("%s CWT copied %d bytes for a has-smaller bit already set", size, got-cow[size])
		}
	}
	if got := set.Table(addr.Page4K).PublishedGen(); got != gens[addr.Page4K]+1 {
		t.Errorf("PTE table gen %d -> %d, want one publish", gens[addr.Page4K], got)
	}
}
