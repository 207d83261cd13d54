package ecpt

import (
	"fmt"
	"sync"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/memsim"
)

// newConcurrentTable returns a small table in concurrent mode with its
// allocator (for accounting assertions) and domain.
func newConcurrentTable(t *testing.T, lines int, cwt bool) (*Table[uint64], *memsim.Allocator[uint64], *EpochDomain) {
	t.Helper()
	alloc := memsim.NewAllocator[uint64](1<<30, 1)
	var c *CWT[uint64]
	if cwt {
		c = NewCWT(addr.Page4K, alloc)
	}
	tb, err := New(addr.Page4K, DefaultConfig(lines), alloc, c, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	dom := &EpochDomain{}
	tb.EnterConcurrent(dom)
	return tb, alloc, dom
}

// TestSnapshotVisibility checks the publish boundary: staged mutations
// are visible to the writer-side Lookup immediately but reach
// SnapshotLookup (the reader path) only after Publish.
func TestSnapshotVisibility(t *testing.T) {
	tb, _, _ := newConcurrentTable(t, 64, false)

	tb.Insert(100, 0xAA000)
	if f, ok := tb.Lookup(100); !ok || f != 0xAA000 {
		t.Fatalf("writer-side Lookup = %#x, %v; staged insert must be writer-visible", f, ok)
	}
	if _, ok := tb.SnapshotLookup(100); ok {
		t.Fatal("SnapshotLookup sees unpublished insert")
	}
	tb.Publish()
	if f, ok := tb.SnapshotLookup(100); !ok || f != 0xAA000 {
		t.Fatalf("SnapshotLookup after publish = %#x, %v", f, ok)
	}

	tb.Remove(100)
	if f, ok := tb.SnapshotLookup(100); !ok || f != 0xAA000 {
		t.Fatalf("SnapshotLookup sees unpublished remove (= %#x, %v)", f, ok)
	}
	tb.Publish()
	if _, ok := tb.SnapshotLookup(100); ok {
		t.Fatal("published remove still resolves")
	}
}

// TestEpochReclamationWaitsForReaders proves the grace-period
// guarantee: the backing region of a generation retired by an elastic
// resize is not freed while any reader still pins an epoch from before
// the retiring publish — and is freed promptly once the pin drops.
func TestEpochReclamationWaitsForReaders(t *testing.T) {
	tb, alloc, dom := newConcurrentTable(t, 64, false)

	rd := dom.NewReader()
	rd.Enter() // pin the pre-resize epoch

	// Drive inserts until a full resize completes, so the old
	// generation's region is queued for reclamation.
	vpn, frame := uint64(0), uint64(0x1000)
	for resizes := tb.Stats().Resizes; tb.Stats().Resizes == resizes || tb.Resizing(); {
		tb.Insert(vpn*8, frame) // spread across lines
		vpn++
		frame += 0x1000
	}
	held := alloc.Used(memsim.PurposePageTable)
	tb.Publish() // retires the dead generation, then tries to collect
	if dom.Pending() == 0 {
		t.Fatal("dead generation collected while a reader was pinned")
	}
	if got := alloc.Used(memsim.PurposePageTable); got != held {
		t.Fatalf("page-table bytes changed %d -> %d while reader pinned", held, got)
	}

	// A reader that entered after the publish must not block it either.
	rd2 := dom.NewReader()
	rd2.Enter()
	defer rd2.Exit()

	rd.Exit()
	if freed := dom.Collect(); freed == 0 {
		t.Fatal("Collect freed nothing after the last old-epoch reader exited")
	}
	if dom.Pending() != 0 {
		t.Fatalf("Pending = %d after collect, want 0", dom.Pending())
	}
	if got := alloc.Used(memsim.PurposePageTable); got >= held {
		t.Fatalf("old generation's region not returned: %d -> %d", held, got)
	}

	// The published view must still resolve every translation.
	for v := uint64(0); v < vpn; v++ {
		if f, ok := tb.SnapshotLookup(v * 8); !ok || f != 0x1000+v*0x1000 {
			t.Fatalf("vpn %d lost after reclamation: %#x, %v", v*8, f, ok)
		}
	}
}

// TestIdleReadersNeverDelayReclamation checks the idle sentinel: a
// registered reader outside an Enter/Exit bracket compares greater
// than every epoch and so never holds up Collect.
func TestIdleReadersNeverDelayReclamation(t *testing.T) {
	tb, _, dom := newConcurrentTable(t, 64, false)
	for i := 0; i < 4; i++ {
		dom.NewReader() // registered, never entered
	}
	vpn := uint64(0)
	for resizes := tb.Stats().Resizes; tb.Stats().Resizes == resizes || tb.Resizing(); {
		tb.Insert(vpn*8, vpn<<12|0x1000)
		vpn++
	}
	tb.Publish()
	if dom.Pending() != 0 {
		t.Fatalf("Pending = %d with only idle readers, want 0", dom.Pending())
	}
}

// TestConcurrentStress hammers lock-free readers against a single
// writer driving cuckoo inserts, removes, elastic resizes, and
// publishes. Run with -race this is the tentpole's data-race proof.
//
// Invariant checked by every reader on every iteration: a stable
// prefix of translations inserted before the stress began — and never
// mutated after — must resolve with the right frame from whatever
// snapshot the reader observes, via both the probe path
// (AppendProbes) and the functional path (SnapshotLookup), with the
// CWT agreeing that the translation is present.
func TestConcurrentStress(t *testing.T) {
	tb, _, dom := newConcurrentTable(t, 64, true)

	// Stable prefix: published once, then immutable.
	const stable = 512
	frameOf := func(v uint64) uint64 { return (v << 12) | 0x1000 }
	for v := uint64(0); v < stable; v++ {
		tb.Insert(v, frameOf(v))
	}
	tb.Publish()

	const (
		readers     = 4
		readerIters = 30_000
		writerOps   = 30_000
		publishEach = 64
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd := dom.NewReader()
			probes := make([]Probe[uint64], 0, 8)
			var info Info[uint64]
			for i := 0; i < readerIters; i++ {
				v := uint64((i*7 + r*13) % stable)
				rd.Enter()
				found := false
				probes = tb.AppendProbes(probes[:0], v, AllWays)
				for pi := range probes {
					if probes[pi].Match && probes[pi].Frame == frameOf(v) {
						found = true
					}
				}
				if !found {
					rd.Exit()
					errs <- fmt.Errorf("reader %d: stable vpn %d not found via probes at iter %d", r, v, i)
					return
				}
				if f, ok := tb.SnapshotLookup(v); !ok || f != frameOf(v) {
					rd.Exit()
					errs <- fmt.Errorf("reader %d: SnapshotLookup(%d) = %#x, %v", r, v, f, ok)
					return
				}
				tb.CWT().QueryInto(v, &info)
				if !info.EntryExists || !info.Present {
					rd.Exit()
					errs <- fmt.Errorf("reader %d: CWT lost stable vpn %d (exists=%v present=%v)", r, v, info.EntryExists, info.Present)
					return
				}
				rd.Exit()
			}
		}()
	}

	// Single writer: churn the space above the stable prefix through
	// inserts and removes, publishing snapshots as resizes come and go.
	for op := 0; op < writerOps; op++ {
		v := stable + uint64(op%4096)
		if op%3 == 2 {
			tb.Remove(v)
		} else {
			tb.Insert(v, frameOf(v))
		}
		if op%publishEach == 0 {
			tb.Publish()
		}
	}
	tb.Publish()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// With every reader done, one more publish drains the limbo list.
	tb.Publish()
	if dom.Pending() != 0 {
		t.Fatalf("Pending = %d after readers exited, want 0", dom.Pending())
	}
	for v := uint64(0); v < stable; v++ {
		if f, ok := tb.Lookup(v); !ok || f != frameOf(v) {
			t.Fatalf("stable vpn %d corrupted by stress: %#x, %v", v, f, ok)
		}
	}
}

// TestSetConcurrentPublish exercises the set-wide concurrent protocol:
// EnterConcurrent flips every per-size table, and one Publish makes a
// whole Map/Unmap batch visible atomically per table.
func TestSetConcurrentPublish(t *testing.T) {
	alloc := memsim.NewAllocator[uint64](1<<30, 3)
	set, err := NewSet[uint64](ScaledSetConfig(false, 64), alloc, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	dom := &EpochDomain{}
	set.EnterConcurrent(dom)
	for _, size := range addr.Sizes() {
		if !set.Table(size).Concurrent() {
			t.Fatalf("%s table not in concurrent mode", size)
		}
	}
	before := dom.Epoch()

	const va, frame = uint64(0x4000_0000), uint64(0x7000)
	set.Map(va, addr.Page4K, frame)
	tb := set.Table(addr.Page4K)
	vpn := addr.VPN(va, addr.Page4K)
	if _, ok := tb.SnapshotLookup(vpn); ok {
		t.Fatal("snapshot sees unpublished Map")
	}
	set.Publish()
	if f, ok := tb.SnapshotLookup(vpn); !ok || f != frame {
		t.Fatalf("SnapshotLookup after set publish = %#x, %v", f, ok)
	}
	if dom.Epoch() <= before {
		t.Fatalf("publish did not advance the domain epoch (%d -> %d)", before, dom.Epoch())
	}

	if !set.Unmap(va, addr.Page4K) {
		t.Fatal("Unmap failed")
	}
	set.Publish()
	if _, ok := tb.SnapshotLookup(vpn); ok {
		t.Fatal("published Unmap still resolves")
	}
}

// TestConcurrentCWTRefill pins RefillPA's mode split: sequentially a
// missing entry is first-touch allocated; concurrently readers are
// strictly read-only, so the refill reports address zero (a
// negative-caching fetch) and existing entries answer with their PA.
func TestConcurrentCWTRefill(t *testing.T) {
	alloc := memsim.NewAllocator[uint64](1<<30, 5)
	c := NewCWT(addr.Page2M, alloc)
	tb := MustNew(addr.Page2M, DefaultConfig(64), alloc, c, 2, 9)
	if tb.Size() != addr.Page2M || c.Size() != addr.Page2M {
		t.Fatalf("size accessors: table %s cwt %s", tb.Size(), c.Size())
	}

	// Sequential mode: a refill of a never-touched range allocates.
	var missing Info[uint64]
	c.QueryInto(1<<20, &missing)
	if missing.EntryExists {
		t.Fatal("untouched range reports an existing entry")
	}
	if pa := c.RefillPA(&missing); pa == 0 {
		t.Fatal("sequential refill of a missing entry did not allocate")
	}
	dom := &EpochDomain{}
	tb.EnterConcurrent(dom)
	tb.Insert(42, 0x2000)
	tb.Publish()
	entries := c.Entries()

	var info Info[uint64]
	c.QueryInto(42, &info)
	if !info.EntryExists || !info.Present {
		t.Fatalf("published insert invisible to CWT query: %+v", info)
	}
	if pa := c.RefillPA(&info); pa != info.EntryPA || pa == 0 {
		t.Fatalf("existing-entry refill = %#x, want %#x", pa, info.EntryPA)
	}
	c.QueryInto(1<<21, &missing)
	if missing.EntryExists {
		t.Fatal("untouched range reports an existing entry")
	}
	if pa := c.RefillPA(&missing); pa != 0 {
		t.Fatalf("concurrent refill of a missing entry = %#x, want 0 (readers cannot allocate)", pa)
	}
	if got := c.Entries(); got != entries {
		t.Fatalf("concurrent refill changed entry count %d -> %d", entries, got)
	}
	if pa := c.EntryPA(EntryKey(42)); pa == 0 {
		t.Fatal("writer-side EntryPA of a live entry is zero")
	}
}

// TestMidResizeProbesAllocationFree pins the read paths of a table
// caught mid-resize, where a way contributes its unmigrated
// old-generation twin: AppendProbes over every way and over one way,
// and SnapshotLookup, all allocation-free with a reused buffer.
func TestMidResizeProbesAllocationFree(t *testing.T) {
	tb, _, _ := newConcurrentTable(t, 64, false)
	vpn := uint64(0)
	for ; !tb.Resizing(); vpn++ {
		tb.Insert(vpn*8, 0x1000+vpn*0x1000)
	}
	tb.Publish()
	buf := make([]Probe[uint64], 0, 2*tb.cfg.Ways)
	// Find a key and a way whose old-generation bucket is unmigrated.
	key, way := uint64(0), -1
	for v := uint64(0); v < vpn && way < 0; v++ {
		for w := 0; w < tb.cfg.Ways && way < 0; w++ {
			if len(tb.AppendProbes(buf[:0], v*8, w)) == 2 {
				key, way = v*8, w
			}
		}
	}
	if way < 0 {
		t.Fatal("no probe reached the old generation; the resize finished too early")
	}
	allWays := testing.AllocsPerRun(100, func() { buf = tb.AppendProbes(buf[:0], key, AllWays) })
	oneWay := testing.AllocsPerRun(100, func() { buf = tb.AppendProbes(buf[:0], key, way) })
	snapshot := testing.AllocsPerRun(100, func() { tb.SnapshotLookup(key) })
	if allWays != 0 || oneWay != 0 || snapshot != 0 {
		t.Errorf("mid-resize allocs/op: all ways %v, one way %v, SnapshotLookup %v; want 0", allWays, oneWay, snapshot)
	}
}
