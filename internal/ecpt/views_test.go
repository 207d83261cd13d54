package ecpt

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/vhash"
)

// answer is everything the reader-facing paths say about one page
// number: the probes of all ways, SnapshotLookup and the CWT query.
type answer struct {
	probes []Probe[uint64]
	frame  uint64
	ok     bool
	info   Info[uint64]
}

func (a answer) equal(b answer) bool {
	return slices.Equal(a.probes, b.probes) && a.frame == b.frame && a.ok == b.ok && a.info == b.info
}

func answerOf(tb *Table[uint64], vpn uint64) answer {
	var a answer
	a.probes = tb.AppendProbes(nil, vpn, AllWays)
	a.frame, a.ok = tb.SnapshotLookup(vpn)
	if c := tb.CWT(); c != nil {
		c.QueryInto(vpn, &a.info)
	}
	return a
}

// pinnedTable returns a table whose only state is one published view
// (and its CWT's), so the real read paths answer as that view does
// however far the writer has moved on.
func pinnedTable(tb *Table[uint64], v *tableView[uint64], cv *cwtView[uint64]) *Table[uint64] {
	p := &Table[uint64]{size: tb.size, cfg: tb.cfg}
	p.pub.Store(v)
	if cv != nil {
		p.cwt = &CWT[uint64]{size: tb.cwt.size}
		p.cwt.pub.Store(cv)
	}
	return p
}

// checkModel checks every reader-facing answer for vpn against model:
// the lookup, exactly one matching probe carrying the frame when vpn is
// mapped, exactly one tag match when its line holds any translation,
// and a CWT entry naming the way that match is in.
func checkModel(tb *Table[uint64], model map[uint64]uint64, vpn uint64) error {
	a := answerOf(tb, vpn)
	want, mapped := model[vpn]
	if a.ok != mapped || a.frame != want {
		return fmt.Errorf("SnapshotLookup(%#x) = %#x,%v; want %#x,%v", vpn, a.frame, a.ok, want, mapped)
	}
	lineLive := false
	for v := vpn &^ (TranslationsPerLine - 1); v < vpn|(TranslationsPerLine-1)+1; v++ {
		_, in := model[v]
		lineLive = lineLive || in
	}
	var tags, matches int
	for _, p := range a.probes {
		if p.TagMatch {
			tags++
		}
		if p.Match {
			matches++
			if p.Frame != want {
				return fmt.Errorf("probe of %#x matched frame %#x, want %#x", vpn, p.Frame, want)
			}
			if tb.CWT() != nil && (!a.info.WayKnown || int(a.info.Way) != p.Way) {
				return fmt.Errorf("probe of %#x matched in way %d, CWT says %+v", vpn, p.Way, a.info)
			}
		}
	}
	if wantTags := map[bool]int{false: 0, true: 1}; tags != wantTags[lineLive] || matches != wantTags[mapped] {
		return fmt.Errorf("probes of %#x: %d tag matches, %d matches; line live %v, mapped %v: %+v", vpn, tags, matches, lineLive, mapped, a.probes)
	}
	if tb.CWT() != nil && (a.info.Present != mapped || a.info.WayKnown != lineLive) {
		return fmt.Errorf("CWT query of %#x = %+v; mapped %v, line live %v", vpn, a.info, mapped, lineLive)
	}
	return nil
}

// fuzzSide is one table the fuzz stream writes, with its model.
type fuzzSide struct {
	tb    *Table[uint64]
	alloc *memsim.Allocator[uint64]
	model map[uint64]uint64
}

// fuzzPin is a view pinned at some point of the stream and the answers
// it gave then.
type fuzzPin struct {
	tb      *Table[uint64]
	vpns    []uint64
	answers []answer
}

// FuzzTableViews drives one op stream — insert, remove, publish, fork,
// pin a view — over three kinds of table: a sequential one, a
// concurrent one taking the same writes and publishing at fuzz-chosen
// points, and forks (of the sequential table or of other forks) taken
// at fuzz-chosen points, each then written on its own. Every table
// answers like its map model; the concurrent one answers like the
// sequential one as of its last publish, allocator bytes included;
// every pinned view answers to the end exactly as it did when pinned;
// and a fork's writes never show in its template, nor the template's
// in the fork.
//
// The first byte picks the way size (8, 64, 128 or 200 lines: one
// partial page, one page, two pages, a non-power-of-two) and the
// migration rate; then every four bytes are one op: kind, a 13-bit
// page number over two bytes, and the side it targets.
func FuzzTableViews(f *testing.F) {
	f.Add([]byte{1, 0, 8, 0, 0, 5, 0, 0, 0, 0, 9, 0, 0, 7, 0, 0, 0, 0, 16, 0, 0, 5, 0, 0, 0})
	f.Add([]byte{2, 0, 1, 0, 0, 6, 0, 0, 0, 0, 2, 0, 1, 0, 3, 0, 0, 3, 1, 0, 1, 5, 0, 0, 0})
	// Random streams: 8-line ways that resize four times into two-page
	// ways, at two migration rates, and a 200-line way.
	for _, sd := range []struct {
		seed  uint64
		first byte
		n     int
	}{{1, 0, 4000}, {7, 4, 3000}, {42, 3, 2000}} {
		rng := vhash.NewRNG(sd.seed)
		data := make([]byte, sd.n)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		data[0] = sd.first
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := DefaultConfig([]int{8, 64, 128, 200}[data[0]%4])
		cfg.MigratePerInsert = 1 + int(data[0]>>2)%4
		build := func() fuzzSide {
			alloc := memsim.NewAllocator[uint64](1<<32, 5)
			return fuzzSide{MustNew(addr.Page4K, cfg, alloc, NewCWT(addr.Page4K, alloc), 1, 9), alloc, map[uint64]uint64{}}
		}
		sides := []fuzzSide{build()}
		con := build()
		con.tb.EnterConcurrent(&EpochDomain{})
		published := map[uint64]uint64{}
		var pins []fuzzPin

		// checkCon compares the concurrent table with the sequential
		// one it mirrors; only right straight after a publish. Probe
		// addresses are left out: a generation that died since the last
		// publish still holds its region until the publish retires it,
		// so when two resizes complete between publishes the later
		// generation lands elsewhere than the sequential table's.
		checkCon := func(vpns []uint64) {
			for _, why := range []memsim.Purpose{memsim.PurposePageTable, memsim.PurposeCWT} {
				if a, b := sides[0].alloc.Used(why), con.alloc.Used(why); a != b {
					t.Fatalf("%v bytes: %d sequential, %d concurrent", why, a, b)
				}
			}
			for _, vpn := range vpns {
				a, b := answerOf(sides[0].tb, vpn), answerOf(con.tb, vpn)
				for _, x := range [][]Probe[uint64]{a.probes, b.probes} {
					for i := range x {
						x[i].PA = 0
					}
				}
				if !a.equal(b) {
					t.Fatalf("answers for %#x differ:\nsequential %+v\nconcurrent %+v", vpn, a, b)
				}
			}
		}
		for i := 1; i+3 < len(data); i += 4 {
			vpn := uint64(data[i+1]) | uint64(data[i+2]&0x1F)<<8
			si := int(data[i+3]) % len(sides)
			s := &sides[si]
			sample := []uint64{vpn, vpn ^ 1, vpn + TranslationsPerLine}
			switch data[i] % 8 {
			case 0, 1, 2:
				frame := (uint64(i)<<13 | vpn) << 12
				s.tb.Insert(vpn, frame)
				s.model[vpn] = frame
				if si == 0 {
					con.tb.Insert(vpn, frame)
				}
			case 3, 4:
				_, mapped := s.model[vpn]
				if got := s.tb.Remove(vpn); got != mapped {
					t.Fatalf("side %d: Remove(%#x) = %v, want %v", si, vpn, got, mapped)
				}
				delete(s.model, vpn)
				if si == 0 {
					con.tb.Remove(vpn)
				}
			case 5:
				con.tb.Publish()
				published = maps.Clone(sides[0].model)
				checkCon(sample)
			case 6:
				if len(sides) < 5 {
					alloc := s.alloc.Fork()
					ft, err := s.tb.fork(alloc)
					if err != nil {
						t.Fatal(err)
					}
					sides = append(sides, fuzzSide{ft, alloc, maps.Clone(s.model)})
				}
			case 7:
				if len(pins) < 8 {
					p := fuzzPin{tb: pinnedTable(con.tb, con.tb.pub.Load(), con.tb.cwt.pub.Load())}
					for v := range published {
						p.vpns = append(p.vpns, v)
					}
					slices.Sort(p.vpns)
					p.vpns = append(p.vpns, sample...)
					for _, v := range p.vpns {
						if err := checkModel(p.tb, published, v); err != nil {
							t.Fatalf("pinning: %v", err)
						}
						p.answers = append(p.answers, answerOf(p.tb, v))
					}
					pins = append(pins, p)
				}
			}
			// The op's own side here; every side over every page number
			// at the end, which is where a write showing on another side
			// would surface.
			for _, v := range sample {
				if err := checkModel(s.tb, s.model, v); err != nil {
					t.Fatalf("op %d, side %d: %v", i/4, si, err)
				}
			}
			for _, v := range sample {
				if err := checkModel(con.tb, published, v); err != nil {
					t.Fatalf("op %d, concurrent: %v", i/4, err)
				}
				f1, ok1 := sides[0].tb.Lookup(v)
				f2, ok2 := con.tb.Lookup(v)
				if f1 != f2 || ok1 != ok2 {
					t.Fatalf("op %d: writer Lookup(%#x) = %#x,%v sequential, %#x,%v concurrent", i/4, v, f1, ok1, f2, ok2)
				}
			}
		}

		// The end: every side against its model over every page number
		// any model or pin ever named, the concurrent table once more
		// after a publish, and every pinned view unchanged.
		var all []uint64
		for _, s := range sides {
			for v := range s.model {
				all = append(all, v, v^1)
			}
		}
		for _, p := range pins {
			all = append(all, p.vpns...)
		}
		slices.Sort(all)
		all = slices.Compact(all)
		for j, s := range sides {
			for _, v := range all {
				if err := checkModel(s.tb, s.model, v); err != nil {
					t.Fatalf("end, side %d: %v", j, err)
				}
			}
		}
		con.tb.Publish()
		checkCon(all)
		for j, p := range pins {
			for k, v := range p.vpns {
				if got := answerOf(p.tb, v); !got.equal(p.answers[k]) {
					t.Fatalf("pin %d: answers for %#x changed:\npinned %+v\nnow    %+v", j, v, p.answers[k], got)
				}
			}
		}
	})
}

// TestPinnedReadersAcrossPublishes runs lock-free readers that each pin
// a view and check it over several passes while the writer rewrites
// lines and publishes: the lines of one table page, the lines of every
// page of one way, and the latter while inserts drive the table through
// elastic resizes. Every round rewrites each line's slot-0 frame with
// the round number, so a pinned view must give one round throughout,
// and the lines grown by then — nothing of a later round. Run it under
// the race detector (go test -race -count=10 ./internal/ecpt): a page
// written in place while a view holds it is a reported race as well as
// a failed check.
func TestPinnedReadersAcrossPublishes(t *testing.T) {
	rounds := 150
	if testing.Short() {
		rounds = 40
	}
	const (
		grownBase = uint64(1) << 20 // page numbers of grown lines start here
		growPer   = 6               // lines grown a round when growing
	)
	frameOf := func(round int, vpn uint64) uint64 { return (uint64(round)<<24 | vpn&0xFFFFFF) << 12 }
	roundOf := func(frame uint64) int { return int(frame >> 36) }
	for _, tc := range []struct {
		name     string
		onePage  bool
		grow     bool
		resizing bool
	}{
		{"one page", true, false, false},
		{"one way", false, false, false},
		{"one way mid-resize", false, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb, _, dom := newConcurrentTable(t, 4*linesPerPage, false)
			tb.cfg.MigratePerInsert = 1
			for tag := uint64(0); tag < 300; tag++ {
				tb.Insert(tag*TranslationsPerLine, frameOf(0, tag*TranslationsPerLine))
			}
			// The rewritten lines: way 0's, or those of its fullest page.
			perPage := map[int][]uint64{}
			for tag := uint64(0); tag < 300; tag++ {
				if _, w, idx, key := tb.findLine(tag); key != 0 && w == 0 {
					perPage[idx/linesPerPage] = append(perPage[idx/linesPerPage], tag*TranslationsPerLine)
				}
			}
			var set []uint64
			best := 0
			for p := 0; p < pagesPerWay(tb.cur.linesPerWay); p++ {
				if tc.onePage && len(perPage[p]) > len(perPage[best]) {
					best = p
				}
				if !tc.onePage {
					set = append(set, perPage[p]...)
				}
			}
			if tc.onePage {
				set = perPage[best]
			}
			if len(set) < 2 {
				t.Fatalf("only %d lines to rewrite", len(set))
			}
			tb.Publish()

			var wg sync.WaitGroup
			done := make(chan struct{})
			errs := make(chan error, 2)
			for r := 0; r < 2; r++ {
				rd := dom.NewReader()
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer rd.Close()
					var lastGen uint64
					for {
						select {
						case <-done:
							return
						default:
						}
						rd.Enter()
						v := tb.pub.Load()
						pin := pinnedTable(tb, v, nil)
						err := func() error {
							if v.gen < lastGen {
								return fmt.Errorf("view gen went back %d -> %d", lastGen, v.gen)
							}
							lastGen = v.gen
							f, ok := pin.SnapshotLookup(set[0])
							if !ok {
								return fmt.Errorf("gen %d: %#x unmapped", v.gen, set[0])
							}
							round := roundOf(f)
							for pass := 0; pass < 3; pass++ {
								for _, vpn := range set {
									if f, ok := pin.SnapshotLookup(vpn); !ok || f != frameOf(round, vpn) {
										return fmt.Errorf("gen %d, pass %d: %#x = %#x,%v; want round %d's frame", v.gen, pass, vpn, f, ok, round)
									}
									ps := pin.AppendProbes(nil, vpn, AllWays)
									if i := slices.IndexFunc(ps, func(p Probe[uint64]) bool { return p.Match }); i < 0 || ps[i].Frame != frameOf(round, vpn) {
										return fmt.Errorf("gen %d: probes of %#x do not match round %d: %+v", v.gen, vpn, round, ps)
									}
								}
								if !tc.grow {
									continue
								}
								// Grown lines of rounds up to round are present, later ones absent.
								for i := max(0, round*growPer-8); i < round*growPer+8; i++ {
									vpn := grownBase + uint64(i)*TranslationsPerLine
									_, ok := pin.SnapshotLookup(vpn)
									if ok != (i < round*growPer) {
										return fmt.Errorf("gen %d, round %d: grown line %d present %v", v.gen, round, i, ok)
									}
								}
							}
							return nil
						}()
						rd.Exit()
						if err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			sawResize := false
			for round := 1; round <= rounds; round++ {
				for _, vpn := range set {
					tb.Insert(vpn, frameOf(round, vpn))
				}
				if tc.grow {
					for i := (round - 1) * growPer; i < round*growPer; i++ {
						vpn := grownBase + uint64(i)*TranslationsPerLine
						tb.Insert(vpn, frameOf(round, vpn))
					}
				}
				sawResize = sawResize || tb.Resizing()
				tb.Publish()
			}
			close(done)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if sawResize != tc.resizing {
				t.Fatalf("published mid-resize: %v, want %v", sawResize, tc.resizing)
			}
			if tb.Stats().COWBytes == 0 {
				t.Fatal("rewriting published lines copied nothing")
			}
		})
	}
}
