package ecpt

import (
	"fmt"
	"slices"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/memsim"
	"nestedecpt/internal/vhash"
)

// TestModesAnswerAlike is the differential check of the one read path:
// a sequential table and a concurrent table that publishes after every
// operation take the same seeded insert/remove stream, and after each
// operation every reader-facing answer — the probes of all ways, the
// CWT query, SnapshotLookup, and the allocator's page-table and CWT
// bytes — must be the same in both. The ways start at 8 lines and
// migrate one bucket an insert, so the stream resizes about eight
// times and spends most of its life mid-migration.
func TestModesAnswerAlike(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.MigratePerInsert = 1
	for _, seed := range []uint64{1, 7, 0xC0FFEE} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			build := func() (*Table[uint64], *memsim.Allocator[uint64]) {
				alloc := memsim.NewAllocatorAt[uint64](windowBase, 1<<30, seed)
				tb, err := New(addr.Page4K, cfg, alloc, NewCWT(addr.Page4K, alloc), 1, seed)
				if err != nil {
					t.Fatal(err)
				}
				return tb, alloc
			}
			seq, seqAlloc := build()
			con, conAlloc := build()
			con.EnterConcurrent(&EpochDomain{})

			rng := vhash.NewRNG(seed)
			const vpnSpace = 1 << 20
			var live []uint64
			var ps, pc []Probe[uint64]
			var is, ic Info[uint64]
			for op := 0; op < 5000; op++ {
				if len(live) == 0 || rng.Intn(10) < 7 {
					vpn := rng.Uint64n(vpnSpace)
					frame := windowFrame(rng, addr.Page4K)
					seq.Insert(vpn, frame)
					con.Insert(vpn, frame)
					live = append(live, vpn)
				} else {
					j := rng.Intn(len(live))
					vpn := live[j]
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					if a, b := seq.Remove(vpn), con.Remove(vpn); a != b {
						t.Fatalf("op %d: Remove(%#x) = %v sequential, %v concurrent", op, vpn, a, b)
					}
				}
				con.Publish()

				for q := 0; q < 4; q++ {
					vpn := rng.Uint64n(vpnSpace)
					if q%2 == 0 && len(live) > 0 {
						vpn = live[rng.Intn(len(live))]
					}
					ps, pc = seq.AppendProbes(ps[:0], vpn, AllWays), con.AppendProbes(pc[:0], vpn, AllWays)
					if !slices.Equal(ps, pc) {
						t.Fatalf("op %d: probes of %#x differ:\nsequential %+v\nconcurrent %+v", op, vpn, ps, pc)
					}
					seq.CWT().QueryInto(vpn, &is)
					con.CWT().QueryInto(vpn, &ic)
					if is != ic {
						t.Fatalf("op %d: CWT query of %#x differs:\nsequential %+v\nconcurrent %+v", op, vpn, is, ic)
					}
					fs, oks := seq.SnapshotLookup(vpn)
					fc, okc := con.SnapshotLookup(vpn)
					if fs != fc || oks != okc {
						t.Fatalf("op %d: SnapshotLookup(%#x) = %#x, %v sequential, %#x, %v concurrent", op, vpn, fs, oks, fc, okc)
					}
				}
				for _, why := range []memsim.Purpose{memsim.PurposePageTable, memsim.PurposeCWT} {
					if a, b := seqAlloc.Used(why), conAlloc.Used(why); a != b {
						t.Fatalf("op %d: %v bytes %d sequential, %d concurrent", op, why, a, b)
					}
				}
			}
			if r := seq.Stats().Resizes; r < 6 {
				t.Fatalf("stream resized %d times; the check wants several resizes", r)
			}
		})
	}
}
