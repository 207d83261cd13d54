package serve

import (
	"context"
	"fmt"
	"testing"
	"time"

	"nestedecpt/internal/trace"
	"nestedecpt/internal/traceaudit"
)

// TestServeShardedAuditStress is the live (goroutine-scheduled)
// counterpart of the replay tests: real shard writers publishing
// concurrently against a worker pool under aggressive churn — a tiny
// window so probes race unmap publishes constantly — with the full
// serve lane traced. Across several seeds, the audit must come back
// empty. Run under -race (make race / CI) this is the PR's
// acceptance stress: no data race, no stale translation.
func TestServeShardedAuditStress(t *testing.T) {
	seeds := []uint64{3, 17, 20260808}
	dur := 250 * time.Millisecond
	if testing.Short() {
		seeds = seeds[:1]
		dur = 100 * time.Millisecond
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rec, col := trace.NewCollected()
			cfg := Config{
				VMs:                6,
				Workers:            4,
				Shards:             3,
				Seed:               seed,
				Duration:           dur,
				ChurnPagesPerRound: 16,
				ChurnInterval:      20 * time.Microsecond,
				ChurnWindowPages:   32,
				ChurnSpanPages:     128,
				ProbeEvery:         4,
				Trace:              rec,
				TraceSample:        64,
			}
			sum, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if sum.Shards != 3 {
				t.Errorf("Shards = %d, want 3", sum.Shards)
			}
			if sum.ChurnProbes == 0 {
				t.Fatal("no churn probes ran; the stress proved nothing")
			}
			if sum.Publishes == 0 {
				t.Fatal("no generations published; churn never ran")
			}
			if sum.COWBytes == 0 {
				t.Fatal("churn published generations but copy-on-write copied nothing")
			}
			if sum.PendingReclaims != 0 {
				t.Errorf("PendingReclaims = %d after final collect, want 0", sum.PendingReclaims)
			}
			rec.Flush()
			events := col.Events()
			if len(events) == 0 {
				t.Fatal("no serve-lane events traced")
			}
			v := traceaudit.AuditServe(events, traceaudit.ServeSpec{})
			if len(v) != 0 {
				for i, x := range v {
					if i == 10 {
						t.Errorf("... and %d more", len(v)-10)
						break
					}
					t.Errorf("audit: %s", x)
				}
				t.Fatalf("%d audit findings over %d events, want 0", len(v), len(events))
			}
		})
	}
}

// TestServeShardsClamp checks a Shards value above the guest count
// degrades to one shard per guest rather than empty shards.
func TestServeShardsClamp(t *testing.T) {
	rec, col := trace.NewCollected()
	cfg := smokeConfig()
	cfg.Shards = 64 // > VMs: must clamp
	cfg.OpsPerWorker = 200
	cfg.ProbeEvery = 8
	cfg.Trace = rec
	sum, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Shards != cfg.VMs {
		t.Errorf("Shards = %d, want clamp to %d", sum.Shards, cfg.VMs)
	}
	rec.Flush()
	for _, ev := range col.Events() {
		if ev.Kind != trace.KindMapPublish && ev.Kind != trace.KindUnmapPublish {
			continue
		}
		shard, vm := trace.UnpackIDs(ev.Aux2)
		if shard != vm%uint32(cfg.VMs) {
			t.Fatalf("vm %d published by shard %d under clamped topology", vm, shard)
		}
	}
}
