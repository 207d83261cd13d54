package sim

// Differential batch oracle: WalkBatch must be element-wise identical
// to issuing the same walks sequentially — same frames, same faults,
// same per-lane latencies, same walker statistics, same cache and DRAM
// state afterwards — with only the returned batch latency reflecting
// MSHR overlap. The harness drives two identically-built machines, one
// per arm, through the same lane sequence and diffs everything.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/core"
	"nestedecpt/internal/trace"
)

// oracleNow matches the fixed cycle stamp of the walk benchmarks: past
// the warmed machine's clock, so the adaptive controller stays settled.
const oracleNow = uint64(1) << 40

// oracleDesigns is every design: the batch contract holds for the
// baselines too, not just the traceable walkers.
var oracleDesigns = []Design{
	DesignRadix, DesignECPT, DesignNestedRadix, DesignNestedECPT,
	DesignNestedHybrid, DesignAgileIdeal, DesignPOMTLB, DesignFlatNested,
}

// oracleMachine builds and runs one short configuration, then probes a
// fixed VA range to resolve mapped addresses. The probe sequence is
// identical on every call, so two machines built from the same config
// stay in lockstep through construction.
func oracleMachine(t testing.TB, d Design, app string, thp bool) (*Machine, []addr.GVA) {
	t.Helper()
	cfg := DefaultConfig(d, app, thp)
	cfg.WarmupAccesses = 2_000
	cfg.MeasureAccesses = 2_000
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var vas []addr.GVA
	for i := uint64(0); i < 4096 && len(vas) < 256; i++ {
		va := addr.Add(addr.GVA(0x4000_0000_0000), i*4096)
		if _, err := m.walker.Walk(oracleNow, va); err == nil {
			vas = append(vas, va)
		}
	}
	if len(vas) < 70 {
		t.Fatalf("%v/%s: only %d mapped VAs resolved; need a chunk of 64", d, app, len(vas))
	}
	return m, vas
}

// oracleLanes mixes the mapped set with duplicates and unmapped
// addresses: every 9th lane repeats its predecessor and every 16th
// points outside any VMA, so the oracle covers fault lanes and repeated
// GVAs inside one batch.
func oracleLanes(vas []addr.GVA) []addr.GVA {
	lanes := make([]addr.GVA, 0, len(vas)+len(vas)/8)
	for i, va := range vas {
		lanes = append(lanes, va)
		if i%9 == 8 {
			lanes = append(lanes, va)
		}
		if i%16 == 15 {
			lanes = append(lanes, addr.Add(addr.GVA(0x6000_0000_0000), uint64(i)*4096))
		}
	}
	return lanes
}

// sameErr requires both arms to fail (or succeed) identically.
func sameErr(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// walkerStats snapshots the design-specific statistics structure, or
// nil when the walker has none.
func walkerStats(w core.Walker) any {
	switch w := w.(type) {
	case *core.NestedECPT:
		return w.Stats()
	case *core.NativeECPT:
		return w.Stats()
	case *core.Hybrid:
		return w.Stats()
	}
	return nil
}

// diffMachines compares all observable state the two arms share.
func diffMachines(t *testing.T, seqM, batM *Machine) {
	t.Helper()
	if s, b := walkerStats(seqM.walker), walkerStats(batM.walker); !reflect.DeepEqual(s, b) {
		t.Errorf("walker stats diverged:\n  sequential %+v\n  batched    %+v", s, b)
	}
	sl1, sl2, sl3 := seqM.mem.Stats()
	bl1, bl2, bl3 := batM.mem.Stats()
	if sl1 != bl1 || sl2 != bl2 || sl3 != bl3 {
		t.Errorf("cache-hierarchy stats diverged:\n  sequential %+v %+v %+v\n  batched    %+v %+v %+v",
			sl1, sl2, sl3, bl1, bl2, bl3)
	}
	if sd, bd := seqM.mem.DRAMStats(), batM.mem.DRAMStats(); sd != bd {
		t.Errorf("DRAM stats diverged: sequential %+v, batched %+v", sd, bd)
	}
	if s, b := seqM.kern.PageTableMemoryBytes(), batM.kern.PageTableMemoryBytes(); s != b {
		t.Errorf("guest page-table bytes diverged: sequential %d, batched %d", s, b)
	}
	if seqM.hyp != nil {
		if s, b := seqM.hyp.PageTableMemoryBytes(), batM.hyp.PageTableMemoryBytes(); s != b {
			t.Errorf("host page-table bytes diverged: sequential %d, batched %d", s, b)
		}
	}
}

// checkBatchLatency enforces the contract on one WalkBatch return: at
// least the slowest successful lane, at most the lane sum when no lane
// faulted, and exactly the lane latency for a single successful lane.
func checkBatchLatency(t *testing.T, lat uint64, outs []core.WalkResult, errs []error) {
	t.Helper()
	var max, sum uint64
	faulted := false
	for i := range outs {
		if errs[i] != nil {
			faulted = true
			continue
		}
		sum += outs[i].Latency
		if outs[i].Latency > max {
			max = outs[i].Latency
		}
	}
	if lat < max {
		t.Errorf("batch latency %d below slowest lane %d", lat, max)
	}
	if !faulted && lat > sum {
		t.Errorf("batch latency %d above lane sum %d", lat, sum)
	}
	if len(outs) == 1 && !faulted && lat != outs[0].Latency {
		t.Errorf("single-lane batch latency %d != lane latency %d", lat, outs[0].Latency)
	}
}

// TestWalkBatchMatchesSequentialWalks is the differential oracle: for
// every design, the same lane sequence runs sequentially on one machine
// and in batches of 1, 2, 7, 64 (cycling, with a ragged tail) plus one
// whole-slice batch on its twin. Results, errors, and every shared
// statistic must be identical.
func TestWalkBatchMatchesSequentialWalks(t *testing.T) {
	for _, d := range oracleDesigns {
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			seqM, seqVAs := oracleMachine(t, d, "GUPS", true)
			batM, batVAs := oracleMachine(t, d, "GUPS", true)
			if !reflect.DeepEqual(seqVAs, batVAs) {
				t.Fatal("arms resolved different VA sets; machine construction is not deterministic")
			}
			lanes := oracleLanes(seqVAs)

			run := func(pass int) {
				t.Helper()
				seqOut := make([]core.WalkResult, len(lanes))
				seqErr := make([]error, len(lanes))
				for i, va := range lanes {
					seqOut[i], seqErr[i] = seqM.walker.Walk(oracleNow, va)
				}
				batOut := make([]core.WalkResult, len(lanes))
				batErr := make([]error, len(lanes))
				if pass == 0 {
					sizes := []int{1, 2, 7, 64}
					for idx, si := 0, 0; idx < len(lanes); si++ {
						n := sizes[si%len(sizes)]
						if idx+n > len(lanes) {
							n = len(lanes) - idx
						}
						lat := batM.walker.WalkBatch(oracleNow, lanes[idx:idx+n],
							batOut[idx:idx+n], batErr[idx:idx+n])
						checkBatchLatency(t, lat, batOut[idx:idx+n], batErr[idx:idx+n])
						idx += n
					}
				} else {
					// Second pass: the entire lane list as one batch.
					lat := batM.walker.WalkBatch(oracleNow, lanes, batOut, batErr)
					checkBatchLatency(t, lat, batOut, batErr)
				}
				sawFault := false
				for i := range lanes {
					if seqOut[i] != batOut[i] {
						t.Fatalf("pass %d lane %d (%#x): result diverged\n  sequential %+v\n  batched    %+v",
							pass, i, lanes[i], seqOut[i], batOut[i])
					}
					if !sameErr(seqErr[i], batErr[i]) {
						t.Fatalf("pass %d lane %d (%#x): error diverged: %v vs %v",
							pass, i, lanes[i], seqErr[i], batErr[i])
					}
					if seqErr[i] != nil {
						sawFault = true
					}
				}
				if !sawFault {
					t.Error("oracle lane set exercised no fault lanes; unmapped probes now resolve?")
				}
				diffMachines(t, seqM, batM)
			}
			run(0)
			run(1)
		})
	}
}

// TestWalkBatchStatsDeltaMatchesSequential pins the accounting
// contract in isolation: a batch of N moves every walker counter by
// exactly what N sequential walks move it, diffing the full statistics
// structures before and after.
func TestWalkBatchStatsDeltaMatchesSequential(t *testing.T) {
	for _, d := range []Design{DesignECPT, DesignNestedECPT, DesignNestedHybrid} {
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			seqM, vas := oracleMachine(t, d, "GUPS", true)
			batM, _ := oracleMachine(t, d, "GUPS", true)
			if pre, bre := walkerStats(seqM.walker), walkerStats(batM.walker); !reflect.DeepEqual(pre, bre) {
				t.Fatal("arms diverged before the measured batch")
			}
			n := 32
			for i, va := range vas[:n] {
				if _, err := seqM.walker.Walk(oracleNow, va); err != nil {
					t.Fatalf("lane %d: %v", i, err)
				}
			}
			outs := make([]core.WalkResult, n)
			errs := make([]error, n)
			batM.walker.WalkBatch(oracleNow, vas[:n], outs, errs)
			if s, b := walkerStats(seqM.walker), walkerStats(batM.walker); !reflect.DeepEqual(s, b) {
				t.Errorf("stats delta of a %d-lane batch != %d sequential walks:\n  sequential %+v\n  batched    %+v",
					n, n, s, b)
			}
		})
	}
}

// TestWalkBatchSingleMSHRIsSequentialLatency pins the -mshrs 1
// regression anchor at the walker level: with one MSHR the batch
// latency is bit-identical to the sum of the lanes' sequential
// latencies (no faults involved).
func TestWalkBatchSingleMSHRIsSequentialLatency(t *testing.T) {
	for _, d := range oracleDesigns {
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			m, vas := oracleMachine(t, d, "GUPS", true)
			s, ok := m.walker.(interface{ SetBatchMSHRs(int) })
			if !ok {
				t.Fatalf("%v walker does not expose SetBatchMSHRs", d)
			}
			s.SetBatchMSHRs(1)
			n := 24
			outs := make([]core.WalkResult, n)
			errs := make([]error, n)
			lat := m.walker.WalkBatch(oracleNow, vas[:n], outs, errs)
			var sum uint64
			for i := range outs {
				if errs[i] != nil {
					t.Fatalf("lane %d faulted: %v", i, errs[i])
				}
				sum += outs[i].Latency
			}
			if lat != sum {
				t.Errorf("mshrs=1 batch latency %d != sequential sum %d", lat, sum)
			}
			// Widening the file can only shorten the batch.
			s.SetBatchMSHRs(8)
			wide := m.walker.WalkBatch(oracleNow, vas[:n], outs, errs)
			if wide > lat {
				t.Errorf("mshrs=8 batch (%d cycles) slower than mshrs=1 (%d)", wide, lat)
			}
		})
	}
}

// TestWalkBatchZeroAndEmpty covers the degenerate calls the simulator
// can issue: an empty batch costs nothing and touches nothing.
func TestWalkBatchZeroAndEmpty(t *testing.T) {
	m, _ := oracleMachine(t, DesignNestedECPT, "GUPS", true)
	before := walkerStats(m.walker)
	if lat := m.walker.WalkBatch(oracleNow, nil, nil, nil); lat != 0 {
		t.Errorf("empty batch latency = %d, want 0", lat)
	}
	if after := walkerStats(m.walker); !reflect.DeepEqual(before, after) {
		t.Error("empty batch mutated walker statistics")
	}
}

// TestBatchedRunsAuditClean runs every traceable design through the
// full simulator with the batched pipeline and replays the trace
// through the conformance auditor: batch brackets must nest correctly
// around unchanged per-walk event streams.
func TestBatchedRunsAuditClean(t *testing.T) {
	for _, d := range goldenDesigns {
		cfg := goldenConfig(d)
		cfg.BatchSize = 8
		res, err := runAudited(t, cfg)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if res.Batches == 0 {
			t.Errorf("%v: batched run recorded no batches", d)
		}
		if res.BatchWalkCycles > res.WalkCycles {
			t.Errorf("%v: overlapped batch cycles %d exceed per-lane walk cycles %d",
				d, res.BatchWalkCycles, res.WalkCycles)
		}
	}
}

// TestBatchSizeOneKeepsSequentialTrace pins that BatchSize <= 1 is one
// pipeline, not two that agree: for every traceable design the
// golden-seed run at BatchSize=1 serializes the same trace as the
// unbatched run, with no batch events, and returns the same Result —
// every counter and the walk-latency histogram. It is the row that
// fails if the walk engine is ever selected on something other than
// the phase being batched.
func TestBatchSizeOneKeepsSequentialTrace(t *testing.T) {
	run := func(d Design, batch int) (string, *Result) {
		cfg := goldenConfig(d)
		cfg.BatchSize = batch
		rec, col := trace.NewCollected()
		res, err := RunTraced(context.Background(), cfg, rec)
		if err != nil {
			t.Fatal(err)
		}
		res.Config.BatchSize = 0 // the one field that differs by construction
		return fmt.Sprintf("%+v", col.Events()), res
	}
	for _, d := range goldenDesigns {
		seqTrace, seqRes := run(d, 0)
		oneTrace, oneRes := run(d, 1)
		if seqTrace != oneTrace {
			t.Errorf("%v: BatchSize=1 produced a different trace than BatchSize=0", d)
		}
		if !reflect.DeepEqual(seqRes, oneRes) {
			t.Errorf("%v: BatchSize=1 produced a different Result than BatchSize=0:\n  0: %+v\n  1: %+v", d, seqRes, oneRes)
		}
		if oneRes.Batches != 0 || oneRes.Walks == 0 {
			t.Errorf("%v: BatchSize=1 counted %d batches over %d walks, want 0 batches and some walks", d, oneRes.Batches, oneRes.Walks)
		}
	}
}

// TestBatchedRunSpeedsUpTranslation is the end-to-end point of the
// feature: with walks overlapped, the same workload finishes in fewer
// core cycles than the sequential pipeline, and the overlap shows up
// in the recorded batch statistics. The run must be long enough to be
// fault-steady — cold batches replay their faulted lanes sequentially
// and show no overlap win.
func TestBatchedRunSpeedsUpTranslation(t *testing.T) {
	steady := func(batch int) Config {
		cfg := DefaultConfig(DesignNestedECPT, "GUPS", true)
		cfg.WarmupAccesses = 20_000
		cfg.MeasureAccesses = 40_000
		cfg.WorkloadOpts.Seed = 42
		cfg.BatchSize = batch
		return cfg
	}
	seq, err := Run(steady(0))
	if err != nil {
		t.Fatal(err)
	}
	bat, err := Run(steady(8))
	if err != nil {
		t.Fatal(err)
	}
	if bat.Cycles >= seq.Cycles {
		t.Errorf("batched run (%d cycles) not faster than sequential (%d cycles)", bat.Cycles, seq.Cycles)
	}
	if sp := bat.WalkOverlapSpeedup(); sp <= 1 {
		t.Errorf("walk overlap speedup = %.2f, want > 1", sp)
	}
	if seq.WalkOverlapSpeedup() != 1 {
		t.Errorf("sequential run reports overlap speedup %.2f, want exactly 1", seq.WalkOverlapSpeedup())
	}
}
