package sim

// Two fuzz targets. FuzzConfigNormalize (at the end of the file) hands
// NewMachine zero, odd, negative and huge machine geometry.
// FuzzWalkBatch drives the differential batch oracle with fuzzer-chosen
// lane sequences: arbitrary mixes of mapped, duplicated, and unmapped
// addresses, at arbitrary batch lengths (including zero and one). The
// batched arm must never panic and must return element-wise the exact
// results and errors of the sequential arm.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/core"
)

var (
	fuzzOnce sync.Once
	// fuzzMu serializes fuzz executions: both arms share state across
	// executions and must see every lane sequence in the same order.
	fuzzMu   sync.Mutex
	fuzzSeq  *Machine
	fuzzBat  *Machine
	fuzzVAs  []addr.GVA
	fuzzOuts []core.WalkResult
	fuzzErrs []error
)

// fuzzLane decodes one input byte into a lane address: most values
// pick from the mapped pool (with natural duplicates), every eighth
// points outside any VMA so fault lanes interleave freely.
func fuzzLane(c byte) addr.GVA {
	if c%8 == 7 {
		return addr.Add(addr.GVA(0x6000_0000_0000), uint64(c>>3)*4096)
	}
	return fuzzVAs[int(c)%len(fuzzVAs)]
}

func FuzzWalkBatch(f *testing.F) {
	f.Add([]byte{})                               // zero-length batch
	f.Add([]byte{3})                              // single element
	f.Add([]byte{9, 9, 9, 9})                     // duplicate GVAs
	f.Add([]byte{7, 0, 15, 1, 23, 2})             // unmapped interleaved
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 8, 9, 10})  // plain mapped batch
	f.Add([]byte{255, 254, 253, 7, 7, 12, 12, 0}) // mixed tail

	fuzzOnce.Do(func() {
		fuzzSeq, fuzzVAs = oracleMachine(f, DesignNestedECPT, "GUPS", true)
		fuzzBat, _ = oracleMachine(f, DesignNestedECPT, "GUPS", true)
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzMu.Lock()
		defer fuzzMu.Unlock()
		if len(data) > 256 {
			data = data[:256]
		}
		lanes := make([]addr.GVA, len(data))
		for i, c := range data {
			lanes[i] = fuzzLane(c)
		}
		seqOut := make([]core.WalkResult, len(lanes))
		seqErr := make([]error, len(lanes))
		for i, va := range lanes {
			seqOut[i], seqErr[i] = fuzzSeq.walker.Walk(oracleNow, va)
		}
		if cap(fuzzOuts) < len(lanes) {
			fuzzOuts = make([]core.WalkResult, len(lanes))
			fuzzErrs = make([]error, len(lanes))
		}
		outs, errs := fuzzOuts[:len(lanes)], fuzzErrs[:len(lanes)]
		lat := fuzzBat.walker.WalkBatch(oracleNow, lanes, outs, errs)
		if len(lanes) == 0 && lat != 0 {
			t.Fatalf("zero-length batch returned latency %d", lat)
		}
		checkBatchLatency(t, lat, outs, errs)
		for i := range lanes {
			if seqOut[i] != outs[i] {
				t.Fatalf("lane %d (%#x): result diverged\n  sequential %+v\n  batched    %+v",
					i, lanes[i], seqOut[i], outs[i])
			}
			if !sameErr(seqErr[i], errs[i]) {
				t.Fatalf("lane %d (%#x): error diverged: %v vs %v", i, lanes[i], seqErr[i], errs[i])
			}
		}
	})
}

// fuzzRunDeadline bounds one FuzzConfigNormalize input: building the
// machine and running its 128 accesses takes milliseconds, a hundred
// times that under -race with the widest geometry the target admits.
const fuzzRunDeadline = 60 * time.Second

// FuzzConfigNormalize: whatever the geometry — cores, the TLB and cache
// divisors, cuckoo ways, batch width and MSHRs, each cache level's ways
// and size — NewMachine returns an error or a machine that completes 64
// warm-up and 64 measured accesses; it never panics and never spins.
// Memory sizes are left to derive and the footprint is small. Level
// sizes are taken modulo 32MB and ways are 16-bit so that an accepted
// geometry stays a few megabytes of model on a shared box; zero in
// l1Size selects the default hierarchy, as it does for a caller.
func FuzzConfigNormalize(f *testing.F) {
	type geometry struct {
		cores, tlbScale, cacheScale, ecptWays, batch, mshrs int32
		l1Ways, l2Ways, l3Ways                              int16
		l1Size, l2Size, l3Size                              uint32
	}
	add := func(g geometry) {
		f.Add(g.cores, g.tlbScale, g.cacheScale, g.ecptWays, g.batch, g.mshrs,
			g.l1Ways, g.l2Ways, g.l3Ways, g.l1Size, g.l2Size, g.l3Size)
	}
	table2 := geometry{l1Ways: 8, l2Ways: 8, l3Ways: 16, l1Size: 32 << 10, l2Size: 512 << 10, l3Size: 16 << 20}
	with := func(edit func(*geometry)) geometry {
		g := table2
		edit(&g)
		return g
	}
	add(geometry{}) // every default
	add(table2)
	// The three witnesses TestConfigValidation pins.
	add(with(func(g *geometry) { g.cores = -1 }))
	add(with(func(g *geometry) { g.cores = 1 << 30 }))
	add(with(func(g *geometry) { g.l1Ways = 0 }))
	// Odd -scale values and core counts (TestOddScalesAndCoresBuild),
	// as the divisors -scale derives.
	for i, scale := range []int32{1, 3, 12, 48, 100} {
		add(with(func(g *geometry) { g.cores, g.tlbScale, g.cacheScale = int32(i)+1, scale/2, scale*2 }))
	}
	add(with(func(g *geometry) { g.cores, g.cacheScale = 7, 1<<30 }))
	add(with(func(g *geometry) { g.l3Ways, g.l3Size = 3, 1000 })) // under one set of an odd associativity
	add(with(func(g *geometry) { g.l2Ways, g.l2Size = -4, 0 }))
	add(with(func(g *geometry) { g.cores = 1 << 18 })) // one line of the L3 each
	add(with(func(g *geometry) { g.batch, g.mshrs, g.ecptWays = 1<<30, -3, 5 }))
	add(with(func(g *geometry) { g.batch, g.mshrs, g.tlbScale, g.ecptWays = 7, 1, -9, -2 }))
	// Found by this target: 64 cuckoo ways built, then the first walk
	// faulted more often than Machine.walk retries.
	add(with(func(g *geometry) { g.ecptWays = 64 }))
	add(with(func(g *geometry) { g.ecptWays = maxECPTWays }))

	f.Fuzz(func(t *testing.T, cores, tlbScale, cacheScale, ecptWays, batch, mshrs int32,
		l1Ways, l2Ways, l3Ways int16, l1Size, l2Size, l3Size uint32) {
		const maxLevel = 32 << 20
		cfg := DefaultConfig(DesignNestedECPT, "GUPS", false)
		cfg.WorkloadOpts.Scale = 1024
		cfg.WarmupAccesses, cfg.MeasureAccesses = 64, 64
		cfg.Cores, cfg.TLBScale, cfg.CacheScale = int(cores), int(tlbScale), int(cacheScale)
		cfg.ECPTWays, cfg.BatchSize, cfg.BatchMSHRs = int(ecptWays), int(batch), int(mshrs)
		cfg.Hierarchy.L1.Ways, cfg.Hierarchy.L1.SizeBytes = int(l1Ways), uint64(l1Size%(maxLevel+1))
		cfg.Hierarchy.L2.Ways, cfg.Hierarchy.L2.SizeBytes = int(l2Ways), uint64(l2Size%(maxLevel+1))
		cfg.Hierarchy.L3.Ways, cfg.Hierarchy.L3.SizeBytes = int(l3Ways), uint64(l3Size%(maxLevel+1))

		// The run gets its own goroutine so that a spin fails the input
		// instead of hanging the fuzzer; a panic in it takes the test
		// binary down, which is the failure wanted.
		done := make(chan error, 1)
		go func() {
			m, err := NewMachine(cfg)
			if err != nil {
				done <- nil
				return
			}
			res, err := m.Run()
			if err == nil && res.MemAccesses != cfg.MeasureAccesses {
				err = fmt.Errorf("measured %d accesses, want %d", res.MemAccesses, cfg.MeasureAccesses)
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("NewMachine accepted cores %d, hierarchy %+v, and the run failed: %v", cfg.Cores, cfg.Hierarchy, err)
			}
		case <-time.After(fuzzRunDeadline):
			t.Fatalf("no result after %v: cores %d, hierarchy %+v", fuzzRunDeadline, cfg.Cores, cfg.Hierarchy)
		}
	})
}
