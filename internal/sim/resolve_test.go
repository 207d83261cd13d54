package sim

// The functional (untimed) side of the machine: pre-population happens
// once, a second Run on the same machine is unchanged by that, and a
// page unmapped behind the machine's back is repaired by demand paging,
// timed as a fault.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/workload"
)

// resolveConfig is a short pinned Nested ECPTs/GUPS/4KB run.
func resolveConfig() Config {
	cfg := DefaultConfig(DesignNestedECPT, "GUPS", false)
	cfg.WarmupAccesses = 2_000
	cfg.MeasureAccesses = 5_000
	cfg.WorkloadOpts.Seed = 42
	return cfg
}

// countersDigest hashes every counter a run reports.
func countersDigest(r *Result) string {
	s := fmt.Sprintf("%d %d %d %+v %+v %d %d %d %d %d %d %d %d %+v %+v %+v %+v %d %d %d",
		r.Instructions, r.Cycles, r.MemAccesses, r.L1TLB, r.L2TLB,
		r.Walks, r.WalkCycles, r.MMUBusyCycles, r.MMUAccesses, r.GuestFaults, r.HostFaults,
		r.WalkLatency.Count(), r.WalkLatency.Percentile(0.99),
		r.L1Stats, r.L2Stats, r.L3Stats, r.DRAM,
		r.GuestPTBytes, r.HostPTBytes, r.PTEntries)
	if st := r.NestedECPT; st != nil {
		s += fmt.Sprintf(" %+v %+v %+v %+v", st.Par1, st.Par2, st.Par3, st.STC)
	}
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// tableInserts lists Stats().Inserts of every guest and host table,
// smallest page size first.
func tableInserts(m *Machine) []uint64 {
	var ins []uint64
	for _, size := range addr.Sizes() {
		ins = append(ins, m.Kernel().ECPTs().Table(size).Stats().Inserts,
			m.Hypervisor().ECPTs().Table(size).Stats().Inserts)
	}
	return ins
}

func TestPrepopulateOnce(t *testing.T) {
	m, err := NewMachine(resolveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Prepopulate(); err != nil {
		t.Fatal(err)
	}
	first := tableInserts(m)
	if first[0] == 0 || first[1] == 0 {
		t.Fatalf("Prepopulate left a 4KB table empty: %v", first)
	}
	if err := m.Prepopulate(); err != nil {
		t.Fatal(err)
	}
	if second := tableInserts(m); !slices.Equal(second, first) {
		t.Errorf("second Prepopulate inserted again: %v -> %v", first, second)
	}
}

// TestConsecutiveRunsPinned pins the counters of two Runs on one
// machine to the values the tree reported before Prepopulate became
// once-only and the call sites moved onto Resolve: both are host-side
// changes and must leave every simulated statistic alone.
func TestConsecutiveRunsPinned(t *testing.T) {
	want := [2]string{
		"cd00b62bee3ea012adc890efe396b25263df679ef2d725bb1e13ca8f45052650",
		"09c67d3786fa7396c5291f879fc1602c1eac8f9e4d54f155838fba456d9a7888",
	}
	m, err := NewMachine(resolveConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		res, err := m.Run()
		if err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
		if got := countersDigest(res); got != want[i] {
			t.Errorf("run %d: counters digest %s, want %s", i+1, got, want[i])
		}
	}
}

// TestRunRepairsUnmappedPage unmaps the first page the workload will
// touch on an already-populated machine: Run must not re-populate, so
// the access demand-faults the page back in and the fault is counted.
func TestRunRepairsUnmappedPage(t *testing.T) {
	cfg := resolveConfig()
	cfg.WarmupAccesses = 0 // faults are only counted while measuring
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Prepopulate(); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(cfg.Workload, m.EffectiveConfig().WorkloadOpts)
	if err != nil {
		t.Fatal(err)
	}
	va := gen.Next().VA
	if !m.Kernel().Unmap(va) {
		t.Fatalf("first access %#x was not populated", va)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.GuestFaults != 1 {
		t.Errorf("guest faults = %d, want the one demand fault on %#x", res.GuestFaults, va)
	}
	if _, _, ok := m.Kernel().Translate(va); !ok {
		t.Errorf("%#x still unmapped after the run", va)
	}
}
