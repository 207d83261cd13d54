package cachesim

import (
	"testing"

	"nestedecpt/internal/addr"
)

var sinkLatency uint64

// BenchmarkHierarchyAccess measures a single demand access through
// L1/L2/L3/DRAM with a working set that exercises all levels.
func BenchmarkHierarchyAccess(b *testing.B) {
	h := NewHierarchy(DefaultHierarchyConfig())
	b.ReportAllocs()
	b.ResetTimer()
	var lat uint64
	for i := 0; i < b.N; i++ {
		pa := addr.HPA(uint64(i)*0x9E3779B97F4A7C15) & ((1 << 28) - 1)
		l, _ := h.Access(uint64(i), pa, SourceCPU)
		lat += l
	}
	sinkLatency = lat
}

// BenchmarkHierarchyAccessParallel measures the MMU's grouped probe
// path: one call servicing a cuckoo walk's parallel probe set.
func BenchmarkHierarchyAccessParallel(b *testing.B) {
	h := NewHierarchy(DefaultHierarchyConfig())
	pas := make([]addr.HPA, 6)
	b.ReportAllocs()
	b.ResetTimer()
	var lat uint64
	for i := 0; i < b.N; i++ {
		base := addr.HPA(uint64(i)*0x9E3779B97F4A7C15) & ((1 << 28) - 1)
		for j := range pas {
			pas[j] = base + addr.HPA(j)<<16
		}
		lat += h.AccessParallel(uint64(i), pas, SourceMMU)
	}
	sinkLatency = lat
}

// simScaledConfig is the hierarchy every BENCHMARK.json workload
// simulates: Table 2 with the L3 split over 8 cores, at cache scale 32
// (workload scale 16). L1 is 16 lines, L2 256, L3 1024.
func simScaledConfig() HierarchyConfig {
	cfg := DefaultHierarchyConfig()
	cfg.L3.SizeBytes /= 8
	return cfg.Scaled(32)
}

// benchLine maps iteration i to a line: a cyclic walk over span lines
// (which LRU serves from the first level that holds all of them), or a
// scattered one when span is 0.
func benchLine(i int, span uint64) addr.HPA {
	if span == 0 {
		return addr.HPA(uint64(i)*0x9E3779B97F4A7C15) & ((1 << 32) - 1)
	}
	return addr.HPA(uint64(i) % span * addr.CacheLineBytes)
}

// BenchmarkHierarchyAccessScaled measures one demand access on the
// scaled hierarchy per service level, checking that every timed access
// is served where the sub-benchmark's name says.
func BenchmarkHierarchyAccessScaled(b *testing.B) {
	for _, bc := range []struct {
		name string
		span uint64
		want ServiceLevel
	}{
		{"L1hit", 8, ServedL1},
		{"L2hit", 128, ServedL2},
		{"L3hit", 512, ServedL3},
		{"DRAM", 0, ServedDRAM},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := NewHierarchy(simScaledConfig())
			for i := 0; i < int(bc.span); i++ {
				h.Access(uint64(i), benchLine(i, bc.span), SourceCPU)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var lat uint64
			var elsewhere int
			for i := 0; i < b.N; i++ {
				l, served := h.Access(uint64(i), benchLine(i, bc.span), SourceCPU)
				lat += l
				if served != bc.want {
					elsewhere++
				}
			}
			sinkLatency = lat
			// Scattered lines repeat within the L3's reach now and then.
			if elsewhere > b.N/100 {
				b.Fatalf("%d of %d accesses not served by %v", elsewhere, b.N, bc.want)
			}
		})
	}
}

// BenchmarkHierarchyAccessRemote measures a co-runner's access to the
// shared L3 of the scaled hierarchy, hitting and missing.
func BenchmarkHierarchyAccessRemote(b *testing.B) {
	for _, bc := range []struct {
		name string
		span uint64
	}{{"hit", 512}, {"miss", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			h := NewHierarchy(simScaledConfig())
			for i := 0; i < int(bc.span); i++ {
				h.AccessRemote(uint64(i), benchLine(i, bc.span))
			}
			h.ResetStats()
			b.ReportAllocs()
			b.ResetTimer()
			var lat uint64
			for i := 0; i < b.N; i++ {
				lat += h.AccessRemote(uint64(i), benchLine(i, bc.span))
			}
			sinkLatency = lat
			// Scattered lines repeat within the L3's reach now and then.
			rs := h.RemoteTraffic()
			if hits := rs.Accesses - rs.Misses; bc.span != 0 && rs.Misses != 0 || bc.span == 0 && hits > rs.Accesses/100 {
				b.Fatalf("%d of %d remote accesses missed", rs.Misses, rs.Accesses)
			}
		})
	}
}
