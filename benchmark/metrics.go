package main

// A metric is one declared measurement. BENCHMARK.json lists the same
// names, units, directions and bounds (benchmark_test.go holds the two
// together); Moves, which the manifest has no key for, is rendered in
// README.md.
type metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median an end-to-end metric
	// may worsen by before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
	// Moves names the end-to-end metric and workload a per-layer metric
	// is expected to move (written down before measuring).
	Moves string
}

// endToEnd is reported by every workload's untraced run. Each is
// defined on all seven workloads and is never zero; what only some
// workloads can observe end to end (fairness, churn rate, the Figure 9
// speed-ups, allocations per walk) is a per-layer metric instead.
//
// The host-time bounds are as wide as a bound may be: the 2-vCPU box
// this was sized on drifts by 5-18% (quartile spread of ten runs)
// whatever statistic a 6-second run reports. Simulated metrics are a
// function of the seed; their bounds cover the spread across seeds.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "host_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "host_mem_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "sim_cycles_per_op", Unit: "cycles", Better: "lower", Bound: 0.10},
	{Name: "sim_walk_mean_cycles", Unit: "cycles", Better: "lower", Bound: 0.10},
	{Name: "sim_walk_p99_cycles", Unit: "cycles", Better: "lower", Bound: 0.15},
}

// perLayer is reported by every workload's traced run. The first block
// is measured on a fixed probe machine (Nested ECPTs, GUPS, THP, scale
// 16) and so reads alike on every workload; the blocks after it come
// from the workload's own traced pass and read 0 on a workload that
// cannot observe them (serve.* on a simulation, tlbsim hit rates on a
// serve run, ...).
var perLayer = []metric{
	// Probe machine: batch-timed public calls of each layer.
	{Name: "vhash.hash_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on walk_hot_thp, sim_gups_4k; not sim_radix_gups_4k"},
	{Name: "ecpt.append_probes_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on walk_hot_thp"},
	{Name: "ecpt.append_probes_direct_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on walk_hot_thp (one way, as a CWC hit leaves it)"},
	{Name: "ecpt.append_probes_view_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on serve_steady (view minus sequential = price of concurrent mode)"},
	{Name: "ecpt.cwt_query_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on walk_hot_thp"},
	{Name: "ecpt.set_lookup_ns", Unit: "ns", Better: "lower", Moves: "setup_s on sim_gups_4k (every Touch starts with one)"},
	{Name: "ecpt.epoch_enter_exit_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on serve_steady"},
	{Name: "ecpt.insert_ns", Unit: "ns", Better: "lower", Moves: "setup_s on sim_gups_4k; churn rate on serve_churn"},
	{Name: "ecpt.remove_ns", Unit: "ns", Better: "lower", Moves: "serve.churn_ops_per_s on serve_churn"},
	{Name: "ecpt.kicks_per_insert", Unit: "count", Better: "lower", Moves: "setup_s on sim_gups_4k"},
	{Name: "ecpt.resizes", Unit: "count", Better: "lower", Moves: "setup_s on sim_gups_4k"},
	{Name: "ecpt.publish_ns", Unit: "ns", Better: "lower", Moves: "serve.churn_ops_per_s on serve_churn"},
	{Name: "ecpt.pending_reclaims", Unit: "count", Better: "lower", Moves: "failed on serve_churn"},
	{Name: "kernel.touch_ns", Unit: "ns", Better: "lower", Moves: "setup_s on sim_gups_4k; host_ops_per_s on sweep_fig9"},
	{Name: "kernel.unmap_ns", Unit: "ns", Better: "lower", Moves: "serve.churn_ops_per_s on serve_churn"},
	{Name: "hypervisor.ensure_mapped_ns", Unit: "ns", Better: "lower", Moves: "setup_s on sim_gups_4k; host_ops_per_s on sweep_fig9"},
	{Name: "mmucache.lookup_hit_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on walk_hot_thp, serve_steady"},
	{Name: "mmucache.lookup_miss_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on sim_gups_4k"},
	{Name: "mmucache.insert_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on sim_gups_4k"},
	{Name: "core.cwc_lookup_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on walk_hot_thp, serve_steady"},
	{Name: "tlbsim.access_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on sim_bc_thp"},
	{Name: "tlbsim.fill_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on sim_gups_4k"},
	{Name: "workload.next_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on sim_bc_thp"},
	{Name: "cachesim.access_l1_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on sim_bc_thp"},
	{Name: "cachesim.access_dram_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on sim_gups_4k, sim_radix_gups_4k"},
	{Name: "cachesim.access_parallel3_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on sim_gups_4k"},
	{Name: "stats.histogram_observe_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on serve_steady"},
	{Name: "stats.distribution_observe_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on walk_hot_thp"},
	{Name: "trace.nil_emit_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on serve_steady"},
	{Name: "trace.timer_ns", Unit: "ns", Better: "lower", Moves: "nothing: the cost of one clock read, subtracted from every per-call span"},
	{Name: "sim.new_machine_s", Unit: "s", Better: "lower", Moves: "setup_s on sim_*"},
	{Name: "sim.prepopulate_s", Unit: "s", Better: "lower", Moves: "setup_s on sim_*"},
	// Probe machine: the hot-walk budget.
	{Name: "core.walk_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on walk_hot_thp"},
	{Name: "core.walk_self_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on walk_hot_thp"},
	{Name: "core.walk_4k_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on sim_gups_4k"},
	{Name: "core.walkbatch32_ns_per_walk", Unit: "ns", Better: "lower", Moves: "nothing yet: serve and sim call Walk"},
	{Name: "core.walk_nradix_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on sim_radix_gups_4k"},
	{Name: "core.walk_unattributed_share", Unit: "share", Better: "lower", Moves: "nothing: the budget's honesty figure"},
	{Name: "core.walk_accesses_mean", Unit: "count", Better: "lower", Moves: "sim_walk_mean_cycles on every NECPT workload"},
	{Name: "core.parallel_step1", Unit: "count", Better: "lower", Moves: "sim_walk_mean_cycles"},
	{Name: "core.parallel_step2", Unit: "count", Better: "lower", Moves: "sim_walk_mean_cycles"},
	{Name: "core.parallel_step3", Unit: "count", Better: "lower", Moves: "sim_walk_mean_cycles"},
	{Name: "core.cwc_hit_rate_g", Unit: "share", Better: "higher", Moves: "sim_walk_mean_cycles"},
	{Name: "core.cwc_hit_rate_h1", Unit: "share", Better: "higher", Moves: "sim_walk_mean_cycles"},
	{Name: "core.cwc_hit_rate_h3", Unit: "share", Better: "higher", Moves: "sim_walk_mean_cycles"},
	{Name: "core.stc_hit_rate", Unit: "share", Better: "higher", Moves: "sim_walk_mean_cycles"},
	{Name: "cachesim.walk_calls_per_walk", Unit: "count", Better: "lower", Moves: "host_ops_per_s on walk_hot_thp"},
	{Name: "cachesim.walk_share", Unit: "share", Better: "lower", Moves: "host_ops_per_s on sim_gups_4k, sim_radix_gups_4k"},
	// The workload's own traced pass.
	{Name: "host.allocs_per_op", Unit: "count", Better: "lower", Moves: "host_ops_per_s everywhere; must be 0 on walk_hot_thp"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Moves: "nothing: traced over untraced time per op, same workload and seed"},
	{Name: "sim.step_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on sim_*"},
	{Name: "sim.self_share", Unit: "share", Better: "lower", Moves: "host_ops_per_s on sim_*"},
	{Name: "sim.workload_share", Unit: "share", Better: "lower", Moves: "host_ops_per_s on sim_bc_thp"},
	{Name: "sim.tlbsim_share", Unit: "share", Better: "lower", Moves: "host_ops_per_s on sim_bc_thp"},
	{Name: "sim.walk_share", Unit: "share", Better: "lower", Moves: "host_ops_per_s on sim_gups_4k, sim_radix_gups_4k"},
	{Name: "sim.data_access_share", Unit: "share", Better: "lower", Moves: "host_ops_per_s on sim_bc_thp"},
	{Name: "tlbsim.l1_hit_rate", Unit: "share", Better: "higher", Moves: "sim_cycles_per_op on sim_*"},
	{Name: "tlbsim.l2_hit_rate", Unit: "share", Better: "higher", Moves: "sim_cycles_per_op on sim_*"},
	{Name: "cachesim.l2_mpki", Unit: "1/kinstr", Better: "lower", Moves: "sim_cycles_per_op on sim_*"},
	{Name: "cachesim.l3_mpki", Unit: "1/kinstr", Better: "lower", Moves: "sim_cycles_per_op on sim_*"},
	{Name: "cachesim.dram_accesses", Unit: "count", Better: "lower", Moves: "sim_cycles_per_op on sim_*"},
	{Name: "serve.build_s", Unit: "s", Better: "lower", Moves: "setup_s on serve_*"},
	{Name: "serve.w1_ops_per_s", Unit: "1/s", Better: "higher", Moves: "host_ops_per_s on serve_*"},
	{Name: "serve.w2_ops_per_s", Unit: "1/s", Better: "higher", Moves: "host_ops_per_s on serve_steady"},
	{Name: "serve.scaling_eff_w2", Unit: "share", Better: "higher", Moves: "host_ops_per_s on serve_steady"},
	{Name: "serve.walk_overhead_ns", Unit: "ns", Better: "lower", Moves: "host_ops_per_s on serve_*"},
	{Name: "serve.fairness", Unit: "share", Better: "higher", Moves: "itself: Jain index over per-VM translations"},
	{Name: "serve.churn_ops_per_s", Unit: "1/s", Better: "higher", Moves: "itself: the writer's half of serve_churn"},
	{Name: "serve.publishes_per_s", Unit: "1/s", Better: "higher", Moves: "serve.churn_ops_per_s on serve_churn"},
	{Name: "serve.retries_per_mop", Unit: "count", Better: "lower", Moves: "host_ops_per_s on serve_churn"},
	{Name: "serve.probe_hit_rate", Unit: "share", Better: "higher", Moves: "nothing: share of staleness probes that still translated"},
	{Name: "serve.audit_findings", Unit: "count", Better: "lower", Moves: "failed on serve_churn"},
	{Name: "trace.serve_overhead_share", Unit: "share", Better: "lower", Moves: "host_ops_per_s on serve_* when tracing is on"},
	{Name: "runner.parallel_speedup", Unit: "x", Better: "higher", Moves: "host_ops_per_s on sweep_fig9"},
	{Name: "report.setup_share", Unit: "share", Better: "lower", Moves: "host_ops_per_s on sweep_fig9"},
	{Name: "report.speedup_4k", Unit: "x", Better: "higher", Moves: "itself: geomean NECPT over NRadix, paper 1.19"},
	{Name: "report.speedup_thp", Unit: "x", Better: "higher", Moves: "itself: geomean NE-THP over NR-THP, paper 1.24"},
	{Name: "report.speedup_err_4k", Unit: "share", Better: "lower", Moves: "report.speedup_4k"},
	{Name: "report.speedup_err_thp", Unit: "share", Better: "lower", Moves: "report.speedup_thp"},
}

// The paper's Figure 9 geometric-mean speed-ups.
const (
	paperSpeedup4K  = 1.19
	paperSpeedupTHP = 1.24
)
