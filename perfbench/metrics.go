package main

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric and workload it should move: the prediction a
// change to that layer is checked against.
type layerMetric struct {
	name, unit, better, moves string
}

// layerMetrics lists the traced run's metrics in print order; they must
// match BENCHMARK.json's per_layer list. A workload that does not
// exercise a layer reports 0 for it.
var layerMetrics = []layerMetric{
	{"trace_overhead", "ratio", "lower", "traced wall / untraced wall of the same operation"},
	{"profile.samples", "count", "lower", "base of every cpu_share: CPU-profile samples of the traced operation"},
	{"sim.cpu_share", "ratio", "lower", "events_per_s, wall_s @ chain-scale (most); wall_s @ paper-full; not req_p50_ms @ serve-mix"},
	{"mpisim.cpu_share", "ratio", "lower", "wall_s @ chain-scale, chain-shard, paper-full"},
	{"memband.cpu_share", "ratio", "lower", "wall_s @ paper-full only"},
	{"noise.cpu_share", "ratio", "lower", "wall_s @ paper-full (noise and rng)"},
	{"trace.cpu_share", "ratio", "lower", "wall_s, alloc_mb @ paper-full; about 0 on the chain workloads"},
	{"wave.cpu_share", "ratio", "lower", "wall_s @ paper-full, chain-scale"},
	{"gc.cpu_share", "ratio", "lower", "alloc_mb, cpu_s @ paper-full, chain-scale, chain-shard"},
	{"serve.cpu_share", "ratio", "lower", "req_p50_ms @ serve-mix"},
	{"spec.cpu_share", "ratio", "lower", "req_p50_ms @ serve-mix"},
	{"journal.cpu_share", "ratio", "lower", "req_p50_ms @ serve-mix"},
	{"http.cpu_share", "ratio", "lower", "req_p50_ms @ serve-mix"},
	{"other.cpu_share", "ratio", "lower", "samples no layer claims (workload, core, topology, scheduler)"},
	{"core.eq2_s", "s", "lower", "wall_s @ paper-full"},
	{"core.ext-collective_s", "s", "lower", "wall_s @ paper-full"},
	{"core.ext-hierarchy_s", "s", "lower", "wall_s @ paper-full"},
	{"core.fig1_s", "s", "lower", "wall_s @ paper-full"},
	{"core.fig2_s", "s", "lower", "wall_s @ paper-full"},
	{"core.fig3_s", "s", "lower", "wall_s @ paper-full"},
	{"core.fig4_s", "s", "lower", "wall_s @ paper-full"},
	{"core.fig5_s", "s", "lower", "wall_s @ paper-full"},
	{"core.fig6_s", "s", "lower", "wall_s @ paper-full"},
	{"core.fig7_s", "s", "lower", "wall_s @ paper-full"},
	{"core.fig8_s", "s", "lower", "wall_s @ paper-full"},
	{"core.fig9_s", "s", "lower", "wall_s @ paper-full"},
	{"sweep.parallelism", "ratio", "higher", "wall_s @ paper-full (CPU / wall of the batch)"},
	{"workload.programs_s", "s", "lower", "wall_s, events_per_s @ chain-scale, chain-shard"},
	{"mpisim.run_s", "s", "lower", "wall_s, events_per_s @ chain-scale, chain-shard"},
	{"wave.observe_s", "s", "lower", "wall_s, events_per_s @ chain-scale, chain-shard"},
	{"wave.observe_calls", "count", "lower", "wall_s, events_per_s @ chain-scale, chain-shard"},
	{"sim.events", "count", "lower", "wall_s, events_per_s @ chain-scale, chain-shard (exact)"},
	{"shard.count", "count", "higher", "wall_s @ chain-shard (from mpisim.PlanShards; short of the request = failed)"},
	{"shard.parallelism", "ratio", "higher", "wall_s @ chain-shard (CPU / wall of mpisim.Run)"},
	{"spec.canonical_us", "us", "lower", "req_p50_ms @ serve-mix (Decode, Canonical, Hash per body)"},
	{"http.overhead_ms", "ms", "lower", "req_p50_ms @ serve-mix (client latency minus handler time)"},
	{"serve.queue_wait_ms", "ms", "lower", "req_p99_ms @ serve-mix (POST answered to first point, mean)"},
	{"serve.compute_ms", "ms", "lower", "req_p99_ms @ serve-mix (first to last point, mean)"},
	{"serve.hit_p50_ms", "ms", "lower", "req_p50_ms @ serve-mix (whole-sweep cache hits)"},
	{"serve.fresh_p50_ms", "ms", "lower", "req_p50_ms @ serve-mix (requests that ran a job)"},
	{"cache.sweep_hit_ratio", "ratio", "higher", "req_per_s, req_p50_ms @ serve-mix (base: sweep-cache lookups)"},
	{"cache.point_hit_ratio", "ratio", "higher", "req_per_s, req_p50_ms @ serve-mix (base: point-cache lookups)"},
	{"serve.dup_compute_ratio", "ratio", "lower", "cpu_s @ serve-mix (points computed / distinct points needed)"},
	{"journal.records", "count", "lower", "req_p99_ms @ serve-mix (WAL records after the run)"},
	{"journal.bytes", "bytes", "lower", "req_p99_ms @ serve-mix (WAL size after the run)"},
	{"serve.points_retried", "count", "lower", "error_rate @ serve-mix"},
	{"serve.points_failed", "count", "lower", "error_rate @ serve-mix"},
}
