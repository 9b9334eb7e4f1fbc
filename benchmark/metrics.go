package main

// metricDef describes one reported metric. BENCHMARK.json at the repository
// root lists the same metrics; the smoke test keeps the two in step.
type metricDef struct {
	name, unit, better string
	// bound is how far an end-to-end metric's median may worsen, as a share
	// of the base median, before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of a Session sees, reported by every
// untraced run on every workload. Each is nonzero on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.15},
	{"allocs_per_op", "count", "lower", 0.1},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"max_load_bits", "bits", "lower", 0.15},
}

// perLayer are the metrics of a traced run. Metrics of a layer a workload
// never calls read 0 there. The first five are the end-to-end quantities
// that apply to one workload only, or that the engine reports as 0 on some
// plans, so they cannot carry a bound on every workload.
var perLayer = []metricDef{
	{"write_p50_ms", "ms", "lower", 0},
	{"write_p95_ms", "ms", "lower", 0},
	{"writes_per_s", "1/s", "higher", 0},
	{"total_bits", "bits", "lower", 0},
	{"failed_frac", "ratio", "lower", 0},

	{"data.snapshot_us", "us", "lower", 0},
	{"data.apply_us", "us", "lower", 0},
	{"data.partition_ms", "ms", "lower", 0},
	{"core.advance_us", "us", "lower", 0},
	{"core.delta_tuples_routed", "count", "lower", 0},
	{"core.reseeds", "count", "lower", 0},
	{"core.plan_cache_hit_ratio", "ratio", "higher", 0},
	{"core.admission_queued_frac", "ratio", "lower", 0},
	{"stats.collect_ms", "ms", "lower", 0},
	{"stats.heavy_hitters", "count", "lower", 0},
	{"stats.fingerprint_us", "us", "lower", 0},
	{"bounds.best_lower_ms", "ms", "lower", 0},
	{"hypercube.plan_ms", "ms", "lower", 0},
	{"skew.plan_ms", "ms", "lower", 0},
	{"rounds.plan_ms", "ms", "lower", 0},
	{"skew.virtual_servers", "count", "lower", 0},
	{"mpc.round_ms", "ms", "lower", 0},
	{"mpc.ns_per_routed_tuple", "ns", "lower", 0},
	{"mpc.routed_tuples", "count", "lower", 0},
	{"mpc.replication", "ratio", "lower", 0},
	{"mpc.alloc_mb", "MB", "lower", 0},
	{"join.compute_ms", "ms", "lower", 0},
	{"join.alloc_mb", "MB", "lower", 0},
	{"join.server_max_ms", "ms", "lower", 0},
	{"join.server_p50_ms", "ms", "lower", 0},
	{"join.output_skew", "ratio", "lower", 0},
	{"join.output_rows", "count", "lower", 0},
	{"exec.gather_ms", "ms", "lower", 0},
	{"exec.pipeline_ms", "ms", "lower", 0},
	{"runtime.gc_cycles_per_op", "count", "lower", 0},
	{"runtime.gc_pause_ms_per_op", "ms", "lower", 0},
	{"runtime.gc_cpu_frac", "ratio", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
	{"trace.overhead", "ratio", "lower", 0},
}

// sideBySide are the traced run's own latencies, recorded next to the
// untraced ones so the tracing overhead shows.
var sideBySide = []metricDef{
	{"traced_op_p50_ms", "ms", "lower", 0},
	{"traced_op_p95_ms", "ms", "lower", 0},
}

func lookupMetric(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer, sideBySide} {
		for _, d := range defs {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
