package main

// metricDef names one reported metric. The lists below mirror
// BENCHMARK.json; the package test checks that they agree.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"qps", "queries/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"allocs_per_query", "allocs", "lower"},
	{"live_heap_mb", "MiB", "lower"},
	{"sim_s", "sim-s", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the single-layer metrics of the traced run. A metric that a
// workload cannot observe from outside the program reads 0 there (README.md
// lists which).
var perLayer = []metricDef{
	{"sqlparser.parse_us", "us", "lower"},
	{"plan.build_us", "us", "lower"},
	{"correlation.analyze_us", "us", "lower"},
	{"translator.lower_us", "us", "lower"},
	{"translator.jobs_per_query", "jobs", "lower"},
	{"translator.read_result_ms", "ms", "lower"},
	{"mapreduce.scan_mb", "MiB", "lower"},
	{"mapreduce.shuffle_mb", "MiB", "lower"},
	{"mapreduce.dfs_write_mb", "MiB", "lower"},
	{"mapreduce.map_input_records", "records", "lower"},
	{"mapreduce.reduce_groups", "groups", "lower"},
	{"mapreduce.run_chain_ms", "ms", "lower"},
	{"mapreduce.map_busy_ms", "ms", "lower"},
	{"mapreduce.combine_busy_ms", "ms", "lower"},
	{"mapreduce.engine_self_ms", "ms", "lower"},
	{"mapreduce.worker_utilization", "ratio", "higher"},
	{"cmf.reduce_busy_ms", "ms", "lower"},
	{"cmf.dispatch_rows_in", "rows", "lower"},
	{"cmf.dispatch_rows_out", "rows", "lower"},
	{"go.gc_cycles_per_query", "cycles", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"go.alloc_mb_per_query", "MiB", "lower"},
	{"server.query_p50_ms", "ms", "lower"},
	{"server.query_p99_ms", "ms", "lower"},
	{"server.wire_overhead_us", "us", "lower"},
	{"server.rows_sent_per_query", "rows", "lower"},
	{"server.admission_wait_p99_ms", "ms", "lower"},
	{"server.plancache_hit_ratio", "ratio", "higher"},
	{"server.plancache_evictions", "count", "lower"},
	{"server.plancache_retranslations", "count", "lower"},
	{"server.session_setup_ms", "ms", "lower"},
	{"server.heap_growth_kb_per_query", "KiB", "lower"},
	{"reuse.hit_ratio", "ratio", "higher"},
	{"reuse.invalidations", "count", "lower"},
	{"reuse.bytes_saved_mb", "MiB", "higher"},
	{"latency_p99_ms", "ms", "lower"},
	{"connect_p50_ms", "ms", "lower"},
	{"failed_ratio", "ratio", "lower"},
	{"trace.qps_overhead_pct", "%", "lower"},
}
