package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists the
// same names, units and directions (a test holds the two together); the
// regression bounds live only there.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
}

// endToEnd are the metrics a user of the system would see. Each is defined,
// and never zero, on every workload; an untraced run prints exactly these.
var endToEnd = []metricDef{
	{"throughput_tps", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
}

// blackBoxLayers are the per-layer metrics taken from outside the running
// processes on a traced run: bench-side spans around each HTTP call, counters
// scraped from /metrics and the job status, /proc/<pid>. A metric whose
// layer does no work on a workload reads 0 there.
var blackBoxLayers = []metricDef{
	{"cpu_us_per_task", "us", "lower"},
	{"service.push_rtt_ms_p50", "ms", "lower"},
	{"service.poll_rtt_ms_p50", "ms", "lower"},
	{"service.accept_to_visible_ms_p50", "ms", "lower"},
	{"service.shed_total", "count", "lower"},
	{"service.cpu_us_per_task", "us", "lower"},
	{"service.peak_rss_mb", "MB", "lower"},
	{"visible.latency_p90_ms", "ms", "lower"},
	{"visible.latency_p99_ms", "ms", "lower"},
	{"wal.fsyncs_per_task", "1/task", "lower"},
	{"wal.records_per_fsync", "count", "higher"},
	{"wal.fsync_ms_mean", "ms", "lower"},
	{"wal.fsync_busy_ratio", "ratio", "lower"},
	{"wal.bytes_per_task", "B", "lower"},
	{"wal.recovery_s", "s", "lower"},
	{"skel.farm.tps", "1/s", "higher"},
	{"skel.pipeline.tps", "1/s", "higher"},
	{"skel.dmap.tps", "1/s", "higher"},
	{"engine.recals_per_ktask", "1/ktask", "lower"},
	{"engine.breaches_per_ktask", "1/ktask", "lower"},
	{"engine.max_in_flight", "count", "higher"},
	{"cluster.tasks_per_lease", "count", "higher"},
	{"cluster.results_per_post", "count", "higher"},
	{"cluster.lease_wait_ms_mean", "ms", "lower"},
	{"cluster.roundtrip_us_mean", "us", "lower"},
	{"cluster.slow_node_share", "ratio", "lower"},
	{"worker.cpu_us_per_task", "us", "lower"},
	{"worker.peak_rss_mb", "MB", "lower"},
	{"worker.lease_rtt_ms_mean", "ms", "lower"},
	{"loadgen.late_ms_p99", "ms", "lower"},
	{"loadgen.cpu_us_per_task", "us", "lower"},
	{"degrade.makespan_s", "s", "lower"},
}

// ladderLayers are the per-layer metrics of the in-process ladder
// (bench/ladder): the same task stream through stacks that each add one
// layer, a span around every call, a layer's self time its rung minus the
// rung below.
var ladderLayers = []metricDef{
	{"kernel.spin_ns_per_iter", "ns", "lower"},
	{"kernel.task_ns", "ns", "lower"},
	{"engine.dispatch_ns_per_task", "ns", "lower"},
	{"engine.allocs_per_task", "count", "lower"},
	{"engine.pipeline_ns_per_task", "ns", "lower"},
	{"engine.dmap_ns_per_task", "ns", "lower"},
	{"monitor.observe_ns", "ns", "lower"},
	{"calibrate.run_ms", "ms", "lower"},
	{"service.push_ns_per_task", "ns", "lower"},
	{"service.allocs_per_task", "count", "lower"},
	{"service.http_ns_per_task", "ns", "lower"},
	{"service.results_ns_per_task", "ns", "lower"},
	{"wal.commit_ns_per_task", "ns", "lower"},
	{"journal.append_ns_per_record_b1", "ns", "lower"},
	{"journal.append_ns_per_record_b32", "ns", "lower"},
	{"journal.sync_ns", "ns", "lower"},
	{"journal.replay_ns_per_record", "ns", "lower"},
	{"cluster.binary.lease_ns_per_task", "ns", "lower"},
	{"cluster.binary.results_ns_per_task", "ns", "lower"},
	{"cluster.json.lease_ns_per_task", "ns", "lower"},
	{"cluster.json.results_ns_per_task", "ns", "lower"},
	{"cluster.frame_bytes_per_task", "B", "lower"},
	{"cluster.dispatch_ns_per_task", "ns", "lower"},
	{"metrics.observe_ns", "ns", "lower"},
	{"trace.append_ns", "ns", "lower"},
	{"budget.sum_ns_per_task", "ns", "lower"},
	{"budget.coverage", "ratio", "higher"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// perLayer is every metric a traced run prints.
func perLayer() []metricDef {
	return append(append([]metricDef(nil), blackBoxLayers...), ladderLayers...)
}
