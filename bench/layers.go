package main

import (
	"fmt"
	"strconv"
	"strings"
)

// parseProm reads the unlabelled samples of a Prometheus text exposition:
// counters, gauges, and a histogram's _sum and _count. Bucket series carry
// labels and are skipped — the layer metrics below need totals only.
func parseProm(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for n, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' || strings.IndexByte(line, '{') >= 0 {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("exposition line %d: malformed sample %q", n+1, line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %v", n+1, err)
		}
		out[name] = v
	}
	return out, nil
}

// promDelta is after − before, series by series. A series absent from a
// scrape counts as 0 there, so a layer that is off (no journal, no
// cluster) yields zero deltas rather than an error.
func promDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for name, v := range after {
		out[name] = v - before[name]
	}
	return out
}

// daemonLayerMetrics maps the daemon's /metrics movement over the measured
// window onto the wal and cluster layer metrics. d is the scrape delta,
// tasks the completions visible in the window, windowS its length.
func daemonLayerMetrics(d map[string]float64, tasks int, windowS float64) map[string]float64 {
	fsyncs := d["service_journal_fsync_seconds_count"]
	fsyncSum := d["service_journal_fsync_seconds_sum"]
	return map[string]float64{
		"service.shed_total":         d["service_tasks_shed_total"],
		"wal.fsyncs_per_task":        ratio(fsyncs, float64(tasks)),
		"wal.records_per_fsync":      ratio(d["service_commit_batch_size_sum"], d["service_commit_batch_size_count"]),
		"wal.fsync_ms_mean":          ratio(fsyncSum, fsyncs) * 1e3,
		"wal.fsync_busy_ratio":       ratio(fsyncSum, windowS),
		"cluster.tasks_per_lease":    ratio(d["cluster_tasks_dispatched_total"], d["cluster_leases_total"]),
		"cluster.results_per_post":   ratio(d["cluster_results_batch_size_sum"], d["cluster_results_batch_size_count"]),
		"cluster.lease_wait_ms_mean": ratio(d["cluster_lease_wait_seconds_sum"], d["cluster_lease_wait_seconds_count"]) * 1e3,
	}
}
