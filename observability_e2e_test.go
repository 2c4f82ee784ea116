// End-to-end smoke for the observability layer across real process
// boundaries: a journaling graspd with -debug-addr and a graspworker, a
// cluster job driven to completion, then every observability surface is
// exercised — the per-job and cluster timeline endpoints, the Prometheus
// exposition (validated, with the four histogram families populated), the
// pprof handlers, the structured JSON logs, and finally timeline-cursor
// stability across a SIGKILL and journal recovery.
package grasp_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"grasp/internal/metrics"
)

// e2eTimeline mirrors the timeline endpoint's wire form.
type e2eTimeline struct {
	State  string `json:"state"`
	Events []struct {
		Seq  int64  `json:"seq"`
		Kind string `json:"kind"`
		Node string `json:"node"`
		Task int    `json:"task"`
	} `json:"events"`
	Next    int64 `json:"next"`
	Dropped int64 `json:"dropped"`
	Total   int64 `json:"total"`
	Phases  []struct {
		Name  string `json:"name"`
		EndNS int64  `json:"end_ns"`
	} `json:"phases"`
}

// httpBody fetches url and returns status and body.
func httpBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return 0, ""
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestObservabilityE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode (CI runs it in its own job)")
	}
	graspd, graspworker := buildE2EBinaries(t)

	dataDir := t.TempDir()
	apiPort, clusterPort, debugPort, wDebugPort := freePort(t), freePort(t), freePort(t), freePort(t)
	api := fmt.Sprintf("http://127.0.0.1:%d", apiPort)
	debug := fmt.Sprintf("http://127.0.0.1:%d", debugPort)
	wDebug := fmt.Sprintf("http://127.0.0.1:%d", wDebugPort)
	daemonArgs := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", apiPort),
		"-cluster-listen", fmt.Sprintf("127.0.0.1:%d", clusterPort),
		"-dead-after", "700ms",
		"-workers", "2",
		"-data-dir", dataDir,
		"-debug-addr", fmt.Sprintf("127.0.0.1:%d", debugPort),
		"-log-format", "json",
	}
	daemon := startProc(t, graspd, daemonArgs...)
	defer func() {
		if t.Failed() {
			t.Logf("graspd output:\n%s", daemon.out.String())
		}
	}()
	waitFor(t, 10*time.Second, "daemon health", func() bool {
		code, err := httpJSON(t, "GET", api+"/healthz", nil, nil)
		return err == nil && code == http.StatusOK
	})

	worker := startProc(t, graspworker,
		"-coordinator", fmt.Sprintf("http://127.0.0.1:%d", clusterPort),
		"-id", "obs-w1",
		"-capacity", "2",
		"-debug-addr", fmt.Sprintf("127.0.0.1:%d", wDebugPort),
		"-log-format", "json")
	defer func() {
		if t.Failed() {
			t.Logf("graspworker output:\n%s", worker.out.String())
		}
	}()
	waitFor(t, 15*time.Second, "worker live", func() bool {
		for _, n := range pollNodes(t, api) {
			if n.State == "live" {
				return true
			}
		}
		return false
	})

	// Drive a cluster job to completion so every instrument has traffic.
	code, err := httpJSON(t, "POST", api+"/api/v1/jobs", map[string]any{
		"name": "obs", "placement": "cluster",
	}, nil)
	if err != nil || code != http.StatusCreated {
		t.Fatalf("create obs: HTTP %d err %v", code, err)
	}
	pushTasks(t, api, "obs", 0, 20, 1000)
	obsSeen := drainJob(t, api, "obs", 30*time.Second)
	assertExactlyOnce(t, "obs", obsSeen, 20)

	// Per-job timeline: dispatch/complete events with node attribution and
	// closed phase spans for the whole calibrate→warmup→stream lifecycle.
	var tl e2eTimeline
	if code, err := httpJSON(t, "GET", api+"/api/v1/jobs/obs/timeline", nil, &tl); err != nil || code != http.StatusOK {
		t.Fatalf("timeline: HTTP %d err %v", code, err)
	}
	if tl.State != "done" || tl.Next != tl.Total {
		t.Fatalf("timeline state=%q next=%d total=%d", tl.State, tl.Next, tl.Total)
	}
	counts := map[string]int{}
	nodeAttributed := false
	for _, e := range tl.Events {
		counts[e.Kind]++
		if e.Kind == "complete" && e.Node != "" {
			nodeAttributed = true
		}
	}
	if counts["dispatch"] != 20 || counts["complete"] != 20 {
		t.Errorf("timeline dispatch/complete = %d/%d, want 20/20 (%v)", counts["dispatch"], counts["complete"], counts)
	}
	if !nodeAttributed {
		t.Error("timeline completions carry no node attribution")
	}
	closed := map[string]bool{}
	for _, ph := range tl.Phases {
		closed[ph.Name] = ph.EndNS >= 0
	}
	for _, name := range []string{"calibrate", "warmup", "stream"} {
		if !closed[name] {
			t.Errorf("phase %q missing or never closed (%v)", name, tl.Phases)
		}
	}
	preCrashCursor := tl.Next

	// Coordinator timeline: the cluster side saw the same traffic.
	var ctl e2eTimeline
	if code, err := httpJSON(t, "GET", api+"/api/v1/cluster/timeline", nil, &ctl); err != nil || code != http.StatusOK {
		t.Fatalf("cluster timeline: HTTP %d err %v", code, err)
	}
	ccounts := map[string]int{}
	for _, e := range ctl.Events {
		ccounts[e.Kind]++
		if e.Node == "" {
			t.Errorf("cluster timeline event %+v missing node", e)
		}
	}
	if ccounts["dispatch"] < 20 || ccounts["complete"] != 20 {
		t.Errorf("cluster timeline dispatch/complete = %d/%d, want ≥20/20", ccounts["dispatch"], ccounts["complete"])
	}

	// The Prometheus exposition parses and all four histogram families are
	// declared and populated.
	code, metricsBody := httpBody(t, api+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	stats, perr := metrics.ParseProm(metricsBody)
	if perr != nil {
		t.Fatalf("invalid exposition: %v\n%s", perr, metricsBody)
	}
	if stats.Histograms < 4 {
		t.Errorf("exposition declares %d histogram families, want ≥4", stats.Histograms)
	}
	for _, want := range []string{
		"# TYPE service_task_latency_seconds histogram",
		"# TYPE service_journal_fsync_seconds histogram",
		"# TYPE cluster_lease_wait_seconds histogram",
		"# TYPE cluster_results_batch_size histogram",
		"service_task_latency_seconds_count 20",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// pprof answers on the daemon's debug listener; the worker's debug
	// listener exposes its own registry with the lease-RTT histogram.
	if code, _ := httpBody(t, debug+"/debug/pprof/goroutine?debug=1"); code != http.StatusOK {
		t.Errorf("daemon pprof goroutine: HTTP %d", code)
	}
	if code, _ := httpBody(t, wDebug+"/debug/pprof/goroutine?debug=1"); code != http.StatusOK {
		t.Errorf("worker pprof goroutine: HTTP %d", code)
	}
	code, wMetrics := httpBody(t, wDebug+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("worker /metrics: HTTP %d", code)
	}
	if _, err := metrics.ParseProm(wMetrics); err != nil {
		t.Errorf("worker exposition invalid: %v\n%s", err, wMetrics)
	}
	if !strings.Contains(wMetrics, "# TYPE worker_lease_rtt_seconds histogram") {
		t.Errorf("worker exposition missing lease RTT histogram:\n%s", wMetrics)
	}

	// Structured logs: every daemon line is JSON, and the job lifecycle
	// lines carry the job field.
	assertJSONLogs(t, "graspd", daemon.out.String(), `"job":"obs"`)
	assertJSONLogs(t, "graspworker", worker.out.String(), `"node":"obs-w1"`)

	// SIGKILL the daemon and restart over the same journal: a timeline
	// cursor advanced before the crash must stay valid — the recovered
	// job's (fresh, shorter) trace clamps it back instead of erroring.
	if err := daemon.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	daemon.cmd.Wait()
	daemon2 := startProc(t, graspd, daemonArgs...)
	defer func() {
		if t.Failed() {
			t.Logf("graspd (second life) output:\n%s", daemon2.out.String())
		}
	}()
	waitFor(t, 10*time.Second, "restarted daemon health", func() bool {
		code, err := httpJSON(t, "GET", api+"/healthz", nil, nil)
		return err == nil && code == http.StatusOK
	})
	var rtl e2eTimeline
	url := fmt.Sprintf("%s/api/v1/jobs/obs/timeline?after=%d", api, preCrashCursor)
	if code, err := httpJSON(t, "GET", url, nil, &rtl); err != nil || code != http.StatusOK {
		t.Fatalf("post-recovery timeline: HTTP %d err %v", code, err)
	}
	if rtl.State != "done" {
		t.Errorf("recovered job state = %q, want done", rtl.State)
	}
	if int64(len(rtl.Events)) != rtl.Total-min64(preCrashCursor, rtl.Total) || rtl.Next != rtl.Total {
		t.Errorf("post-recovery cursor: %d events, next=%d total=%d (cursor %d)",
			len(rtl.Events), rtl.Next, rtl.Total, preCrashCursor)
	}
}

// assertJSONLogs checks that a process's stderr is line-delimited JSON and
// that at least one line contains the given field marker.
func assertJSONLogs(t *testing.T, name, out, wantField string) {
	t.Helper()
	sawField := false
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Errorf("%s log line is not JSON: %q", name, line)
			continue
		}
		if _, ok := rec["msg"]; !ok {
			t.Errorf("%s log line missing msg: %q", name, line)
		}
		if strings.Contains(line, wantField) {
			sawField = true
		}
	}
	if !sawField {
		t.Errorf("%s logs never carried %s:\n%s", name, wantField, out)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
