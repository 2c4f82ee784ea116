// Adversarial end-to-end scenarios against a real graspd + graspworker
// topology: a flash crowd that must be shed gracefully (HTTP 429 +
// Retry-After, every admitted task exactly once, no stalls), the same
// flash crowd against a journaling daemon whose group-commit wal must
// provably coalesce the concurrent pushes, and a scripted slow-node
// degradation that the predictive policy must observe through
// completion times alone, surfacing per-worker forecasts in the job
// status. These are the overload counterparts of cluster_e2e_test.go's
// fault-injection scenarios, and they reuse its process harness.
package grasp_test

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"grasp/internal/loadgen"
)

// scenarioStatus is the slice of job status this suite asserts on.
type scenarioStatus struct {
	State          string        `json:"state"`
	Adapt          string        `json:"adapt"`
	Shed           int           `json:"shed"`
	DetectorRatio  float64       `json:"detector_ratio"`
	ForecastMicros map[int]int64 `json:"forecast_micros"`
	QueueForecast  float64       `json:"queue_forecast"`
	EffectiveShare float64       `json:"effective_share"`
	Nodes          []struct {
		Node      string `json:"node"`
		Completed int64  `json:"completed"`
	} `json:"nodes"`
}

// startScenarioDaemon boots a graspd with the predictive policy armed and
// waits for it to come healthy, returning the API base URL and the
// coordinator URL for workers.
func startScenarioDaemon(t *testing.T, graspd string, extra ...string) (api, coordinator string, daemon *e2eProc) {
	t.Helper()
	apiPort, clusterPort := freePort(t), freePort(t)
	api = fmt.Sprintf("http://127.0.0.1:%d", apiPort)
	coordinator = fmt.Sprintf("http://127.0.0.1:%d", clusterPort)
	args := append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", apiPort),
		"-cluster-listen", fmt.Sprintf("127.0.0.1:%d", clusterPort),
		"-workers", "2", "-warmup", "4",
		"-adapt", "predictive",
		"-forecast-every", "1ms",
	}, extra...)
	daemon = startProc(t, graspd, args...)
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("graspd output:\n%s", daemon.out.String())
		}
	})
	waitFor(t, 10*time.Second, "daemon health", func() bool {
		code, err := httpJSON(t, "GET", api+"/healthz", nil, nil)
		return err == nil && code == http.StatusOK
	})
	return api, coordinator, daemon
}

// startScenarioWorkers spawns n graspworker processes and waits until the
// coordinator lists them all live. extraFor customises one worker's flags
// (the scripted victim); the rest run healthy.
func startScenarioWorkers(t *testing.T, graspworker, coordinator, api string, n int, extraFor func(id string) []string) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("scn-w%d", i+1)
		args := []string{
			"-coordinator", coordinator, "-id", id,
			"-capacity", "2", "-heartbeat", "100ms",
			"-bench-spin", "100000", "-lease-wait", "200ms",
		}
		if extraFor != nil {
			args = append(args, extraFor(id)...)
		}
		startProc(t, graspworker, args...)
	}
	waitFor(t, 15*time.Second, "workers live", func() bool {
		live := 0
		for _, node := range pollNodes(t, api) {
			if node.State == "live" {
				live++
			}
		}
		return live == n
	})
}

// TestScenarioE2EFlashCrowd hammers a predictive daemon with the
// flash-crowd arrival profile through real processes and sockets: a
// trickle saturates the tight admission bound, then the burst lands on a
// daemon that is already shedding. The driver honours every Retry-After,
// so graceful shedding must coexist with exactly-once delivery of the
// whole stream — and the daemon's shed accounting must agree with the
// client's.
func TestScenarioE2EFlashCrowd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process scenario suite skipped in -short mode (CI runs it in its own job)")
	}
	graspd, graspworker := buildE2EBinaries(t)
	// Tight bound (1 × a window of 4) and slow tasks: the trickle alone
	// overruns admission, so shedding is engaged well before the burst.
	api, coordinator, _ := startScenarioDaemon(t, graspd,
		"-window", "4", "-shed-factor", "1", "-dead-after", "2s")
	startScenarioWorkers(t, graspworker, coordinator, api, 2, nil)

	summary := loadgen.Driver{
		BaseURL:     api,
		Jobs:        1,
		TasksPerJob: 100,
		Batch:       10,
		SleepUS:     20_000,
		PollEvery:   10 * time.Millisecond, // trickle pacing; results poll
		Window:      4,
		Timeout:     90 * time.Second,
		Seed:        7,
		JobPrefix:   "flash",
		Placement:   "cluster",
		Adapt:       "predictive",
		Profile:     loadgen.ProfileFlashCrowd,
	}.Run()

	if !summary.OK() {
		t.Errorf("flash-crowd drive not clean: %d/%d tasks, errors %v",
			summary.Completed, summary.Tasks, summary.Errors)
	}
	out := summary.Jobs[0]
	if summary.Shed == 0 {
		t.Error("flash crowd was never shed: want at least one 429'd push")
	}
	if out.RetryAfter < time.Second {
		t.Errorf("largest Retry-After = %v, want >= 1s", out.RetryAfter)
	}
	if out.Duplicates != 0 {
		t.Errorf("flash job saw %d duplicate results, want 0", out.Duplicates)
	}

	var st scenarioStatus
	if code, err := httpJSON(t, "GET", api+"/api/v1/jobs/flash-0", nil, &st); err != nil || code != http.StatusOK {
		t.Fatalf("status: HTTP %d err %v", code, err)
	}
	if st.Shed != summary.Shed {
		t.Errorf("daemon counted %d shed pushes, client counted %d", st.Shed, summary.Shed)
	}
	if st.Adapt != "predictive" {
		t.Errorf("adapt = %q, want predictive", st.Adapt)
	}
	if st.State != "done" {
		t.Errorf("job state = %q after a clean drive, want done", st.State)
	}
}

// TestScenarioE2EDurableFlashCrowd re-runs the flash crowd against a
// journaling daemon: every admitted push crosses the group-commit wal
// before it is acknowledged, so admission control, exactly-once delivery
// and durable ingest are exercised together through real processes. The
// test reads the daemon's commit-batch histogram from /metrics after the
// drive. What only this test can check is that a real journaling daemon
// counts its commits and serves the histogram; whether two of them ever
// overlap one 0.2 ms fsync is the disk's decision, and coalescing itself
// is proven on a gated store by TestRecoveryGroupCommitCoalesces.
func TestScenarioE2EDurableFlashCrowd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process scenario suite skipped in -short mode (CI runs it in its own job)")
	}
	graspd, graspworker := buildE2EBinaries(t)
	api, coordinator, _ := startScenarioDaemon(t, graspd,
		"-window", "4", "-shed-factor", "1", "-dead-after", "2s",
		"-data-dir", t.TempDir())
	startScenarioWorkers(t, graspworker, coordinator, api, 2, nil)

	summary := loadgen.Driver{
		BaseURL:     api,
		Jobs:        2,
		TasksPerJob: 60,
		Batch:       6,
		SleepUS:     20_000,
		PollEvery:   10 * time.Millisecond,
		Window:      4,
		Timeout:     90 * time.Second,
		Seed:        11,
		JobPrefix:   "dflash",
		Placement:   "cluster",
		Adapt:       "predictive",
		Profile:     loadgen.ProfileFlashCrowd,
	}.Run()

	if !summary.OK() {
		t.Errorf("durable flash-crowd drive not clean: %d/%d tasks, errors %v",
			summary.Completed, summary.Tasks, summary.Errors)
	}
	if summary.Shed == 0 {
		t.Error("durable flash crowd was never shed: want at least one 429'd push")
	}
	for _, out := range summary.Jobs {
		if out.Duplicates != 0 {
			t.Errorf("job %s saw %d duplicate results, want 0", out.Name, out.Duplicates)
		}
	}
	code, body := httpBody(t, api+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	if !strings.Contains(body, "# TYPE service_commit_batch_size histogram") {
		t.Errorf("exposition missing the commit-batch histogram family:\n%s", body)
	}
	// Every fsync batch carries at least one record, so records ≥ batches.
	batches := promSample(t, body, "service_commit_batch_size_count")
	records := promSample(t, body, "service_commit_batch_size_sum")
	if batches == 0 {
		t.Fatal("a journaling daemon reports no commit batches")
	}
	if records < batches {
		t.Errorf("commit histogram inconsistent: %v records in %v fsync batches", records, batches)
	}
}

// promSample returns the value of the unlabelled sample name in a
// Prometheus exposition, failing the test if it is absent.
func promSample(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("exposition has no %s sample", name)
	return 0
}

// TestScenarioE2ESlowNode degrades one of two worker processes mid-stream
// (-degrade-after stretches every execution past the instant) and drives a
// predictive cluster job across the topology. The degradation reaches the
// daemon only through completion times, so the job must still deliver
// every task exactly once across both nodes, and the predictive layer
// must surface its per-worker forecasts in the job status.
func TestScenarioE2ESlowNode(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process scenario suite skipped in -short mode (CI runs it in its own job)")
	}
	graspd, graspworker := buildE2EBinaries(t)
	// Shedding off: this scenario isolates the slow-node half.
	api, coordinator, _ := startScenarioDaemon(t, graspd,
		"-shed-factor", "-1", "-dead-after", "2s")
	startScenarioWorkers(t, graspworker, coordinator, api, 2, func(id string) []string {
		if id == "scn-w2" {
			return []string{"-degrade-after", "200ms", "-degrade-factor", "6"}
		}
		return nil
	})

	code, err := httpJSON(t, "POST", api+"/api/v1/jobs", map[string]any{
		"name": "slow", "placement": "cluster", "adapt": "predictive",
	}, nil)
	if err != nil || code != http.StatusCreated {
		t.Fatalf("create slow: HTTP %d err %v", code, err)
	}
	// Two waves straddling the degrade instant: the first runs on a healthy
	// fleet, the second lands after scn-w2 started straggling.
	pushTasks(t, api, "slow", 0, 30, 20_000)
	waitFor(t, 30*time.Second, "first wave past the degrade instant", func() bool {
		var st scenarioStatus
		httpJSON(t, "GET", api+"/api/v1/jobs/slow", nil, &st)
		completed := int64(0)
		for _, n := range st.Nodes {
			completed += n.Completed
		}
		return completed >= 15
	})
	time.Sleep(300 * time.Millisecond) // firmly past -degrade-after
	pushTasks(t, api, "slow", 30, 30, 20_000)
	seen := drainJob(t, api, "slow", 60*time.Second)
	assertExactlyOnce(t, "slow", seen, 60)

	var st scenarioStatus
	if code, err := httpJSON(t, "GET", api+"/api/v1/jobs/slow", nil, &st); err != nil || code != http.StatusOK {
		t.Fatalf("status: HTTP %d err %v", code, err)
	}
	if st.Adapt != "predictive" {
		t.Errorf("adapt = %q, want predictive", st.Adapt)
	}
	if len(st.ForecastMicros) == 0 {
		t.Error("no per-worker forecasts surfaced in status for a predictive job")
	}
	for _, n := range st.Nodes {
		if n.Completed == 0 {
			t.Errorf("node %s executed nothing; job did not span both processes", n.Node)
		}
	}
}
