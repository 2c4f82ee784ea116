// End-to-end scenarios driven through the daemon's HTTP API with the
// streaming client in drive_e2e_test.go. In-process, against the real
// handler stack: concurrent jobs sharing one calibration, mixed-skeleton
// traffic, and every skeleton placed on a cluster of in-process worker
// nodes. Across real graspd + graspworker processes, the adversarial
// ones: a flash crowd that must be shed gracefully (HTTP 429 +
// Retry-After, every admitted task exactly once, no stalls), the same
// flash crowd against a journaling daemon whose group-commit wal must
// count its commit batches, and a scripted slow-node degradation that the
// predictive policy must observe through completion times alone,
// surfacing per-worker forecasts in the job status. These are the
// overload counterparts of cluster_e2e_test.go's fault-injection
// scenarios, and they reuse its process harness.
package grasp_test

import (
	"fmt"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"grasp/internal/cluster"
	"grasp/internal/service"
)

// scenarioStatus is the slice of job status this suite asserts on.
type scenarioStatus struct {
	Adapt          string        `json:"adapt"`
	ForecastMicros map[int]int64 `json:"forecast_micros"`
	Nodes          []struct {
		Node      string `json:"node"`
		Completed int64  `json:"completed"`
	} `json:"nodes"`
}

// startScenarioDaemon boots a graspd and waits for it to come healthy,
// returning the API base URL and the coordinator URL for workers.
func startScenarioDaemon(t *testing.T, graspd string, extra ...string) (api, coordinator string, daemon *e2eProc) {
	t.Helper()
	apiPort, clusterPort := freePort(t), freePort(t)
	api = fmt.Sprintf("http://127.0.0.1:%d", apiPort)
	coordinator = fmt.Sprintf("http://127.0.0.1:%d", clusterPort)
	args := append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", apiPort),
		"-cluster-listen", fmt.Sprintf("127.0.0.1:%d", clusterPort),
		"-workers", "2",
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
			"-capacity", "2",
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
// daemon that is already shedding. The client honours every Retry-After,
// so graceful shedding must coexist with exactly-once delivery of the
// whole stream — and the daemon's shed accounting must agree with the
// client's.
func TestScenarioE2EFlashCrowd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process scenario suite skipped in -short mode (CI runs it in its own job)")
	}
	graspd, graspworker := buildE2EBinaries(t)
	// Tight bound (2 × a window of 2) and slow tasks: the trickle alone
	// overruns admission, so shedding is engaged well before the burst.
	api, coordinator, _ := startScenarioDaemon(t, graspd, "-dead-after", "2s")
	startScenarioWorkers(t, graspworker, coordinator, api, 2, nil)

	out := driveAll(t, 90*time.Second, drive{
		api: api, name: "flash-0", create: flashCreate,
		tasks: 100, batch: 10, sleepUS: 20_000, trickle: 10 * time.Millisecond,
	})[0]
	if out.shed == 0 {
		t.Error("flash crowd was never shed: want at least one 429'd push")
	}
	if out.retryAfter < time.Second {
		t.Errorf("largest Retry-After = %v, want >= 1s", out.retryAfter)
	}
	if out.status.Shed != out.shed {
		t.Errorf("daemon counted %d shed pushes, client counted %d", out.status.Shed, out.shed)
	}
	if out.status.Adapt != "predictive" {
		t.Errorf("adapt = %q, want predictive", out.status.Adapt)
	}
	if out.status.State != "done" {
		t.Errorf("job state = %q after a clean drive, want done", out.status.State)
	}
}

// flashCreate is the flash-crowd job: predictive, on the cluster, with a
// window of 2 and so an admission bound of 4. A bound of 8, on a window of
// 4, can let the burst in unshed: the forecast of a queue draining out of
// a blocked push falls under the resume level of 4 before the push
// returns, and the next push lands on an accepting job.
var flashCreate = map[string]any{"window": 2, "placement": "cluster", "adapt": "predictive"}

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
		"-dead-after", "2s", "-data-dir", t.TempDir())
	startScenarioWorkers(t, graspworker, coordinator, api, 2, nil)

	crowd := drive{create: flashCreate, api: api, tasks: 60, batch: 6, sleepUS: 20_000, trickle: 10 * time.Millisecond}
	a, b := crowd, crowd
	a.name, b.name = "dflash-0", "dflash-1"
	outs := driveAll(t, 90*time.Second, a, b)
	if outs[0].shed+outs[1].shed == 0 {
		t.Error("durable flash crowd was never shed: want at least one 429'd push")
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
	api, coordinator, _ := startScenarioDaemon(t, graspd, "-dead-after", "2s")
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
	// fleet, the second lands after scn-w2 started straggling. This
	// scenario isolates the slow-node half: a wave stays under the shed
	// bound, 2 × the cluster job's default window of 32, and a push that
	// is shed anyway is re-offered after its Retry-After.
	waves := drive{api: api, name: "slow", sleepUS: 20_000}
	var pushed driven
	pushDeadline := time.Now().Add(60 * time.Second)
	if err := waves.push(0, 30, pushDeadline, &pushed); err != nil {
		t.Fatal(err)
	}
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
	if err := waves.push(30, 60, pushDeadline, &pushed); err != nil {
		t.Fatal(err)
	}
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

// daemonServer serves a fresh service's handler stack in-process.
func daemonServer(t *testing.T, cfg service.Config) string {
	t.Helper()
	s, err := service.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(s))
	t.Cleanup(srv.Close)
	return srv.URL
}

// skeletonCreates declares one job of each skeleton. The farm omits the
// field to exercise the default; the pipeline's middle stage costs twice
// the others, a structural bottleneck for the remapper.
var skeletonCreates = []map[string]any{
	{},
	{"skeleton": "pipeline", "stages": []map[string]any{{"name": "s0"}, {"name": "s1", "cost_factor": 2}, {"name": "s2"}}},
	{"skeleton": "dmap"},
}

// loadDrives is one job "load-k" per create body, each merged over base,
// of tasks 300 µs tasks pushed ten at a time.
func loadDrives(api string, tasks int, base map[string]any, creates ...map[string]any) []drive {
	drives := make([]drive, len(creates))
	for k, c := range creates {
		create := maps.Clone(base)
		maps.Copy(create, c)
		drives[k] = drive{api: api, name: fmt.Sprintf("load-%d", k), create: create, tasks: tasks, batch: 10, sleepUS: 300}
	}
	return drives
}

// TestDaemonEndToEnd drives the daemon's real handler stack with several
// concurrent streaming jobs: exactly once on every result, the window
// enforced, and one calibration shared by every job.
func TestDaemonEndToEnd(t *testing.T) {
	api := daemonServer(t, service.Config{Workers: 4})
	for k, out := range driveAll(t, 60*time.Second, loadDrives(api, 60, map[string]any{"window": 6, "warmup": 4, "threshold_factor": 3}, nil, nil, nil)...) {
		if mif := out.status.MaxInFlight; mif == 0 || mif > 6 {
			t.Errorf("job load-%d max_in_flight = %d, want in (0, 6]: window not enforced", k, mif)
		}
	}

	// The daemon calibrated once and reused the ranking for later jobs.
	_, metricsBody := httpBody(t, api+"/metrics")
	for _, want := range []string{
		"service_calibrations_total 1",
		"service_calibration_reuse_total 2",
		"service_jobs_total 3",
		"service_tasks_completed_total 180",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("metrics missing %q:\n%s", want, metricsBody)
		}
	}
}

// TestDaemonMixedSkeletonTraffic drives one daemon with concurrent jobs of
// all three skeleton types: the same cursor endpoints serve every
// topology, exactly once, under one shared calibration.
func TestDaemonMixedSkeletonTraffic(t *testing.T) {
	api := daemonServer(t, service.Config{Workers: 4})
	driveAll(t, 60*time.Second, loadDrives(api, 40, map[string]any{"window": 6, "warmup": 4, "threshold_factor": 3}, skeletonCreates...)...)

	// The job listing reports each job's declared skeleton.
	var listing struct {
		Jobs []struct {
			Name     string `json:"name"`
			Skeleton string `json:"skeleton"`
		} `json:"jobs"`
	}
	if code, err := httpJSON(t, "GET", api+"/api/v1/jobs", nil, &listing); err != nil || code != http.StatusOK {
		t.Fatalf("job listing: HTTP %d err %v", code, err)
	}
	got := map[string]int{}
	for _, j := range listing.Jobs {
		got[j.Skeleton]++
	}
	for _, sk := range []string{"farm", "pipeline", "dmap"} {
		if got[sk] != 1 {
			t.Errorf("job listing has %d %s jobs, want 1: %+v", got[sk], sk, listing.Jobs)
		}
	}
}

// TestDriveClusterScenario drives a daemon whose jobs are placed on the
// cluster: every skeleton streams through two in-process worker nodes
// speaking the real protocol, and the exactly-once check holds across the
// process-shaped substrate.
func TestDriveClusterScenario(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.Config{DeadAfter: time.Second})
	defer coord.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	csrv := cluster.NewServer(coord)
	go csrv.Serve(ln)
	defer csrv.Close()
	for i := 0; i < 2; i++ {
		w, err := cluster.StartWorker(cluster.WorkerConfig{
			Coordinator: "http://" + ln.Addr().String(),
			ID:          fmt.Sprintf("drive-n%d", i),
			Capacity:    2,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Stop()
	}

	api := daemonServer(t, service.Config{Workers: 2, Cluster: coord})
	driveAll(t, 60*time.Second, loadDrives(api, 30, map[string]any{"placement": "cluster"}, skeletonCreates...)...)

	// Every job's tasks really executed on the worker nodes. Pipelines
	// execute each task once per stage, so the node-side total is at least
	// the 90 task completions.
	var total int64
	for _, n := range pollNodes(t, api) {
		if n.Completed == 0 {
			t.Errorf("node %s executed nothing", n.ID)
		}
		total += n.Completed
	}
	if total < 90 {
		t.Errorf("node-side executions = %d, want >= 90", total)
	}
}
