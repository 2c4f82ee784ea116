package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}, {-5, 1}, {120, 5},
	} {
		if got := percentile(vals, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
}

func TestSlicesReportTheGoodSideQuartile(t *testing.T) {
	// Eight half-second slices; three are disturbed — fewer results, each
	// slower — as a stalled disk or a busy neighbour would leave them. The good-side quartiles read the undisturbed level; a mean would
	// not.
	half := int64(500 * time.Millisecond)
	w := newSlices(8*half, half)
	for i := 0; i < 8; i++ {
		n, lat := 100, 2.0
		if i == 1 || i == 4 || i == 5 {
			n, lat = 10, 50.0
		}
		for k := 0; k < n; k++ {
			w.add(int64(i)*half+int64(k), lat)
		}
	}
	w.add(-1, 1000)    // before the window
	w.add(8*half, 500) // after its last whole slice
	if got := w.throughput(); got != 200 {
		t.Errorf("throughput = %v, want 200 results/s", got)
	}
	if got := w.latencyP50(); got != 2 {
		t.Errorf("latencyP50 = %v, want 2 ms", got)
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-9 || geomean([]float64{2, 0}) != 0 || geomean(nil) != 0 {
		t.Errorf("geomean(2, 8) = %v, want 4; with a zero or no values it is 0", got)
	}
	if hi, lo := goodQuartile([]float64{1, 2, 3, 4, 5}, true), goodQuartile([]float64{1, 2, 3, 4, 5}, false); hi != 4 || lo != 2 {
		t.Errorf("good-side quartiles of 1..5 = %v (higher is better), %v (lower); want 4, 2", hi, lo)
	}
	// An empty slice has no latency; it still counts as a slice of zero
	// throughput.
	e := newSlices(4*half, half)
	e.add(0, 3)
	if e.latencyP50() != 3 || e.throughput() != 0.5 {
		t.Errorf("one result in four slices: latencyP50 %v, throughput %v; want 3, 0.5", e.latencyP50(), e.throughput())
	}
	// A window shorter than one slice is a single slice of its own length.
	s := newSlices(half/2, half)
	for k := 0; k < 25; k++ {
		s.add(1, 1)
	}
	if got := s.throughput(); got != 100 {
		t.Errorf("short window: throughput = %v, want 100", got)
	}
}

// drain generates a stream's first batches as one byte string.
func drain(seed int64, kind taskKind, batch, batches int) []byte {
	st := newStream(seed, kind, batch)
	var all, buf []byte
	for i := 0; i < batches; i++ {
		buf, _, _ = st.next(buf, int64(i), 0)
		all = append(all, buf...)
	}
	return all
}

func TestSameSeedSameStreamAndSchedule(t *testing.T) {
	for _, kind := range []taskKind{kindSpin, kindSleep} {
		a, b := drain(7, kind, 32, 10), drain(7, kind, 32, 10)
		if !bytes.Equal(a, b) {
			t.Errorf("kind %d: the same seed gave two different task streams", kind)
		}
		if bytes.Equal(a, drain(8, kind, 32, 10)) {
			t.Errorf("kind %d: two seeds gave the same task stream", kind)
		}
	}
	var batch []map[string]any
	st := newStream(7, kindSpin, 4)
	body, _, n := st.next(nil, 0, 0)
	if err := json.Unmarshal(body, &batch); err != nil || len(batch) != 4 || n != 4 {
		t.Fatalf("batch is not a JSON array of 4 tasks: %v (%s)", err, body)
	}
	for i, task := range batch {
		spin := task["spin"].(float64)
		if task["id"].(float64) != float64(i) || spin < stdSpin*0.75 || spin > stdSpin*1.25 {
			t.Errorf("task %d = %v: want id %d and spin within ±25%% of %d", i, task, i, stdSpin)
		}
	}
	// A limit cuts the last batch short and then ends the stream.
	lim := newStream(7, kindSpin, 4)
	for _, want := range []int{4, 2, 0} {
		if _, _, n := lim.next(nil, 0, 6); n != want {
			t.Errorf("limited stream gave a batch of %d, want %d", n, want)
		}
	}

	a, b := schedule(7, 400, int64(5*time.Second)), schedule(7, 400, int64(5*time.Second))
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedules of one seed have %d and %d sends", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("send %d is due at %d and at %d under one seed", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule is not in time order at %d", i)
		}
	}
	if rate := float64(len(a)) / 5; rate < 360 || rate > 440 {
		t.Errorf("schedule offers %v sends/s, want about 400", rate)
	}
	if c := schedule(8, 400, int64(5*time.Second)); len(c) == len(a) && c[0] == a[0] {
		t.Errorf("two seeds gave the same schedule")
	}
}

const cannedBefore = `# HELP service_tasks_completed_total grasp counter
# TYPE service_tasks_completed_total counter
service_tasks_completed_total 1000
# HELP service_journal_fsync_seconds grasp histogram
# TYPE service_journal_fsync_seconds histogram
service_journal_fsync_seconds_bucket{le="0.001"} 90
service_journal_fsync_seconds_bucket{le="+Inf"} 100
service_journal_fsync_seconds_sum 0.05
service_journal_fsync_seconds_count 100
service_commit_batch_size_sum 150
service_commit_batch_size_count 100
cluster_tasks_dispatched_total 400
cluster_leases_total 100
`

const cannedAfter = `# TYPE service_tasks_completed_total counter
service_tasks_completed_total 3000
service_tasks_shed_total 3
service_journal_fsync_seconds_bucket{le="0.001"} 990
service_journal_fsync_seconds_bucket{le="+Inf"} 1100
service_journal_fsync_seconds_sum 1.05
service_journal_fsync_seconds_count 1100
service_commit_batch_size_sum 2150
service_commit_batch_size_count 1100
cluster_tasks_dispatched_total 2400
cluster_leases_total 600
cluster_results_batch_size_sum 2000
cluster_results_batch_size_count 500
cluster_lease_wait_seconds_sum 0.25
cluster_lease_wait_seconds_count 500
`

func TestScrapeToLayerMetrics(t *testing.T) {
	before, err := parseProm(cannedBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(cannedAfter)
	if err != nil {
		t.Fatal(err)
	}
	if _, labelled := before[`service_journal_fsync_seconds_bucket{le="0.001"}`]; labelled || len(before) != 7 {
		t.Errorf("parseProm kept %d series, want the 7 unlabelled ones: %v", len(before), before)
	}
	got := daemonLayerMetrics(promDelta(before, after), 2000, 4)
	want := map[string]float64{
		"service.shed_total":         3,
		"wal.fsyncs_per_task":        0.5,
		"wal.records_per_fsync":      2,
		"wal.fsync_ms_mean":          1,
		"wal.fsync_busy_ratio":       0.25,
		"cluster.tasks_per_lease":    4,
		"cluster.results_per_post":   4,
		"cluster.lease_wait_ms_mean": 0.5,
	}
	if len(got) != len(want) {
		t.Errorf("got %d layer metrics, want %d", len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || math.Abs(g-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, g, w)
		}
	}
	// A daemon with no journal and no cluster serves none of those series:
	// every ratio reads 0, none is NaN.
	for name, v := range daemonLayerMetrics(promDelta(nil, map[string]float64{"service_tasks_completed_total": 9}), 9, 1) {
		if v != 0 {
			t.Errorf("%s = %v on a daemon without wal or cluster, want 0", name, v)
		}
	}
	if _, err := parseProm("service_tasks_completed_total many\n"); err == nil {
		t.Error("parseProm accepted a sample whose value is not a number")
	}
}

func TestPushHonoursAndCounts429(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1, 2:
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
		case 3:
			w.WriteHeader(http.StatusAccepted)
		default:
			w.WriteHeader(http.StatusConflict)
		}
	}))
	defer srv.Close()
	cl := newClient(srv.URL, 2, time.Now(), nil)
	defer cl.close()
	if err := cl.push("j", []byte(`[{"id":0}]`), 1); err != nil {
		t.Fatalf("push after two 429s: %v", err)
	}
	if calls.Load() != 3 || cl.refused.Load() != 2 || cl.errored.Load() != 0 {
		t.Errorf("after two 429s and a 202: %d calls, %d refused, %d errored; want 3, 2, 0",
			calls.Load(), cl.refused.Load(), cl.errored.Load())
	}
	if err := cl.push("j", []byte(`[{"id":1}]`), 1); err == nil {
		t.Error("push answered 409 returned no error")
	}
	if cl.refused.Load() != 2 || cl.errored.Load() != 1 {
		t.Errorf("after a 409: %d refused, %d errored; want 2, 1", cl.refused.Load(), cl.errored.Load())
	}
}

// benchmarkSpec is BENCHMARK.json as the driver reads it.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var gated []workload
	for _, w := range workloads {
		if !w.suiteOnly {
			gated = append(gated, w)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness gates %d", len(spec.Workloads), len(gated))
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds is %d, the harness defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	for i, w := range gated {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness has %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := spec.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	layers := perLayer()
	if len(spec.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness has %d", len(spec.PerLayer), len(layers))
	}
	seen := map[string]bool{}
	for i, d := range layers {
		m := spec.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, d)
		}
		if seen[d.name] {
			t.Errorf("metric name %s is used twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestSmoke runs the whole suite, untraced and traced, with half-second
// windows against real graspd and graspworker processes, and checks that
// every named metric comes out finite and every output check passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real processes")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	if err := run("", 1, 0, true, false, true, root); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "bench", "out", "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Results []result `json:"results"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != 2*len(workloads) {
		t.Fatalf("results.json holds %d runs, want %d", len(report.Results), 2*len(workloads))
	}
	for _, res := range report.Results {
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s (traced %v): correct %v, %d failed: %v", res.Workload, res.Traced, res.Correct, res.Failed, res.Problems)
		}
		for _, d := range defsFor(res.Traced) {
			v, ok := res.Metrics[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s (traced %v): metric %s = %v, present %v", res.Workload, res.Traced, d.name, v, ok)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(root, "bench", "out", "trace.json")); err != nil {
		t.Errorf("traced run left no trace.json: %v", err)
	}
}
