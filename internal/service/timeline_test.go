package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"grasp/internal/metrics"
	"grasp/internal/trace"
)

// timelineWire mirrors timelineResponse for decoding in tests.
type timelineWire struct {
	Job    string `json:"job"`
	State  string `json:"state"`
	Events []struct {
		Seq  int64      `json:"seq"`
		At   int64      `json:"at"`
		Kind trace.Kind `json:"kind"`
		Node string     `json:"node"`
		Task int        `json:"task"`
		Msg  string     `json:"msg"`
	} `json:"events"`
	Next    int64 `json:"next"`
	Dropped int64 `json:"dropped"`
	Total   int64 `json:"total"`
	Phases  []struct {
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	} `json:"phases"`
	Throughput []struct {
		StartNS     int64 `json:"start_ns"`
		Completions int   `json:"completions"`
	} `json:"throughput"`
}

// runTimelineJob creates a job, drains a handful of tasks through it, and
// returns once it is done — the setup every timeline assertion needs.
func runTimelineJob(t *testing.T, base string, s *Service, name string) {
	t.Helper()
	doJSON(t, "POST", base+"/api/v1/jobs", `{"name":"`+name+`","window":4,"warmup":2}`, http.StatusCreated, nil)
	doJSON(t, "POST", base+"/api/v1/jobs/"+name+"/tasks",
		`[{"id":1,"sleep_us":100},{"id":2,"sleep_us":100},{"id":3,"sleep_us":100},{"id":4,"sleep_us":100}]`,
		http.StatusAccepted, nil)
	doJSON(t, "POST", base+"/api/v1/jobs/"+name+"/close", ``, http.StatusOK, nil)
	j, _ := s.Job(name)
	waitDone(t, j, 10*time.Second)
}

func TestHTTPTimeline(t *testing.T) {
	srv, s := testServer(t)
	base := srv.URL
	runTimelineJob(t, base, s, "tl")

	var tl timelineWire
	doJSON(t, "GET", base+"/api/v1/jobs/tl/timeline", ``, http.StatusOK, &tl)
	if tl.Job != "tl" || tl.State != JobDone {
		t.Fatalf("timeline header = job %q state %q", tl.Job, tl.State)
	}
	if tl.Dropped != 0 || tl.Total != int64(len(tl.Events)) || tl.Next != tl.Total {
		t.Fatalf("cursor bookkeeping: dropped=%d total=%d next=%d events=%d",
			tl.Dropped, tl.Total, tl.Next, len(tl.Events))
	}
	kinds := make(map[trace.Kind]int)
	for i, e := range tl.Events {
		if e.Seq != int64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		kinds[e.Kind]++
	}
	if kinds[trace.KindDispatch] != 4 || kinds[trace.KindComplete] != 4 {
		t.Fatalf("dispatch/complete = %d/%d, want 4/4 (kinds %v)",
			kinds[trace.KindDispatch], kinds[trace.KindComplete], kinds)
	}
	if kinds[trace.KindCalibrate] == 0 {
		t.Fatalf("no calibrate events: %v", kinds)
	}
	// Phase brackets: calibrate and warmup closed, stream closed by finish;
	// calibrate ends before the stream starts, and warmup lies inside it.
	start, end := make(map[string]int64), make(map[string]int64)
	for _, ph := range tl.Phases {
		start[ph.Name], end[ph.Name] = ph.StartNS, ph.EndNS
	}
	for _, name := range []string{"calibrate", "warmup", "stream"} {
		e, ok := end[name]
		if !ok {
			t.Fatalf("phase %q missing (have %v)", name, tl.Phases)
		}
		if e < 0 {
			t.Fatalf("phase %q never closed", name)
		}
	}
	if end["calibrate"] > start["stream"] || start["warmup"] < start["stream"] || end["warmup"] > end["stream"] {
		t.Fatalf("phases out of order: %+v", tl.Phases)
	}
	// Throughput buckets account for every completion.
	sum := 0
	for _, b := range tl.Throughput {
		sum += b.Completions
	}
	if sum != 4 {
		t.Fatalf("throughput sums to %d completions, want 4", sum)
	}

	// Cursor paging: from the returned next, the log is drained.
	var tail timelineWire
	doJSON(t, "GET", base+"/api/v1/jobs/tl/timeline?after="+itoa64(tl.Next), ``, http.StatusOK, &tail)
	if len(tail.Events) != 0 || tail.Next != tl.Next {
		t.Fatalf("post-drain poll: %d events, next %d (want 0, %d)", len(tail.Events), tail.Next, tl.Next)
	}
	// A cursor far past the end clamps back (restart semantics).
	doJSON(t, "GET", base+"/api/v1/jobs/tl/timeline?after=999999", ``, http.StatusOK, &tail)
	if len(tail.Events) != 0 || tail.Next != tl.Total {
		t.Fatalf("overshoot clamp: %d events, next %d (want 0, %d)", len(tail.Events), tail.Next, tl.Total)
	}

	// Mid-log cursor returns the suffix with absolute sequence numbers.
	mid := tl.Total / 2
	doJSON(t, "GET", base+"/api/v1/jobs/tl/timeline?after="+itoa64(mid), ``, http.StatusOK, &tail)
	if int64(len(tail.Events)) != tl.Total-mid || tail.Events[0].Seq != mid {
		t.Fatalf("mid cursor: %d events from seq %d (want %d from %d)",
			len(tail.Events), tail.Events[0].Seq, tl.Total-mid, mid)
	}

	doJSON(t, "GET", base+"/api/v1/jobs/tl/timeline?after=-1", ``, http.StatusBadRequest, nil)
	doJSON(t, "GET", base+"/api/v1/jobs/tl/timeline?after=banana", ``, http.StatusBadRequest, nil)
	doJSON(t, "GET", base+"/api/v1/jobs/tl/timeline?bucket_ms=0", ``, http.StatusBadRequest, nil)
	doJSON(t, "GET", base+"/api/v1/jobs/tl/timeline?format=xml", ``, http.StatusBadRequest, nil)
	doJSON(t, "GET", base+"/api/v1/jobs/ghost/timeline", ``, http.StatusNotFound, nil)
	// Cluster disabled in this service → its timeline is a 404.
	doJSON(t, "GET", base+"/api/v1/cluster/timeline", ``, http.StatusNotFound, nil)
}

// TestTimelineThroughputIsBounded: a log an hour old read with 1 ms
// buckets answers a series over its retained events alone, in at most
// trace.MaxBuckets buckets, and still counts every completion — not one
// bucket per millisecond since the daemon started.
func TestTimelineThroughputIsBounded(t *testing.T) {
	cases := []struct {
		name string
		at   []time.Duration
	}{
		{"two events an hour in", []time.Duration{time.Hour, time.Hour + time.Millisecond}},
		{"events across the hour", []time.Duration{time.Millisecond, 30 * time.Minute, time.Hour}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := trace.NewBounded(16)
			for i, at := range tc.at {
				log.Append(trace.Event{At: at, Kind: trace.KindComplete, Task: i})
			}
			resp := buildTimeline(log, 0, time.Millisecond)
			if n := len(resp.Throughput); n == 0 || n > trace.MaxBuckets {
				t.Fatalf("%d throughput buckets, want 1..%d", n, trace.MaxBuckets)
			}
			sum := 0
			for _, b := range resp.Throughput {
				sum += b.Completions
			}
			if sum != len(tc.at) {
				t.Fatalf("throughput sums to %d completions, want %d", sum, len(tc.at))
			}
		})
	}
}

func TestHTTPTimelineCSV(t *testing.T) {
	srv, s := testServer(t)
	runTimelineJob(t, srv.URL, s, "csvjob")

	resp, err := http.Get(srv.URL + "/api/v1/jobs/csvjob/timeline?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("content type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "at_ns,kind,proc,node,task,dur_ns,value,msg" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) < 10 {
		t.Fatalf("csv has only %d lines:\n%s", len(lines), buf.String())
	}
}

// TestHTTPMetricsProm validates the upgraded exposition end-to-end: after
// real traffic through a durable service, /metrics parses as Prometheus
// text, declares the histogram families, and the task-latency histogram
// holds every completion.
func TestHTTPMetricsProm(t *testing.T) {
	s, err := Open(Config{Workers: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(srv.Close)
	runTimelineJob(t, srv.URL, s, "prom")

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()

	stats, err := metrics.ParseProm(body)
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	if stats.Histograms < 2 {
		t.Fatalf("exposition declares %d histogram families, want ≥2", stats.Histograms)
	}
	for _, want := range []string{
		"# TYPE service_task_latency_seconds histogram",
		"# TYPE service_journal_fsync_seconds histogram",
		"service_task_latency_seconds_count 4",
		// Legacy counter sample lines survive the upgrade verbatim.
		"service_jobs_total 1",
		"service_tasks_completed_total 4",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

// itoa64 keeps the query-building call sites readable.
func itoa64(v int64) string { return strconv.FormatInt(v, 10) }
