package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"grasp/internal/cluster"
)

// testServer spins up the full handler stack over a small service.
func testServer(t *testing.T) (*httptest.Server, *Service) {
	t.Helper()
	s := OpenForTest(t, Config{Workers: 2})
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(srv.Close)
	return srv, s
}

// doJSON posts body to url and decodes the response into out (when non-nil).
func doJSON(t *testing.T, method, url string, body string, wantStatus int, out any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s = %d (want %d): %s", method, url, resp.StatusCode, wantStatus, buf.String())
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decode %s: %v", buf.String(), err)
		}
	}
}

func TestHTTPJobLifecycle(t *testing.T) {
	srv, _ := testServer(t)
	base := srv.URL

	var created JobStatus
	doJSON(t, "POST", base+"/api/v1/jobs", `{"name":"alpha","window":4,"warmup":2}`, http.StatusCreated, &created)
	if created.Name != "alpha" || created.State != JobAccepting || created.Window != 4 {
		t.Fatalf("created = %+v", created)
	}

	var accepted struct {
		Accepted int `json:"accepted"`
	}
	tasks := `{"tasks":[{"id":1,"sleep_us":50},{"id":2,"sleep_us":50},{"id":3,"sleep_us":50}]}`
	doJSON(t, "POST", base+"/api/v1/jobs/alpha/tasks", tasks, http.StatusAccepted, &accepted)
	if accepted.Accepted != 3 {
		t.Fatalf("accepted = %d", accepted.Accepted)
	}
	// Bare-array form is accepted too.
	doJSON(t, "POST", base+"/api/v1/jobs/alpha/tasks", `[{"id":4},{"id":5}]`, http.StatusAccepted, &accepted)
	if accepted.Accepted != 2 {
		t.Fatalf("accepted = %d", accepted.Accepted)
	}

	doJSON(t, "POST", base+"/api/v1/jobs/alpha/close", ``, http.StatusOK, nil)

	// Poll results until the job drains.
	deadline := time.Now().Add(10 * time.Second)
	var poll struct {
		Results []TaskResult `json:"results"`
		Next    int          `json:"next"`
		State   string       `json:"state"`
	}
	got := make(map[int]bool)
	cursor := 0
	for {
		doJSON(t, "GET", fmt.Sprintf("%s/api/v1/jobs/alpha/results?after=%d", base, cursor), ``, http.StatusOK, &poll)
		for _, r := range poll.Results {
			if got[r.ID] {
				t.Fatalf("task %d returned twice across polls", r.ID)
			}
			got[r.ID] = true
		}
		cursor = poll.Next
		if poll.State == JobDone && len(got) == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never drained: state %s, %d results", poll.State, len(got))
		}
	}
	// The terminal cursor stands still: a poll from it returns nothing, the
	// same next, and state done.
	var tail resultsPage
	doJSON(t, "GET", fmt.Sprintf("%s/api/v1/jobs/alpha/results?after=%d", base, cursor), ``, http.StatusOK, &tail)
	if len(tail.Results) != 0 || tail.Next != cursor || cursor != 5 || tail.State != JobDone {
		t.Fatalf("poll from the terminal cursor %d = %d results, next %d, state %s; want 0, %d, %s",
			cursor, len(tail.Results), tail.Next, tail.State, cursor, JobDone)
	}

	var status JobStatus
	doJSON(t, "GET", base+"/api/v1/jobs/alpha", ``, http.StatusOK, &status)
	if status.Completed != 5 || status.State != JobDone {
		t.Fatalf("final status = %+v", status)
	}

	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	doJSON(t, "GET", base+"/api/v1/jobs", ``, http.StatusOK, &list)
	if len(list.Jobs) != 1 || list.Jobs[0].Name != "alpha" {
		t.Fatalf("list = %+v", list)
	}
}

// polled is one results poll's reply and when its handler returned.
type polled struct {
	page     resultsPage
	raw      string
	returned time.Time
}

// pollAsync serves GET .../results?after= on h from its own goroutine, the
// way a client's request sits in the handler, and delivers the reply.
func pollAsync(t *testing.T, ctx context.Context, h http.Handler, job string, after int) <-chan polled {
	t.Helper()
	req := httptest.NewRequest("GET", fmt.Sprintf("/api/v1/jobs/%s/results?after=%d", job, after), nil).WithContext(ctx)
	out := make(chan polled, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		p := polled{raw: rec.Body.String(), returned: time.Now()}
		if rec.Code != http.StatusOK {
			t.Errorf("results poll = %d: %s", rec.Code, p.raw)
		} else if err := json.Unmarshal(rec.Body.Bytes(), &p.page); err != nil {
			t.Errorf("decode %s: %v", p.raw, err)
		}
		out <- p
	}()
	return out
}

// parked reports whether a results poll waits at j's watermark.
func parked(j *Job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.changed != nil
}

// parkPoll starts a results poll on j at cursor after and returns once it
// is parked. A channel left by an earlier poll that returned unwoken (hold
// expired, client gone) is cleared first, so parked means this poll.
func parkPoll(t *testing.T, ctx context.Context, h http.Handler, j *Job, after int) <-chan polled {
	t.Helper()
	j.mu.Lock()
	j.wakeLocked()
	j.mu.Unlock()
	c := pollAsync(t, ctx, h, j.Name(), after)
	waitUntil(t, 5*time.Second, "the poll to park", func() bool { return parked(j) })
	return c
}

// awaitPoll receives a poll's reply, failing the test after d.
func awaitPoll(t *testing.T, c <-chan polled, d time.Duration) polled {
	t.Helper()
	select {
	case p := <-c:
		return p
	case <-time.After(d):
		t.Fatalf("results poll still parked after %v", d)
		return polled{}
	}
}

// TestResultsPollWaitsForTheWatermark: a poll at the watermark parks, and
// the task pushed after it parked comes back in that same reply, as soon
// as its result is visible — not an empty page now and the result on the
// next tick.
func TestResultsPollWaitsForTheWatermark(t *testing.T) {
	s := OpenForTest(t, Config{Workers: 2})
	t.Cleanup(func() { s.Close() })
	j, err := s.Submit("wm", JobSpec{WarmupTasks: 2})
	if err != nil {
		t.Fatal(err)
	}
	poll := parkPoll(t, context.Background(), NewHandler(s), j, 0)
	pushed := time.Now()
	if _, err := j.Push(burst(7, 1, 0)); err != nil {
		t.Fatal(err)
	}
	p := awaitPoll(t, poll, 5*time.Second)
	if len(p.page.Results) != 1 || p.page.Results[0].ID != 7 || p.page.Next != 1 || p.page.State != JobAccepting {
		t.Fatalf("parked poll answered %s, want task 7 at next 1, accepting", p.raw)
	}
	if d := p.returned.Sub(pushed); d >= resultsHold/2 {
		t.Errorf("result reached the parked poll %v after the push, want well under %v", d, resultsHold/2)
	}
}

// TestResultsPollWakesOnLifecycle: a parked poll answers as soon as the
// state it would report moves — draining on CloseInput, done when the job
// finishes, accepting when a recovered job resumes.
func TestResultsPollWakesOnLifecycle(t *testing.T) {
	t.Run("close and finish", func(t *testing.T) {
		s, ks := serviceOverStore(t)
		h := NewHandler(s)
		j, err := s.Submit("life", JobSpec{WarmupTasks: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Push(burst(0, 1, 0)); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, 10*time.Second, "the result to become visible", func() bool { return j.Status().Completed == 1 })
		// Hold the done record in its fsync, so the job stays draining
		// after the close until the test lets it finish.
		release := ks.arm(t, walDone)

		poll := parkPoll(t, context.Background(), h, j, 1)
		closed := time.Now()
		if err := j.CloseInput(); err != nil {
			t.Fatal(err)
		}
		p := awaitPoll(t, poll, 5*time.Second)
		if p.page.State != JobDraining || len(p.page.Results) != 0 || p.page.Next != 1 {
			t.Errorf("poll parked across CloseInput answered %s, want draining with nothing new", p.raw)
		}
		if d := p.returned.Sub(closed); d >= resultsHold/2 {
			t.Errorf("CloseInput woke the parked poll after %v, want well under %v", d, resultsHold/2)
		}

		waitUntil(t, 10*time.Second, "the done record's fsync to park", func() bool { return ks.parkedSyncs() == 1 })
		poll = parkPoll(t, context.Background(), h, j, 1)
		finished := time.Now()
		release()
		p = awaitPoll(t, poll, 5*time.Second)
		if p.page.State != JobDone || len(p.page.Results) != 0 || p.page.Next != 1 {
			t.Errorf("poll parked across the finish answered %s, want done with nothing new", p.raw)
		}
		if d := p.returned.Sub(finished); d >= resultsHold/2 {
			t.Errorf("the finish woke the parked poll after %v, want well under %v", d, resultsHold/2)
		}
	})

	t.Run("resume", func(t *testing.T) {
		// A journaled cluster job with no node live at Open is recovering
		// until a worker registers.
		dir := t.TempDir()
		cfg := Config{Workers: 2}
		spec := JobSpec{Placement: PlacementCluster, Window: 4, WarmupTasks: 2}.withDefaults(cfg.Workers)
		w, err := openWAL(dir, walOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.commit(walRecord{Kind: walCreate, Job: "rec", Spec: &spec}); err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		coord := cluster.NewCoordinator(cluster.Config{DeadAfter: 500 * time.Millisecond})
		t.Cleanup(coord.Close)
		url := serveCluster(t, coord)
		cfg.DataDir, cfg.Cluster = dir, coord
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		j, ok := s.Job("rec")
		if !ok {
			t.Fatal("journaled job not recovered")
		}
		if st := j.state(); st != JobRecovering {
			t.Fatalf("journaled cluster job with no live node is %s, want recovering", st)
		}
		// The channel a poll parks on, watched without the hold: the
		// worker's registration may take longer than resultsHold.
		changed := j.waitPast(0)
		if changed == nil {
			t.Fatal("a poll at the watermark of a recovering job does not park")
		}
		worker, err := cluster.StartWorker(cluster.WorkerConfig{
			Coordinator: url, ID: "a", Capacity: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(worker.Stop)
		select {
		case <-changed:
		case <-time.After(10 * time.Second):
			t.Fatal("resume never woke the parked poll")
		}
		if st := j.state(); st != JobAccepting {
			t.Errorf("woken poll reads %s, want accepting", st)
		}
	})
}

// TestResultsPollReleases: a parked poll never outlives its client or the
// service, and with nothing to wait for it answers the empty page after
// resultsHold.
func TestResultsPollReleases(t *testing.T) {
	s := OpenForTest(t, Config{Workers: 2})
	h := NewHandler(s)
	j, err := s.Submit("idle", JobSpec{WarmupTasks: 2})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	p := awaitPoll(t, pollAsync(t, context.Background(), h, "idle", 0), 5*time.Second)
	if d := p.returned.Sub(start); d < resultsHold {
		t.Errorf("an idle job's poll answered after %v, before the %v hold", d, resultsHold)
	}
	if !strings.Contains(p.raw, `"results":[]`) || p.page.Next != 0 || p.page.State != JobAccepting {
		t.Errorf("expired poll answered %s, want an empty page at next 0, accepting", p.raw)
	}

	ctx, cancel := context.WithCancel(context.Background())
	poll := parkPoll(t, ctx, h, j, 0)
	gone := time.Now()
	cancel()
	if d := awaitPoll(t, poll, 5*time.Second).returned.Sub(gone); d >= 50*time.Millisecond {
		t.Errorf("the handler outlived its client by %v", d)
	}

	poll = parkPoll(t, context.Background(), h, j, 0)
	closing := time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := awaitPoll(t, poll, 5*time.Second).returned.Sub(closing); d >= 50*time.Millisecond {
		t.Errorf("the handler outlived Service.Close by %v", d)
	}
}

// TestResultsPollReportsTheGap: a poller whose cursor fell below the
// retention base is told how many results it skipped unread, and the
// daemon counts them; a poller that kept up never sees the field.
func TestResultsPollReportsTheGap(t *testing.T) {
	srv, s := testServer(t)
	doJSON(t, "POST", srv.URL+"/api/v1/jobs", `{"name":"gap","max_results":4,"warmup":2}`, http.StatusCreated, nil)
	j, _ := s.Job("gap")
	if _, err := j.Push(burst(0, 20, 0)); err != nil {
		t.Fatal(err)
	}
	if err := j.CloseInput(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 10*time.Second)
	base := s.wal.view(j.wj).ResultsBase
	if base == 0 {
		t.Fatal("20 results under max_results 4 trimmed nothing")
	}

	var page resultsPage
	doJSON(t, "GET", srv.URL+"/api/v1/jobs/gap/results?after=0", ``, http.StatusOK, &page)
	if page.Gap != base || page.Next != 20 || len(page.Results) != 20-base {
		t.Errorf("stale cursor got gap %d, %d results, next %d; want gap %d, %d results, next 20",
			page.Gap, len(page.Results), page.Next, base, 20-base)
	}
	if got := s.Metrics().Counter("service_results_unread_dropped_total").Value(); got != int64(base) {
		t.Errorf("service_results_unread_dropped_total = %d, want %d", got, base)
	}
	h := NewHandler(s)
	for _, after := range []int{base, 20} {
		p := awaitPoll(t, pollAsync(t, context.Background(), h, "gap", after), 5*time.Second)
		if strings.Contains(p.raw, `"gap"`) {
			t.Errorf("caught-up cursor %d was sent a gap: %s", after, p.raw)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	srv, _ := testServer(t)
	base := srv.URL

	doJSON(t, "GET", base+"/api/v1/jobs/ghost", ``, http.StatusNotFound, nil)
	doJSON(t, "POST", base+"/api/v1/jobs/ghost/tasks", `[{"id":1}]`, http.StatusNotFound, nil)
	doJSON(t, "POST", base+"/api/v1/jobs", `{not json`, http.StatusBadRequest, nil)
	doJSON(t, "POST", base+"/api/v1/jobs", `{"name":""}`, http.StatusBadRequest, nil)

	doJSON(t, "POST", base+"/api/v1/jobs", `{"name":"e","warmup":2}`, http.StatusCreated, nil)
	doJSON(t, "POST", base+"/api/v1/jobs", `{"name":"e"}`, http.StatusConflict, nil)
	doJSON(t, "POST", base+"/api/v1/jobs/e/tasks", `[]`, http.StatusBadRequest, nil)
	doJSON(t, "POST", base+"/api/v1/jobs/e/tasks", `{"tasks":[{"id":-1}]}`, http.StatusBadRequest, nil)
	doJSON(t, "POST", base+"/api/v1/jobs/e/tasks", `{"tasks":[{"id":1,"sleep_us":-5}]}`, http.StatusBadRequest, nil)
	doJSON(t, "POST", base+"/api/v1/jobs/e/tasks", `{"tasks":[{"id":1,"spin":9000000000}]}`, http.StatusBadRequest, nil)
	doJSON(t, "POST", base+"/api/v1/jobs/e/tasks", `{"tasks":[{"id":1,"bogus":true}]}`, http.StatusBadRequest, nil)
	doJSON(t, "GET", base+"/api/v1/jobs/e/results?after=banana", ``, http.StatusBadRequest, nil)
	doJSON(t, "POST", base+"/api/v1/jobs/e/close", ``, http.StatusOK, nil)
	doJSON(t, "POST", base+"/api/v1/jobs/e/close", ``, http.StatusConflict, nil)
	doJSON(t, "POST", base+"/api/v1/jobs/e/tasks", `[{"id":1}]`, http.StatusConflict, nil)
}

func TestHTTPRemoveJob(t *testing.T) {
	srv, s := testServer(t)
	base := srv.URL

	doJSON(t, "POST", base+"/api/v1/jobs", `{"name":"rm","warmup":2}`, http.StatusCreated, nil)
	doJSON(t, "POST", base+"/api/v1/jobs/rm/tasks", `[{"id":1}]`, http.StatusAccepted, nil)

	// A job still accepting (or draining) cannot be removed.
	doJSON(t, "DELETE", base+"/api/v1/jobs/rm", ``, http.StatusConflict, nil)
	doJSON(t, "POST", base+"/api/v1/jobs/rm/close", ``, http.StatusOK, nil)
	j, _ := s.Job("rm")
	waitDone(t, j, 5*time.Second)

	doJSON(t, "DELETE", base+"/api/v1/jobs/rm", ``, http.StatusOK, nil)
	doJSON(t, "GET", base+"/api/v1/jobs/rm", ``, http.StatusNotFound, nil)
	doJSON(t, "DELETE", base+"/api/v1/jobs/rm", ``, http.StatusNotFound, nil)
	// The name is free again after removal.
	doJSON(t, "POST", base+"/api/v1/jobs", `{"name":"rm","warmup":2}`, http.StatusCreated, nil)
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	srv, s := testServer(t)
	var health struct {
		OK      bool `json:"ok"`
		Workers int  `json:"workers"`
	}
	doJSON(t, "GET", srv.URL+"/healthz", ``, http.StatusOK, &health)
	if !health.OK || health.Workers != 2 {
		t.Fatalf("health = %+v", health)
	}

	doJSON(t, "POST", srv.URL+"/api/v1/jobs", `{"name":"m","warmup":2}`, http.StatusCreated, nil)
	doJSON(t, "POST", srv.URL+"/api/v1/jobs/m/tasks", `[{"id":1}]`, http.StatusAccepted, nil)
	doJSON(t, "POST", srv.URL+"/api/v1/jobs/m/close", ``, http.StatusOK, nil)
	j, _ := s.Job("m")
	waitDone(t, j, 5*time.Second)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{
		"service_jobs_total 1",
		"service_tasks_submitted_total 1",
		"service_tasks_completed_total 1",
		"service_calibrations_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// FuzzSubmit fuzzes the task-submission decoder: it must never panic and
// must only ever accept batches within the documented bounds.
func FuzzSubmit(f *testing.F) {
	f.Add([]byte(`[{"id":1,"cost":2,"sleep_us":100}]`))
	f.Add([]byte(`{"tasks":[{"id":1},{"id":2,"spin":50}]}`))
	f.Add([]byte(`{"tasks":[]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(` [ {"id": 0} ] trailing`))
	f.Add([]byte(`{"tasks":[{"id":-3}]}`))
	f.Add([]byte(`nonsense`))
	f.Add([]byte(``))
	f.Add([]byte(`[{"id":1,"sleep_us":999999999999}]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		specs, err := decodeTasks(body)
		if err != nil {
			if specs != nil {
				t.Fatalf("error %v with non-nil specs", err)
			}
			return
		}
		if len(specs) == 0 || len(specs) > maxTasksPerPush {
			t.Fatalf("accepted batch of %d tasks", len(specs))
		}
		for _, ts := range specs {
			if ts.ID < 0 || ts.SleepUS < 0 || ts.Spin < 0 || ts.Cost < 0 {
				t.Fatalf("accepted invalid task %+v", ts)
			}
			if ts.SleepUS > maxSleepUS || ts.Spin > maxSpin {
				t.Fatalf("accepted over-budget task %+v", ts)
			}
		}
	})
}

// TestHTTPOversizedBodyRejected413 checks the MaxBytesReader guard on the
// two hot unauthenticated decode paths: a body past the cap draws 413,
// not an unbounded buffer then a 400.
func TestHTTPOversizedBodyRejected413(t *testing.T) {
	srv, _ := testServer(t)
	base := srv.URL

	doJSON(t, "POST", base+"/api/v1/jobs", `{"name":"big","warmup":2}`, http.StatusCreated, nil)

	// Anything past maxBodyBytes must be cut off at the transport — the
	// decoder never sees it, so even well-formed JSON draws 413.
	oversized := `{"tasks":[{"id":1,"sleep_us":1}` + strings.Repeat(" ", maxBodyBytes) + `]}`
	doJSON(t, "POST", base+"/api/v1/jobs/big/tasks", oversized, http.StatusRequestEntityTooLarge, nil)

	// Job creation is bounded too.
	doJSON(t, "POST", base+"/api/v1/jobs", `{"name":"`+strings.Repeat("x", maxBodyBytes+16)+`"}`,
		http.StatusRequestEntityTooLarge, nil)

	// The job is untouched and still usable after the oversized attempts.
	doJSON(t, "POST", base+"/api/v1/jobs/big/tasks", `[{"id":1,"sleep_us":10}]`, http.StatusAccepted, nil)
	doJSON(t, "POST", base+"/api/v1/jobs/big/close", "", http.StatusOK, nil)
}

// TestHTTPShareInSpec drives the share knob over the wire: explicit
// non-positive shares draw 400, a valid share lands in the status.
func TestHTTPShareInSpec(t *testing.T) {
	srv, _ := testServer(t)
	base := srv.URL
	doJSON(t, "POST", base+"/api/v1/jobs", `{"name":"z","share":0}`, http.StatusBadRequest, nil)
	doJSON(t, "POST", base+"/api/v1/jobs", `{"name":"z","share":-2}`, http.StatusBadRequest, nil)
	var created JobStatus
	doJSON(t, "POST", base+"/api/v1/jobs", `{"name":"z","share":2.5,"warmup":2}`, http.StatusCreated, &created)
	if created.Share != 2.5 {
		t.Fatalf("created share = %g, want 2.5", created.Share)
	}
	if created.Workers == 0 || len(created.AllocatedWorkers) != created.Workers {
		t.Fatalf("created workers = %d (%v), want a non-empty allocation", created.Workers, created.AllocatedWorkers)
	}
	doJSON(t, "POST", base+"/api/v1/jobs/z/close", "", http.StatusOK, nil)
}

func TestHTTPRejectsInvalidJobSpec(t *testing.T) {
	srv, _ := testServer(t)
	base := srv.URL
	cases := []struct {
		name string
		body string
	}{
		{"negative window", `{"name":"bad","window":-1}`},
		{"oversized window", `{"name":"bad","window":4000000000}`},
		{"window past the bound", `{"name":"bad","window":65537}`},
		{"unknown adapt", `{"name":"bad","adapt":"predicitve"}`},
		{"negative warmup", `{"name":"bad","warmup":-2}`},
		{"negative max_results", `{"name":"bad","max_results":-5}`},
		{"negative threshold", `{"name":"bad","threshold_factor":-0.5}`},
		{"unknown skeleton", `{"name":"bad","skeleton":"quantum"}`},
		{"pipeline without stages", `{"name":"bad","skeleton":"pipeline"}`},
		{"pipeline with one stage", `{"name":"bad","skeleton":"pipeline","stages":[{}]}`},
		{"pipeline with oversized factor", `{"name":"bad","skeleton":"pipeline","stages":[{"cost_factor":99},{}]}`},
		{"farm with stages", `{"name":"bad","stages":[{},{}]}`},
		// Fields earlier releases accepted are unknown now, and the create
		// body is decoded strictly.
		{"dmap naming wave_size", `{"name":"bad","skeleton":"dmap","wave_size":16}`},
		{"dmap naming alpha", `{"name":"bad","skeleton":"dmap","alpha":0.5}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doJSON(t, "POST", base+"/api/v1/jobs", tc.body, http.StatusBadRequest, nil)
		})
	}
	// The rejected name stays free: a valid spec under it must succeed.
	doJSON(t, "POST", base+"/api/v1/jobs", `{"name":"bad","window":4,"warmup":2}`, http.StatusCreated, nil)
}
