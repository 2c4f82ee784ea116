package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"grasp/internal/service"
)

// TestDaemonBreachUnderSlowdown submits fast warm-up traffic then a slow
// tail directly through the HTTP API and verifies the detector breached
// and recalibrated mid-stream without losing tasks.
func TestDaemonBreachUnderSlowdown(t *testing.T) {
	h, _, err := openDaemon(service.Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	post := func(path, body string, want int) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	post("/api/v1/jobs", `{"name":"slowdown","window":5,"warmup":3,"threshold_factor":3}`, http.StatusCreated)
	var fast, slow strings.Builder
	fast.WriteString(`[`)
	slow.WriteString(`[`)
	for i := 0; i < 20; i++ {
		if i > 0 {
			fast.WriteString(",")
			slow.WriteString(",")
		}
		writeTask(&fast, i, 100)
		writeTask(&slow, 20+i, 30000)
	}
	fast.WriteString(`]`)
	slow.WriteString(`]`)
	post("/api/v1/jobs/slowdown/tasks", fast.String(), http.StatusAccepted)
	post("/api/v1/jobs/slowdown/tasks", slow.String(), http.StatusAccepted)
	post("/api/v1/jobs/slowdown/close", ``, http.StatusOK)

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/api/v1/jobs/slowdown")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State          string `json:"state"`
			Completed      int    `json:"completed"`
			Breaches       int    `json:"breaches"`
			Recalibrations int    `json:"recalibrations"`
			MaxInFlight    int    `json:"max_in_flight"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			if st.Completed != 40 {
				t.Errorf("completed = %d, want 40", st.Completed)
			}
			if st.Breaches == 0 || st.Recalibrations == 0 {
				t.Errorf("breaches=%d recalibrations=%d: detector never adapted mid-stream", st.Breaches, st.Recalibrations)
			}
			if st.MaxInFlight > 5 {
				t.Errorf("max_in_flight = %d exceeds window 5", st.MaxInFlight)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s with %d completed", st.State, st.Completed)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// writeTask appends one task JSON object.
func writeTask(b *strings.Builder, id int, sleepUS int) {
	fmt.Fprintf(b, `{"id":%d,"sleep_us":%d}`, id, sleepUS)
}

// TestDaemonBreachEverySkeleton repeats the slowdown scenario for each
// skeleton type over the HTTP API: fast warm-up traffic then a slow tail,
// and in every topology the detector must breach and recalibrate
// mid-stream without losing tasks — the engine contract observed from the
// outside.
func TestDaemonBreachEverySkeleton(t *testing.T) {
	creates := map[string]string{
		"farm":     `{"name":"%s","window":5,"warmup":3,"threshold_factor":3}`,
		"pipeline": `{"name":"%s","window":5,"warmup":3,"threshold_factor":3,"skeleton":"pipeline","stages":[{"name":"a"},{"name":"b"},{"name":"c"}]}`,
		"dmap":     `{"name":"%s","window":5,"warmup":3,"threshold_factor":3,"skeleton":"dmap"}`,
	}
	for sk, createTmpl := range creates {
		sk, createTmpl := sk, createTmpl
		t.Run(sk, func(t *testing.T) {
			t.Parallel()
			h, _, err := openDaemon(service.Config{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(h)
			defer srv.Close()

			post := func(path, body string, want int) {
				t.Helper()
				resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != want {
					t.Fatalf("POST %s = %d, want %d", path, resp.StatusCode, want)
				}
			}
			name := "slow-" + sk
			post("/api/v1/jobs", fmt.Sprintf(createTmpl, name), http.StatusCreated)
			var fast, slow strings.Builder
			fast.WriteString(`[`)
			slow.WriteString(`[`)
			for i := 0; i < 20; i++ {
				if i > 0 {
					fast.WriteString(",")
					slow.WriteString(",")
				}
				writeTask(&fast, i, 100)
				writeTask(&slow, 20+i, 30000)
			}
			fast.WriteString(`]`)
			slow.WriteString(`]`)
			post("/api/v1/jobs/"+name+"/tasks", fast.String(), http.StatusAccepted)
			post("/api/v1/jobs/"+name+"/tasks", slow.String(), http.StatusAccepted)
			post("/api/v1/jobs/"+name+"/close", ``, http.StatusOK)

			// Poll the cursor endpoint exactly like a farm client would.
			seen := make(map[int]bool)
			cursor := 0
			deadline := time.Now().Add(60 * time.Second)
			for {
				resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%s/results?after=%d", srv.URL, name, cursor))
				if err != nil {
					t.Fatal(err)
				}
				var poll struct {
					Results []struct {
						ID int `json:"id"`
					} `json:"results"`
					Next  int    `json:"next"`
					State string `json:"state"`
				}
				err = json.NewDecoder(resp.Body).Decode(&poll)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range poll.Results {
					if seen[r.ID] {
						t.Errorf("task %d polled twice", r.ID)
					}
					seen[r.ID] = true
				}
				cursor = poll.Next
				if poll.State == "done" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s job stuck with %d results", sk, len(seen))
				}
			}
			if len(seen) != 40 {
				t.Errorf("completed %d distinct tasks, want 40", len(seen))
			}

			resp, err := http.Get(srv.URL + "/api/v1/jobs/" + name)
			if err != nil {
				t.Fatal(err)
			}
			var st struct {
				Skeleton       string `json:"skeleton"`
				Breaches       int    `json:"breaches"`
				Recalibrations int    `json:"recalibrations"`
				MaxInFlight    int    `json:"max_in_flight"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.Skeleton != sk {
				t.Errorf("status skeleton = %q, want %q", st.Skeleton, sk)
			}
			if st.Breaches == 0 || st.Recalibrations == 0 {
				t.Errorf("breaches=%d recalibrations=%d: %s never adapted mid-stream",
					st.Breaches, st.Recalibrations, sk)
			}
			if st.MaxInFlight > 5 {
				t.Errorf("max_in_flight = %d exceeds window 5", st.MaxInFlight)
			}
		})
	}
}

// postJSON is the shared POST helper for the durability tests.
func postJSON(t *testing.T, base, path, body string, want int) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("POST %s = %d, want %d", path, resp.StatusCode, want)
	}
}

// pollOnce reads one page of the results cursor.
func pollOnce(t *testing.T, base, job string, cursor int) (ids []int, next int, state string) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%s/results?after=%d", base, job, cursor))
	if err != nil {
		t.Fatal(err)
	}
	var page struct {
		Results []struct {
			ID int `json:"id"`
		} `json:"results"`
		Next  int    `json:"next"`
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&page)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range page.Results {
		ids = append(ids, r.ID)
	}
	return ids, page.Next, page.State
}

// taskBatch builds a JSON task array for ids [from, from+n).
func taskBatch(from, n, sleepUS int) string {
	var b strings.Builder
	b.WriteString(`[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		writeTask(&b, from+i, sleepUS)
	}
	b.WriteString(`]`)
	return b.String()
}

// TestDaemonDataDirRecovery is the daemon-level restart test: a graspd
// built over -data-dir is shut down mid-stream with un-acked tasks in
// flight, a second daemon is built over the same directory, and the
// recovered job must resume, re-deliver the remainder, accept new
// pushes, and keep the pre-shutdown cursor valid — every task exactly
// once across the two processes.
func TestDaemonDataDirRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := service.Config{Workers: 2, DataDir: dir}
	h, s, err := openDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)

	postJSON(t, srv.URL, "/api/v1/jobs", `{"name":"durable","window":4,"warmup":2}`, http.StatusCreated)
	postJSON(t, srv.URL, "/api/v1/jobs/durable/tasks", taskBatch(0, 30, 1500), http.StatusAccepted)

	// Drain part of the stream so the cursor has advanced past durable
	// acks when the daemon dies.
	seen := make(map[int]bool)
	cursor := 0
	deadline := time.Now().Add(30 * time.Second)
	for len(seen) < 5 {
		ids, next, _ := pollOnce(t, srv.URL, "durable", cursor)
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("task %d polled twice before shutdown", id)
			}
			seen[id] = true
		}
		cursor = next
		if time.Now().After(deadline) {
			t.Fatalf("only %d results before deadline", len(seen))
		}
		time.Sleep(2 * time.Millisecond)
	}
	srv.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}

	// Second daemon over the same directory: the job recovers and resumes.
	h2, s2, err := openDaemon(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	srv2 := httptest.NewServer(h2)
	defer srv2.Close()

	postJSON(t, srv2.URL, "/api/v1/jobs/durable/tasks", taskBatch(30, 10, 200), http.StatusAccepted)
	postJSON(t, srv2.URL, "/api/v1/jobs/durable/close", ``, http.StatusOK)

	// Resume polling from the pre-shutdown cursor: acks were journaled
	// before becoming poller-visible, so nothing behind it reappears.
	deadline = time.Now().Add(60 * time.Second)
	for {
		ids, next, state := pollOnce(t, srv2.URL, "durable", cursor)
		for _, id := range ids {
			if seen[id] {
				t.Errorf("task %d delivered in both lives", id)
			}
			seen[id] = true
		}
		cursor = next
		if state == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered job stuck with %d results (state %s)", len(seen), state)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if len(seen) != 40 {
		t.Fatalf("completed %d distinct tasks across restart, want 40", len(seen))
	}
}

// TestDaemonGracefulShutdownSignal exercises the SIGTERM path main
// installs: shutdownOnSignal must flush the final snapshot through
// Service.Close and report exit code 0, and a daemon rebuilt over the
// same directory must see the finished job with its results intact.
func TestDaemonGracefulShutdownSignal(t *testing.T) {
	dir := t.TempDir()
	cfg := service.Config{Workers: 2, DataDir: dir}
	h, s, err := openDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	postJSON(t, srv.URL, "/api/v1/jobs", `{"name":"flush","window":4,"warmup":2}`, http.StatusCreated)
	postJSON(t, srv.URL, "/api/v1/jobs/flush/tasks", taskBatch(0, 12, 200), http.StatusAccepted)
	postJSON(t, srv.URL, "/api/v1/jobs/flush/close", ``, http.StatusOK)
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, _, state := pollOnce(t, srv.URL, "flush", 0)
		if state == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}

	sigc := make(chan os.Signal, 1)
	exited := make(chan int, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		shutdownOnSignal(sigc, s, func(code int) { exited <- code })
	}()
	sigc <- syscall.SIGTERM
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("shutdownOnSignal never returned")
	}
	if code := <-exited; code != 0 {
		t.Fatalf("graceful shutdown exited %d, want 0", code)
	}

	h2, s2, err := openDaemon(cfg)
	if err != nil {
		t.Fatalf("reopen after graceful shutdown: %v", err)
	}
	defer s2.Close()
	srv2 := httptest.NewServer(h2)
	defer srv2.Close()
	ids, _, state := pollOnce(t, srv2.URL, "flush", 0)
	if state != "done" {
		t.Fatalf("recovered job state %q, want done", state)
	}
	if len(ids) != 12 {
		t.Fatalf("recovered %d results, want 12", len(ids))
	}
}

// buildGraspd compiles this package into the test's temp dir.
func buildGraspd(t *testing.T) string {
	t.Helper()
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goBin); err != nil {
		if goBin, err = exec.LookPath("go"); err != nil {
			t.Skip("go toolchain not available")
		}
	}
	bin := filepath.Join(t.TempDir(), "graspd")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestDeadAfterFloor: graspd passes -dead-after to cluster.CheckDeadAfter
// (whose table test is cluster's TestDeadAfterFloor) before it builds a
// coordinator, and exits non-zero with an error that names the value.
func TestDeadAfterFloor(t *testing.T) {
	cmd := exec.Command(buildGraspd(t), "-addr", "127.0.0.1:0", "-cluster-listen", "127.0.0.1:0", "-dead-after", "1ms")
	hang := time.AfterFunc(10*time.Second, func() { cmd.Process.Kill() }) // a daemon that serves instead
	defer hang.Stop()
	out, err := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code <= 0 || !strings.Contains(string(out), "dead_after=1ms") {
		t.Errorf("graspd -dead-after 1ms exited %d (%v), want a non-zero status and an error naming the value:\n%s", code, err, out)
	}
}
