package service

// Tests for where a job's parameters come from: its spec, and defaults that
// are constants or follow from the daemon's worker count and, for a
// cluster job, its pool.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"grasp/internal/cluster"
)

// TestSpecDefaultsResolve creates jobs over HTTP on a 2-worker daemon with
// two 8-slot nodes and reads the spec each resolved to. The first rows are
// the benchmark's create bodies (bench/workloads.go); the others omit the
// window, which a local job sizes to its daemon and a cluster job to its
// pool.
func TestSpecDefaultsResolve(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.Config{DeadAfter: 2 * time.Second})
	t.Cleanup(coord.Close)
	url := serveCluster(t, coord)
	for _, id := range []string{"a", "b"} {
		w, err := cluster.StartWorker(cluster.WorkerConfig{
			Coordinator: url, ID: id, Capacity: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
	}
	s := OpenForTest(t, Config{Workers: 2, Cluster: coord})
	t.Cleanup(func() { s.Close() })
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(srv.Close)

	const stages = `"stages":[{"name":"in"},{"name":"mid","cost_factor":2},{"name":"out"}]`
	for _, tc := range []struct {
		name, body string
		window     int
		maxResults int
		adapt      string
	}{
		{"local-farm", `"skeleton":"farm","window":64,"max_results":20000`, 64, 20000, AdaptReactive},
		{"local-pipeline", `"skeleton":"pipeline","window":64,"max_results":20000,` + stages, 64, 20000, AdaptReactive},
		{"local-dmap", `"skeleton":"dmap","window":64,"max_results":20000`, 64, 20000, AdaptReactive},
		{"cluster-farm", `"skeleton":"farm","window":64,"max_results":20000,"placement":"cluster"`, 64, 20000, AdaptReactive},
		{"cluster-degrade", `"skeleton":"farm","window":32,"max_results":20000,"placement":"cluster","adapt":"reactive"`, 32, 20000, AdaptReactive},
		{"local-no-window", `"adapt":"predictive","max_results":5000000`, 4, 1_000_000, AdaptPredictive},
		{"cluster-no-window", `"placement":"cluster"`, 32, 100_000, AdaptReactive},
		{"window-at-the-bound", `"window":65536,"adapt":"predictive"`, maxWindow, 100_000, AdaptPredictive},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doJSON(t, "POST", srv.URL+"/api/v1/jobs", fmt.Sprintf(`{"name":%q,%s}`, tc.name, tc.body), http.StatusCreated, nil)
			j, ok := s.Job(tc.name)
			if !ok {
				t.Fatal("created job not found")
			}
			defer j.CloseInput()
			got := j.spec
			if got.Window != tc.window || got.MaxResults != tc.maxResults || got.Adapt != tc.adapt ||
				got.WarmupTasks != 4 || got.ThresholdFactor != 4 || got.share() != 1 {
				t.Errorf("resolved window %d, max_results %d, adapt %s, warmup %d, threshold_factor %g, share %g; want %d, %d, %s, 4, 4, 1",
					got.Window, got.MaxResults, got.Adapt, got.WarmupTasks, got.ThresholdFactor, got.share(),
					tc.window, tc.maxResults, tc.adapt)
			}
			if st := j.Status(); st.Window != tc.window {
				t.Errorf("status window %d, want %d", st.Window, tc.window)
			}
		})
	}
}

// TestRecoveryKeepsTheJobsDefaults: a job resolves its defaults once, at
// creation. Reopened on a daemon of twice the workers, a durable job keeps
// the window and warm-up it was created with.
func TestRecoveryKeepsTheJobsDefaults(t *testing.T) {
	dir := t.TempDir()
	s := durableService(t, dir)
	if _, err := s.Submit("kept", JobSpec{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Workers: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	j, ok := s2.Job("kept")
	if !ok {
		t.Fatal("journaled job not recovered")
	}
	defer j.CloseInput()
	if st := j.state(); st != JobAccepting {
		t.Fatalf("recovered job is %s, want accepting", st)
	}
	if w, warm := j.Status().Window, j.spec.WarmupTasks; w != 4 || warm != 4 {
		t.Errorf("recovered at 4 workers: window %d, warm-up %d; want the 4 and 4 it was created with at 2", w, warm)
	}
}

// TestWorkerCountDefaults: 0 workers means GOMAXPROCS, 1 means the floor of
// 2, and a negative count is refused. GOMAXPROCS is raised to 4 for the
// test, so 1 mapping to GOMAXPROCS would show on any host.
func TestWorkerCountDefaults(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct{ workers, want int }{{0, 4}, {1, 2}, {2, 2}, {3, 3}} {
		s, err := Open(Config{Workers: tc.workers})
		if err != nil {
			t.Fatalf("workers %d: %v", tc.workers, err)
		}
		if got := s.Workers(); got != tc.want {
			t.Errorf("workers %d: %d slots, want %d", tc.workers, got, tc.want)
		}
		s.Close()
	}
	if s, err := Open(Config{Workers: -3}); err == nil || !strings.Contains(err.Error(), "workers must be non-negative, got -3") {
		if s != nil {
			s.Close()
		}
		t.Errorf("workers -3: err = %v, want a refusal naming the count", err)
	}
}
