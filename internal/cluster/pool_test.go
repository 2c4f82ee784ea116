package cluster

import (
	"net/http/httptest"
	"testing"
	"time"

	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/skel/engine"
	"grasp/internal/skel/farm"
)

// startTestWorker runs an in-process worker runtime against the
// coordinator's real HTTP handler — the same code path cmd/graspworker
// runs, minus the process boundary.
func startTestWorker(t *testing.T, url, id string) *Worker {
	t.Helper()
	return startWorkerWith(t, WorkerConfig{Coordinator: url, ID: id, Capacity: 2})
}

// runFarmOverPool streams n sleep tasks through the adaptive farm on a
// pool snapshot of the coordinator's live nodes.
func runFarmOverPool(t *testing.T, co *Coordinator, n int, sleepUS int64) (engine.StreamReport, *Pool) {
	t.Helper()
	l := rt.NewLocal()
	pool := NewPool(co, l, co.Live())
	in := l.NewChan("test.in", 4)
	l.Go("producer", func(c rt.Ctx) {
		for i := 0; i < n; i++ {
			in.Send(c, platform.Task{ID: i, Cost: 1, Data: Work{SleepUS: sleepUS}})
		}
		in.Close(c)
	})
	var rep engine.StreamReport
	l.Go("root", func(c rt.Ctx) {
		rep = farm.Stream(nil)(pool, c, in, engine.StreamOptions{Window: 8})
	})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	return rep, pool
}

func TestFarmStreamsAcrossTwoWorkerProcessesOverHTTP(t *testing.T) {
	co := testCoordinator(t, time.Second)
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	startTestWorker(t, srv.URL, "w1")
	startTestWorker(t, srv.URL, "w2")

	rep, pool := runFarmOverPool(t, co, 40, 500)
	if len(rep.Results) != 40 {
		t.Fatalf("completed %d of 40", len(rep.Results))
	}
	assertUniqueTaskIDs(t, rep)
	// Capacity 2 per node exposes 2 slots each.
	if pool.Size() != 4 || pool.TotalCapacity() != 4 {
		t.Errorf("pool size = %d capacity = %d, want 4 slots", pool.Size(), pool.TotalCapacity())
	}
	// Demand-driven dispatch over two equal nodes must use both.
	for _, nc := range pool.NodeCounts() {
		if nc.Completed == 0 {
			t.Errorf("node %s served nothing: %+v", nc.Node, pool.NodeCounts())
		}
	}
	if rep.Failures != 0 {
		t.Errorf("failures = %d", rep.Failures)
	}
}

func TestNodeDeathMidStreamReassignsWithoutLossOrDuplicates(t *testing.T) {
	co := testCoordinator(t, 300*time.Millisecond)
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	startTestWorker(t, srv.URL, "live")
	// The ghost registers like a real node but never leases or heartbeats:
	// a worker that crashed right after joining. Tasks the farm queues on
	// it must fail over to the live node via the engine's Faults path.
	if _, err := co.Register(RegisterRequest{ID: "ghost", Capacity: 2, SpeedOPS: 1e6}); err != nil {
		t.Fatal(err)
	}

	rep, pool := runFarmOverPool(t, co, 30, 300)
	if len(rep.Results) != 30 {
		t.Fatalf("completed %d of 30 (lost tasks on node death)", len(rep.Results))
	}
	assertUniqueTaskIDs(t, rep)
	if rep.Failures == 0 {
		t.Error("expected failed executions from the dead node")
	}
	// Every retired worker index must be one of the ghost's slots, and at
	// least one must have been retired.
	if len(rep.DeadWorkers) == 0 {
		t.Error("no workers retired")
	}
	for _, w := range rep.DeadWorkers {
		if pool.NodeName(w) != "ghost" {
			t.Errorf("retired worker %d is %s, want a ghost slot", w, pool.NodeName(w))
		}
	}
	// Everything completed on the surviving node.
	for _, nc := range pool.NodeCounts() {
		if nc.Node == "live" && nc.Completed != 30 {
			t.Errorf("survivor completed %d, want 30: %+v", nc.Completed, pool.NodeCounts())
		}
	}
}

func TestPoolExecRoundTripFeedsTime(t *testing.T) {
	co := testCoordinator(t, time.Second)
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	startTestWorker(t, srv.URL, "w1")

	l := rt.NewLocal()
	pool := NewPool(co, l, co.Live())
	// Capacity 2 → two slots, named per lane, attributed to the one node.
	if pool.Size() != 2 || pool.WorkerName(0) != "w1#0" || pool.NodeName(1) != "w1" {
		t.Fatalf("pool = %d members, worker0 %q, node1 %q",
			pool.Size(), pool.WorkerName(0), pool.NodeName(1))
	}
	var res platform.Result
	l.Go("root", func(c rt.Ctx) {
		res = pool.Exec(c, 0, platform.Task{ID: 3, Data: Work{SleepUS: 2000}})
	})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("exec failed: %v", res.Err)
	}
	// Round trip includes the 2ms execution.
	if res.Time < 2*time.Millisecond {
		t.Errorf("round-trip time %v < execution time", res.Time)
	}
	counts := pool.NodeCounts()
	if len(counts) != 1 || counts[0].Completed != 1 || counts[0].Node != "w1" {
		t.Errorf("NodeCounts = %+v", counts)
	}
}

func TestWorkerStopDoesNotResurrectTheNode(t *testing.T) {
	co := testCoordinator(t, time.Hour)
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	w := startTestWorker(t, srv.URL, "w1")
	w.Stop()
	// The Leave races executors parked in long-poll leases: they observe
	// ErrGone and must NOT re-register a live ghost on their way out.
	time.Sleep(300 * time.Millisecond)
	for _, n := range co.Nodes() {
		if n.State == StateLive {
			t.Fatalf("stopped worker resurrected itself: %+v", n)
		}
	}
}

// assertUniqueTaskIDs fails on any duplicated completion — the dedup
// guarantee at-least-once redelivery must preserve.
func assertUniqueTaskIDs(t *testing.T, rep engine.StreamReport) {
	t.Helper()
	seen := make(map[int]int)
	for _, r := range rep.Results {
		seen[r.Task.ID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("task %d completed %d times", id, n)
		}
	}
}
