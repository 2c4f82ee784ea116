package cluster

// Tests for the chunk path: one dispatch group reaches the node as one
// queue append, is leased by capacity share, resolves every task exactly
// once whatever happens to the node, and reports node speed — not queue
// position — as Result.Time.

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"grasp/internal/metrics"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/sched"
	"grasp/internal/skel/dmap"
	"grasp/internal/skel/engine"
	"grasp/internal/skel/farm"
	"grasp/internal/trace"
)

// sleepTasks builds n tasks with ids from..from+n-1, each sleeping sleepUS
// on the node.
func sleepTasks(from, n int, sleepUS int64) []platform.Task {
	tasks := make([]platform.Task, n)
	for i := range tasks {
		tasks[i] = platform.Task{ID: from + i, Cost: 1, Data: Work{SleepUS: sleepUS}}
	}
	return tasks
}

// startWorkerWith runs an in-process worker with the given overrides on
// top of the fast test defaults (a 100 ms long-poll unless LeaseWait is
// set).
func startWorkerWith(t *testing.T, cfg WorkerConfig) *Worker {
	t.Helper()
	cfg.BenchSpin = 10_000
	cfg.Heartbeat = 20 * time.Millisecond
	if cfg.LeaseWait == 0 {
		cfg.LeaseWait = 100 * time.Millisecond
	}
	w, err := StartWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	return w
}

// startRun starts a skeleton run as a root process of l and returns the
// function that waits for it: the run proceeds while the test goroutine
// plays a node.
func startRun(l *rt.Local, run func(c rt.Ctx) engine.StreamReport) (wait func() engine.StreamReport) {
	var rep engine.StreamReport
	l.Go("root", func(c rt.Ctx) { rep = run(c) })
	return func() engine.StreamReport {
		l.Run() // the local runtime's Run only waits; it cannot fail
		return rep
	}
}

// startFarm starts farm.Stream with fixed chunks of k over tasks fed from
// a producer process.
func startFarm(pool *Pool, l *rt.Local, k int, tasks []platform.Task, opts engine.StreamOptions) (wait func() engine.StreamReport) {
	in := l.NewChan("test.in", 4)
	l.Go("producer", func(c rt.Ctx) {
		for _, task := range tasks {
			in.Send(c, task)
		}
		in.Close(c)
	})
	return startRun(l, func(c rt.Ctx) engine.StreamReport {
		return farm.Stream(sched.FixedChunk{K: k})(pool, c, in, opts)
	})
}

// assertExactIDs fails unless the report's results are exactly ids 0..n-1,
// each once.
func assertExactIDs(t *testing.T, rep engine.StreamReport, n int) {
	t.Helper()
	ids := make([]int, 0, len(rep.Results))
	for _, r := range rep.Results {
		ids = append(ids, r.Task.ID)
	}
	sort.Ints(ids)
	if len(ids) != n {
		t.Fatalf("delivered %d results, want %d", len(ids), n)
	}
	for i, id := range ids {
		if id != i {
			t.Fatalf("result ids are not exactly 0..%d: position %d holds %d", n-1, i, id)
		}
	}
}

func TestLeaseTakesCapacityShare(t *testing.T) {
	co := testCoordinator(t, time.Hour)
	reg, _ := co.Register(RegisterRequest{ID: "n1", Capacity: 2})
	if _, err := co.submit("n1", reg.Gen, sleepTasks(0, 8, 0)); err != nil {
		t.Fatal(err)
	}
	// Two executors asking for everything split the queue between them
	// instead of the first one running all eight serially.
	for _, want := range []int{4, 2} {
		lease, err := co.Lease(LeaseRequest{ID: "n1", Gen: reg.Gen, Max: 8, WaitMS: 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(lease.Tasks) != want {
			t.Fatalf("lease took %d tasks, want %d", len(lease.Tasks), want)
		}
	}
}

// TestLeaseTTLCountsFromEachTasksTurn: the second task of a lease waits
// for the first on its executor, so one TTL after the lease only the first
// can be overdue — the second is not redelivered while it may still be
// legitimately waiting its turn.
func TestLeaseTTLCountsFromEachTasksTurn(t *testing.T) {
	co := NewCoordinator(Config{
		DeadAfter:    time.Hour,
		SweepEvery:   10 * time.Millisecond,
		LeaseTTL:     300 * time.Millisecond,
		MaxLeaseWait: time.Second,
	})
	t.Cleanup(co.Close)
	reg, _ := co.Register(RegisterRequest{ID: "n1", Capacity: 1})
	if _, err := co.submit("n1", reg.Gen, sleepTasks(0, 2, 0)); err != nil {
		t.Fatal(err)
	}
	first, err := co.Lease(LeaseRequest{ID: "n1", Gen: reg.Gen, WaitMS: 10})
	if err != nil || len(first.Tasks) != 2 {
		t.Fatalf("first lease = %+v, err %v; want both tasks", first, err)
	}
	// The results never arrive. The long poll returns as soon as the
	// sweeper requeues anything.
	again, err := co.Lease(LeaseRequest{ID: "n1", Gen: reg.Gen, WaitMS: 900})
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Tasks) != 1 || again.Tasks[0].Dispatch != first.Tasks[0].Dispatch {
		t.Fatalf("redelivered %+v one TTL after the lease, want only its first task %+v", again.Tasks, first.Tasks[0])
	}
}

func TestChunkedFarmAmortisesLeasesAndDeliversOnce(t *testing.T) {
	co := testCoordinator(t, time.Second)
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	workers := []*Worker{
		startWorkerWith(t, WorkerConfig{Coordinator: srv.URL, ID: "w1", Capacity: 1}),
		startWorkerWith(t, WorkerConfig{Coordinator: srv.URL, ID: "w2", Capacity: 1}),
	}

	const n = 160
	l := rt.NewLocal()
	pool := NewPool(co, l, co.Live())
	rep := startFarm(pool, l, 8, sleepTasks(0, n, 0), engine.StreamOptions{Window: 32})()
	assertExactIDs(t, rep, n)
	if rep.Failures != 0 {
		t.Errorf("failures = %d", rep.Failures)
	}
	// A chunk of 8 is one queue append, so an unflagged worker drains it in
	// one lease; only a chunk cut short by the admission window is smaller.
	leases := co.Metrics().Counter("cluster_leases_total").Value()
	if leases > n/4 {
		t.Errorf("cluster_leases_total = %d for %d tasks in chunks of 8, want <= %d", leases, n, n/4)
	}
	// And it comes back in one frame: the chunk's results ride the request
	// for the next one (+2: a scheduling stall over resultHold mid-lease
	// streams that lease's results instead).
	frames := co.Metrics().Histogram("cluster_results_batch_size", metrics.BatchBuckets).Count()
	if frames > leases+2 {
		t.Errorf("cluster_results_batch_size_count = %d for %d leases of short tasks, want one results frame per lease", frames, leases)
	}
	// Tasks under resultHold never lease ahead: a short chunk answers as a
	// unit.
	for _, w := range workers {
		if ahead := w.Metrics().Counter("worker_leases_ahead_total").Value(); ahead != 0 {
			t.Errorf("%s: worker_leases_ahead_total = %d for chunks of empty tasks, want 0", w.ID(), ahead)
		}
	}
}

// TestLongLeaseStreamsPerTask: a lease is answered as a unit only while it
// is short. The first outcome of a lease of four 10 ms tasks reaches the
// submitter while the lease is still running — before its third task even
// starts — not with the next lease request 40 ms on.
func TestLongLeaseStreamsPerTask(t *testing.T) {
	co := testCoordinator(t, time.Second)
	url := startTestServer(t, co)
	w := startWorkerWith(t, WorkerConfig{Coordinator: url, ID: "w1", Capacity: 1})
	live := co.Live()
	ch, err := co.submit(live[0].ID, live[0].Gen, sleepTasks(0, 4, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	var first time.Time
	for i := 0; i < 4; i++ {
		if out := <-ch.sink; out.err != nil {
			t.Fatalf("task %d: %v", out.idx, out.err)
		}
		if i == 0 {
			first = time.Now()
		}
	}
	if leases := co.Metrics().Counter("cluster_leases_total").Value(); leases != 1 {
		t.Fatalf("the chunk went out in %d leases, want 1", leases)
	}
	for _, ev := range w.Trace().Filter(trace.KindDispatch) {
		if third := w.start.Add(ev.At); ev.Task == 2 && !first.Before(third) {
			t.Errorf("first outcome surfaced %v after the lease's third task started; long tasks must stream one by one", first.Sub(third))
		}
	}
}

// TestLeaseAheadOverlapsTheRoundTrip: an executor whose last task of a
// lease runs at least resultHold leases its next task as that one begins.
// A one-slot, -batch 1 node given a chunk of three 20 ms tasks has leased
// all three by the time the first outcome arrives: the second went out
// while the first ran, and the third rode the lease that carried the
// first's result. Without the lease ahead the third would still be queued.
func TestLeaseAheadOverlapsTheRoundTrip(t *testing.T) {
	co := testCoordinator(t, time.Second)
	url := startTestServer(t, co)
	startWorkerWith(t, WorkerConfig{Coordinator: url, ID: "w1", Capacity: 1, Batch: 1})
	live := co.Live()
	ch, err := co.submit(live[0].ID, live[0].Gen, sleepTasks(0, 3, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		out := <-ch.sink
		if out.err != nil {
			t.Fatalf("task %d: %v", out.idx, out.err)
		}
		if i > 0 {
			continue
		}
		// The outcome is resolved under the coordinator lock that also
		// leases the carrying request's next task, so this read sees both.
		if ni := co.Nodes()[0]; ni.Queued != 0 || ni.InFlight != 2 {
			t.Errorf("at the first outcome the node holds %d queued and %d in flight, want 0 and 2: the second task leased while the first ran", ni.Queued, ni.InFlight)
		}
	}
}

// TestLeaseAheadKeepsCapacityShares: a lease goes ahead only at the last
// task of the lease in hand, so the executors of a node still split a
// chunk by capacity share. Two executors given four 100 ms tasks take 2 + 1,
// and the one running its last task leases the fourth ahead: two task
// lengths. Leasing ahead at the lease's start would give the first
// executor 2 + 1 and take three.
func TestLeaseAheadKeepsCapacityShares(t *testing.T) {
	co := testCoordinator(t, time.Second)
	url := startTestServer(t, co)
	w := startWorkerWith(t, WorkerConfig{Coordinator: url, ID: "w1", Capacity: 2})
	live := co.Live()
	began := time.Now()
	ch, err := co.submit(live[0].ID, live[0].Gen, sleepTasks(0, 4, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if out := <-ch.sink; out.err != nil {
			t.Fatalf("task %d: %v", out.idx, out.err)
		}
	}
	if took := time.Since(began); took >= 250*time.Millisecond {
		t.Errorf("the chunk took %v, want two task lengths (< 250ms)", took)
	}
	if ahead := w.Metrics().Counter("worker_leases_ahead_total").Value(); ahead == 0 {
		t.Errorf("worker_leases_ahead_total = 0: no lease went ahead of a 100 ms task")
	}
}

// TestLeaseAheadStopsWithoutWaitingOutTheParkedLease: Stop does not wait
// for a lease parked ahead of a running task, and drops it with the task:
// the leave fails the task over, and it completes, once, on the other node.
func TestLeaseAheadStopsWithoutWaitingOutTheParkedLease(t *testing.T) {
	co := NewCoordinator(Config{DeadAfter: time.Second, SweepEvery: 250 * time.Millisecond, MaxLeaseWait: 10 * time.Second})
	t.Cleanup(co.Close)
	url := startTestServer(t, co)
	startWorkerWith(t, WorkerConfig{Coordinator: url, ID: "a-live", Capacity: 1})
	victim := startWorkerWith(t, WorkerConfig{
		Coordinator: url, ID: "b-victim", Capacity: 1, Batch: 1, LeaseWait: 10 * time.Second,
	})
	const n = 2
	l := rt.NewLocal()
	pool := NewPool(co, l, co.Live())
	// One task per node at a time: the victim's lease ahead finds nothing
	// queued and parks.
	wait := startRun(l, func(c rt.Ctx) engine.StreamReport {
		return farm.Run(pool, c, sleepTasks(0, n, 300_000), farm.Options{Workers: []int{0, 1}, Chunk: sched.FixedChunk{K: 1}})
	})
	for deadline := time.Now().Add(5 * time.Second); victim.Metrics().Counter("worker_leases_ahead_total").Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the victim never leased ahead of its 300 ms task")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // the lease reaches the coordinator and parks
	began := time.Now()
	victim.Stop()
	if took := time.Since(began); took > 200*time.Millisecond {
		t.Errorf("Stop took %v with a lease parked ahead, want < 200ms", took)
	}
	rep := wait()
	assertExactIDs(t, rep, n)
	for _, ni := range co.Nodes() {
		if ni.ID == "b-victim" && (ni.Completed != 0 || ni.Failed != 1 || ni.Deduped != 0) {
			t.Errorf("victim = %+v, want its one task failed over and nothing completed or posted late", ni)
		}
	}
}

// lossyLeases is an HTTP round tripper that loses the first lose lease
// requests that carry results — the request never reaches the coordinator —
// and counts them.
type lossyLeases struct {
	lose, lost atomic.Int64
}

func (ll *lossyLeases) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/lease") {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		if bytes.Contains(body, []byte(`"results"`)) && ll.lose.Add(-1) >= 0 {
			ll.lost.Add(1)
			return nil, errors.New("lossy: lease request dropped")
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestHeldResults pins what an executor does with the results it holds
// when the lease request carrying them fails — a lease answering the last
// one, or, for tasks of 1 ms and more, the lease issued ahead of the
// lease's last task: it keeps them and resends, and the work completes on
// this node; but a Stop in between drops them — the leave fails the
// dispatches over, nothing is posted late, and every task still completes
// exactly once, on the other node.
func TestHeldResults(t *testing.T) {
	for _, tc := range []struct {
		name    string
		lose    int64
		stop    bool
		sleepUS int64
	}{
		{"resent after a transport error", 1, false, 0},
		{"resent after a lost lease ahead", 1, false, 2_000},
		{"dropped on stop", math.MaxInt64, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A short TTL turns a dropped result into a prompt redelivery,
			// which the test then refuses, instead of a 90 s stall.
			co := NewCoordinator(Config{
				DeadAfter: time.Second, SweepEvery: 250 * time.Millisecond,
				MaxLeaseWait: 200 * time.Millisecond, LeaseTTL: 2 * time.Second,
			})
			t.Cleanup(co.Close)
			url := startTestServer(t, co)
			startWorkerWith(t, WorkerConfig{Coordinator: url, ID: "a-live", Capacity: 1})
			lossy := &lossyLeases{}
			lossy.lose.Store(tc.lose)
			victim := startWorkerWith(t, WorkerConfig{
				Coordinator: url, ID: "b-victim", Capacity: 1,
				Transport: TransportJSON, Client: &http.Client{Transport: lossy},
			})
			const n = 40
			l := rt.NewLocal()
			pool := NewPool(co, l, co.Live())
			// The batch farm admits the whole population up front, so the
			// victim's first chunk is a full pair.
			wait := startRun(l, func(c rt.Ctx) engine.StreamReport {
				return farm.Run(pool, c, sleepTasks(0, n, tc.sleepUS), farm.Options{Workers: []int{0, 1}, Chunk: sched.FixedChunk{K: 2}})
			})
			wantFailed := int64(0)
			if tc.stop {
				for lossy.lost.Load() == 0 {
					time.Sleep(time.Millisecond)
				}
				victim.Stop()
				wantFailed = 2
			}
			rep := wait()
			assertExactIDs(t, rep, n)
			if int64(rep.Failures) != wantFailed {
				t.Errorf("failures = %d, want %d", rep.Failures, wantFailed)
			}
			for _, ni := range co.Nodes() {
				if ni.ID != "b-victim" {
					continue
				}
				if ni.Failed != wantFailed || ni.Deduped != 0 || (ni.Completed == 0) != tc.stop {
					t.Errorf("victim = %+v, want %d failed over, no late or duplicate post, completions only without the stop", ni, wantFailed)
				}
			}
			if lost := lossy.lost.Load(); lost < 1 {
				t.Errorf("no lease request carrying results was ever lost: the scenario did not run")
			}
			if expired := co.Metrics().Counter("cluster_leases_expired_total").Value(); expired != 0 {
				t.Errorf("%d leases expired: a held result was lost, not resent", expired)
			}
			// With 2 ms tasks the first request to carry results is the
			// lease ahead of the victim's second task: the one lost.
			if ahead := victim.Metrics().Counter("worker_leases_ahead_total").Value(); (ahead > 0) != (tc.sleepUS > 0) {
				t.Errorf("victim worker_leases_ahead_total = %d with %d µs tasks", ahead, tc.sleepUS)
			}
		})
	}
}

// victimCluster registers a hand-driven capacity-2 node "b-victim" next to
// a real capacity-1 worker "a-live" and returns a pool over both: slot 0
// is the live worker, slot 1 the victim's first lane. The test plays the
// victim's executors itself.
func victimCluster(t *testing.T) (co *Coordinator, pool *Pool, l *rt.Local, victimGen int64) {
	t.Helper()
	co = testCoordinator(t, time.Hour) // eviction is explicit
	srv := httptest.NewServer(co.Handler())
	t.Cleanup(srv.Close)
	startWorkerWith(t, WorkerConfig{Coordinator: srv.URL, ID: "a-live", Capacity: 1})
	reg, err := co.Register(RegisterRequest{ID: "b-victim", Capacity: 2, SpeedOPS: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	l = rt.NewLocal()
	pool = NewPool(co, l, co.Live())
	if pool.NodeName(0) != "a-live" || pool.NodeName(1) != "b-victim" {
		t.Fatalf("pool order = %v", pool.Members())
	}
	return co, pool, l, reg.Gen
}

// evictHalfLeased leases the victim's capacity share of its first chunk —
// half of it, the other half stays queued — evicts the node, and then
// posts the zombie's late results, which must be refused and deduped.
func evictHalfLeased(t *testing.T, co *Coordinator, gen int64, chunk int) {
	t.Helper()
	lease, err := co.Lease(LeaseRequest{ID: "b-victim", Gen: gen, Max: chunk, WaitMS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(lease.Tasks) != chunk/2 {
		t.Fatalf("victim leased %d of its chunk of %d, want half", len(lease.Tasks), chunk)
	}
	if err := co.Evict("b-victim"); err != nil {
		t.Fatal(err)
	}
	late := make([]WireResult, len(lease.Tasks))
	for i, wt := range lease.Tasks {
		late[i] = WireResult{Dispatch: wt.Dispatch, Task: wt.Task, Micros: 1}
	}
	if err := co.Results(ResultsRequest{ID: "b-victim", Gen: gen, Results: late}); !errors.Is(err, ErrGone) {
		t.Errorf("late results for the evicted generation: err = %v, want ErrGone", err)
	}
	if got := co.Metrics().Counter("cluster_results_dropped_total").Value(); got != int64(len(late)) {
		t.Errorf("cluster_results_dropped_total = %d, want %d", got, len(late))
	}
}

func TestEvictMidChunkFailsEveryTaskExactlyOnce(t *testing.T) {
	co, pool, l, gen := victimCluster(t)
	const k = 8
	type emitted struct {
		id  int
		err error
	}
	got := make(chan emitted, 2*k) // room for a duplicate to show up as one
	l.Go("chunk", func(c rt.Ctx) {
		pool.ExecChunk(c, 1, sleepTasks(0, k, 0), func(r platform.Result) {
			got <- emitted{r.Task.ID, r.Err}
		})
		close(got)
	})
	evictHalfLeased(t, co, gen, k)
	if err := l.Run(); err != nil { // returns only once the chunk has k outcomes
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for e := range got {
		if !errors.Is(e.err, ErrNodeLost) {
			t.Errorf("task %d err = %v, want ErrNodeLost", e.id, e.err)
		}
		seen[e.id]++
	}
	for id := 0; id < k; id++ {
		if seen[id] != 1 {
			t.Errorf("task %d emitted %d times, want once", id, seen[id])
		}
	}
	if len(seen) != k {
		t.Errorf("emitted ids %v, want exactly 0..%d", seen, k-1)
	}
}

func TestEvictMidChunkFarmRequeuesTheWholeChunk(t *testing.T) {
	co, pool, l, gen := victimCluster(t)
	const n, k = 64, 8
	// The batch farm admits the whole population up front, so the victim's
	// first chunk is a full one.
	wait := startRun(l, func(c rt.Ctx) engine.StreamReport {
		return farm.Run(pool, c, sleepTasks(0, n, 100), farm.Options{Workers: []int{0, 1}, Chunk: sched.FixedChunk{K: k}})
	})
	evictHalfLeased(t, co, gen, k)
	rep := wait()
	assertExactIDs(t, rep, n)
	if rep.Failures != k {
		t.Errorf("failures = %d, want the evicted chunk's %d unresolved tasks", rep.Failures, k)
	}
	if len(rep.DeadWorkers) != 1 || rep.DeadWorkers[0] != 1 {
		t.Errorf("dead workers = %v, want the victim's slot 1", rep.DeadWorkers)
	}
}

func TestEvictMidBlockDmapRequeuesTheWholeBlock(t *testing.T) {
	co, pool, l, gen := victimCluster(t)
	const n, block = 64, 8
	// Four waves of 16 over two equally weighted slots: blocks of 8. The
	// victim's lost block is re-queued at the head of the next wave.
	wait := startRun(l, func(c rt.Ctx) engine.StreamReport {
		return dmap.Run(pool, c, sleepTasks(0, n, 100), dmap.Options{Workers: []int{0, 1}, Waves: n / (2 * block)})
	})
	evictHalfLeased(t, co, gen, block)
	rep := wait()
	assertExactIDs(t, rep, n)
	if rep.Failures != block {
		t.Errorf("failures = %d, want the evicted block's %d unresolved tasks", rep.Failures, block)
	}
}

// playChunk runs tasks as one chunk on slot 0 of a single hand-driven
// node: the test is the node's only executor — it leases the whole chunk,
// then answers it one task every gap, each reporting micros of execution.
// It returns the emitted Result.Times in task order and the chunk's wall
// time.
func playChunk(t *testing.T, co *Coordinator, pool *Pool, l *rt.Local, gen int64, tasks []platform.Task, gap time.Duration, micros int64) ([]time.Duration, time.Duration) {
	t.Helper()
	times := make([]time.Duration, len(tasks))
	var wall time.Duration
	l.Go("chunk", func(c rt.Ctx) {
		start := c.Now()
		pool.ExecChunk(c, 0, tasks, func(r platform.Result) {
			if r.Failed() {
				t.Errorf("task %d failed: %v", r.Task.ID, r.Err)
			}
			times[r.Task.ID-tasks[0].ID] = r.Time
		})
		wall = c.Now() - start
	})
	lease, err := co.Lease(LeaseRequest{ID: "n1", Gen: gen, WaitMS: 5000})
	if err != nil || len(lease.Tasks) != len(tasks) {
		t.Fatalf("lease = %d tasks, err %v; want the whole chunk of %d", len(lease.Tasks), err, len(tasks))
	}
	for _, wt := range lease.Tasks {
		time.Sleep(gap)
		if err := co.Results(ResultsRequest{ID: "n1", Gen: gen, Results: []WireResult{
			{Dispatch: wt.Dispatch, Task: wt.Task, Micros: micros},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	return times, wall
}

func TestChunkOfOneReportsItsRoundTrip(t *testing.T) {
	co := testCoordinator(t, time.Hour)
	reg, _ := co.Register(RegisterRequest{ID: "n1", Capacity: 1})
	l := rt.NewLocal()
	pool := NewPool(co, l, co.Live())
	// The node says 1 ms of execution; the round trip took 30 ms. The
	// detector must see the round trip, exactly as Exec always reported.
	times, wall := playChunk(t, co, pool, l, reg.Gen, sleepTasks(0, 1, 0), 30*time.Millisecond, 1000)
	if times[0] < 30*time.Millisecond || times[0] > wall {
		t.Errorf("chunk-of-one Time = %v, want the round trip (>= 30ms, <= the caller's %v)", times[0], wall)
	}
}

func TestChunkObservationsAreFlatNotARamp(t *testing.T) {
	co := testCoordinator(t, time.Hour)
	reg, _ := co.Register(RegisterRequest{ID: "n1", Capacity: 1})
	l := rt.NewLocal()
	pool := NewPool(co, l, co.Live())
	// 16 equal tasks, 5 ms each, answered one by one: measured from the
	// chunk's submit they would read 5, 10, … 80 ms and breach a healthy node.
	const k = 16
	times, _ := playChunk(t, co, pool, l, reg.Gen, sleepTasks(0, k, 0), 5*time.Millisecond, 5000)
	lo, hi := times[0], times[0]
	for _, d := range times {
		lo, hi = min(lo, d), max(hi, d)
	}
	if lo < 5*time.Millisecond || float64(hi) > 1.3*float64(lo) {
		t.Errorf("observations span %v..%v, want 16 within 30%% of each other, none under the node's 5ms: %v", lo, hi, times)
	}
	// The slot's per-task overhead share carries into its next chunk.
	again, _ := playChunk(t, co, pool, l, reg.Gen, sleepTasks(k, k, 0), 5*time.Millisecond, 5000)
	if again[0] < 5*time.Millisecond || float64(again[0]) > 1.3*float64(lo) {
		t.Errorf("next chunk's first observation = %v, want about %v", again[0], lo)
	}
}

func TestDegradedNodeRaisesChunkObservations(t *testing.T) {
	co := testCoordinator(t, time.Second)
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	const degradeAfter = 400 * time.Millisecond
	began := time.Now()
	startWorkerWith(t, WorkerConfig{
		Coordinator: srv.URL, ID: "n1", Capacity: 1,
		DegradeAfter: degradeAfter, DegradeFactor: 4,
	})
	l := rt.NewLocal()
	pool := NewPool(co, l, co.Live())
	mean := func(from int) time.Duration {
		var sum time.Duration
		n := 0
		l.Go("chunk", func(c rt.Ctx) {
			pool.ExecChunk(c, 0, sleepTasks(from, 8, 2000), func(r platform.Result) {
				if r.Failed() {
					t.Errorf("task %d failed: %v", r.Task.ID, r.Err)
				}
				sum += r.Time
				n++
			})
		})
		if err := l.Run(); err != nil {
			t.Fatal(err)
		}
		if n != 8 {
			t.Fatalf("emitted %d of 8", n)
		}
		return sum / 8
	}
	healthy := mean(0)
	if time.Since(began) > degradeAfter {
		t.Skip("host too slow: the healthy chunk overran the scripted degradation")
	}
	time.Sleep(time.Until(began.Add(degradeAfter + 50*time.Millisecond)))
	degraded := mean(8)
	// Both the detector's reactive breach and the slow-node reweighting key
	// off this ratio: 4x execution must read as about 4x (the node's own
	// sleep jitter is stretched 4x too, hence the loose upper bound — a
	// ramp down the chunk would read 18x).
	if ratio := float64(degraded) / float64(healthy); ratio < 3 || ratio > 8 {
		t.Errorf("degraded/healthy observation = %.2f (%v / %v), want about 4", ratio, degraded, healthy)
	}
}
