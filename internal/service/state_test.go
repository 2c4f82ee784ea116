package service

import (
	"bytes"
	"context"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"grasp/internal/cluster"
	"grasp/internal/journal"
	"grasp/internal/platform"
)

// Tests for what keeping a job's state in one place makes checkable: the
// conservation law over the one struct, visible ⇒ durable under the
// watermark, lookups that do not wait for another job's disk flush, and
// the costs of the store-less wal.

// assertConserved checks the task-pool conservation law on every job of
// the service. On a durable service every accepted task is at all times
// completed, pending or lost; an in-memory service keeps no pending set,
// so the law is an inequality until the job is done.
func assertConserved(t *testing.T, s *Service) {
	t.Helper()
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		s.wal.mu.Lock()
		wj := *j.wj
		pending := len(wj.Pending)
		s.wal.mu.Unlock()
		settled := wj.completed() + wj.Lost
		switch {
		case s.wal.store != nil && wj.Submitted != settled+pending:
			t.Errorf("job %s: submitted %d != completed %d + pending %d + lost %d",
				j.name, wj.Submitted, wj.completed(), pending, wj.Lost)
		case wj.Submitted < settled || wj.Done && wj.Submitted != settled:
			t.Errorf("job %s (done=%v): submitted %d, completed %d + lost %d",
				j.name, wj.Done, wj.Submitted, wj.completed(), wj.Lost)
		}
	}
}

// durableCounts is the part of a status a restart must reproduce exactly.
type durableCounts struct {
	State                                string
	Submitted, Completed, InFlight, Lost int
}

func countsOf(st JobStatus) durableCounts {
	return durableCounts{st.State, st.Submitted, st.Completed, st.InFlight, st.Lost}
}

// kindStore wraps a real journal.Store and, while armed, parks the Sync
// covering any batch that holds a record of one kind until released — so a
// test can stop the wal between "applied" and "durable" for exactly the
// record it cares about, with no timing involved.
type kindStore struct {
	*journal.Store
	mu     sync.Mutex
	kind   []byte // `"kind":"<k>"`; nil: disarmed
	hit    bool   // the batch being flushed holds such a record
	parked int    // Syncs parked so far
	gate   chan struct{}
}

// arm parks the next Sync covering a record of kind and returns its
// release, which is idempotent and also runs at cleanup: a test that fails
// with the Sync parked must not hang the service's Close.
func (k *kindStore) arm(t *testing.T, kind string) (release func()) {
	gate := make(chan struct{})
	k.mu.Lock()
	k.kind, k.gate = []byte(`"kind":"`+kind+`"`), gate
	k.mu.Unlock()
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return release
}

func (k *kindStore) AppendBatch(p [][]byte) error {
	k.mu.Lock()
	for _, raw := range p {
		if k.kind != nil && bytes.Contains(raw, k.kind) {
			k.hit = true
		}
	}
	k.mu.Unlock()
	return k.Store.AppendBatch(p)
}

func (k *kindStore) Sync() error {
	k.mu.Lock()
	hit, gate := k.hit, k.gate
	if hit {
		k.hit, k.kind = false, nil
		k.parked++
	}
	k.mu.Unlock()
	if hit {
		<-gate
	}
	return k.Store.Sync()
}

func (k *kindStore) parkedSyncs() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.parked
}

// serviceOverStore builds a small service whose wal runs over a kindStore
// wrapping a fresh journal in a temp dir.
func serviceOverStore(t *testing.T) (*Service, *kindStore) {
	t.Helper()
	ks := &kindStore{Store: walOverStore(t, t.TempDir())}
	s := New(Config{Workers: 2, WarmupTasks: 2})
	s.wal = newWAL(ks, walOptions{})
	t.Cleanup(func() { s.Close() })
	return s, ks
}

// TestBlockedSyncVisibleImpliesDurable stops the wal inside the fsync that
// covers a result: the result is applied to the state but must be absent
// from Results, from Status().Completed and from a poll parked at the
// watermark until the Sync returns; the Sync's return wakes that poll.
func TestBlockedSyncVisibleImpliesDurable(t *testing.T) {
	s, ks := serviceOverStore(t)
	h := NewHandler(s)
	j, err := s.Submit("watermark", JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	release := ks.arm(t, walResults)
	if _, err := j.Push(burst(0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "the ack's fsync to park", func() bool { return ks.parkedSyncs() == 1 })
	// A poll that parks with the ack in its fsync waits out its hold and
	// answers nothing.
	if p := awaitPoll(t, pollAsync(t, context.Background(), h, j.Name(), 0), 5*time.Second); len(p.page.Results) != 0 || p.page.Next != 0 {
		t.Errorf("a poll parked across the held fsync answered %s before the ack was durable", p.raw)
	}
	if pool := s.wal.view(j.wj); pool.completed() != 1 {
		t.Fatalf("state holds %d results with the ack parked in its fsync, want 1 (applied ahead of the flush)", pool.completed())
	}
	if results, next := j.Results(0); len(results) != 0 || next != 0 {
		t.Errorf("Results serves %d results (next %d) before the ack is durable", len(results), next)
	}
	if st := j.Status(); st.Completed != 0 || st.InFlight != 1 {
		t.Errorf("status completed=%d in_flight=%d before the ack is durable, want 0/1", st.Completed, st.InFlight)
	}
	poll := parkPoll(t, context.Background(), h, j, 0)
	release()
	if p := awaitPoll(t, poll, 5*time.Second); len(p.page.Results) != 1 || p.page.Results[0].ID != 0 || p.page.Next != 1 {
		t.Errorf("the parked poll answered %s after the fsync, want task 0 at next 1", p.raw)
	}
	if st := j.Status(); st.Completed != 1 {
		t.Errorf("status completed=%d after the parked poll saw the result, want 1", st.Completed)
	}
	if results, next := j.Results(0); len(results) != 1 || next != 1 || results[0].ID != 0 {
		t.Errorf("Results after the fsync = %+v, next %d", results, next)
	}
	assertConserved(t, s)
}

// TestResultWakeAllocatesNothingWithoutPollers: with no poll parked, what
// onResult adds for the pollers is a nil check — a completion allocates
// nothing it did not before (the results append amortises to 0).
func TestResultWakeAllocatesNothingWithoutPollers(t *testing.T) {
	s := New(Config{Workers: 2, WarmupTasks: 2})
	t.Cleanup(func() { s.Close() })
	j, err := s.Submit("nowake", JobSpec{MaxResults: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	id := 0
	complete := func() {
		j.onResult(platform.Result{Task: platform.Task{ID: id}, Time: time.Microsecond})
		id++
	}
	for range 2 * j.spec.WarmupTasks { // past the threshold install
		complete()
	}
	if allocs := testing.AllocsPerRun(2000, complete); allocs != 0 {
		t.Errorf("a completion with no poller parked allocates %.0f times, want 0", allocs)
	}
	changed := j.waitPast(id)
	complete()
	select {
	case <-changed:
	default:
		t.Error("a completion did not wake the poll parked at its watermark")
	}
}

// TestBlockedSyncRemoveDoesNotStallLookups parks a Remove inside its
// fsync: every other job must stay reachable and readable meanwhile, and
// the job being removed stays visible until its removal is durable.
func TestBlockedSyncRemoveDoesNotStallLookups(t *testing.T) {
	s, ks := serviceOverStore(t)
	for _, name := range []string{"victim", "other"} {
		j, err := s.Submit(name, JobSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Push(burst(0, 3, 0)); err != nil {
			t.Fatal(err)
		}
		if err := j.CloseInput(); err != nil {
			t.Fatal(err)
		}
		waitDone(t, j, 10*time.Second)
	}
	release := ks.arm(t, walRemove)
	removed := make(chan error, 1)
	go func() { removed <- s.Remove("victim") }()
	waitUntil(t, 10*time.Second, "the remove's fsync to park", func() bool { return ks.parkedSyncs() == 1 })

	looked := make(chan JobStatus, 1)
	go func() {
		j, ok := s.Job("other")
		if !ok {
			t.Error("other job unreachable while a remove is in flight")
			return
		}
		s.Statuses()
		looked <- j.Status()
	}()
	select {
	case st := <-looked:
		if st.Completed != 3 {
			t.Errorf("other job completed = %d, want 3", st.Completed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Job lookup stalled behind another job's remove fsync")
	}
	if _, ok := s.Job("victim"); !ok {
		t.Error("victim vanished before its removal was durable")
	}
	if err := s.Remove("victim"); err == nil {
		t.Error("second remove of a job already being removed succeeded")
	}
	release()
	if err := <-removed; err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Job("victim"); ok {
		t.Error("victim still present after its removal returned")
	}
}

// TestRecoveryPushCutShortByNodeLoss is the durable twin of
// TestPushUnblocksWhenEveryNodeDies: a 200-task push to a cluster job is
// cut short when its only node is evicted. The journaled count stands as
// submitted, what never ran is lost, and a restart over the same data dir
// reports exactly what the live service reported.
func TestRecoveryPushCutShortByNodeLoss(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.Config{DeadAfter: 500 * time.Millisecond, MaxLeaseWait: 200 * time.Millisecond})
	t.Cleanup(coord.Close)
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	worker, err := cluster.StartWorker(cluster.WorkerConfig{
		Coordinator: srv.URL, ID: "a", Capacity: 2, BenchSpin: 10_000,
		Heartbeat: 50 * time.Millisecond, LeaseWait: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(worker.Stop)

	dir := t.TempDir()
	s, err := Open(Config{Workers: 2, WarmupTasks: 4, Cluster: coord, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit("doomed", JobSpec{Placement: PlacementCluster})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	pushed := make(chan error, 1)
	go func() {
		_, err := j.Push(burst(0, n, 50_000))
		pushed <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the push wedge against the window
	if err := coord.Evict("a"); err != nil {
		t.Fatal(err)
	}
	worker.Stop() // or its next heartbeat re-registers it into the dying job
	select {
	case err := <-pushed:
		if err == nil {
			t.Error("push returned no error after total node loss")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("push still blocked after every node died")
	}
	waitDone(t, j, 10*time.Second)
	assertConserved(t, s)
	before := countsOf(j.Status())
	if before.Submitted != n || before.Completed+before.Lost != n || before.Lost == 0 {
		t.Errorf("live counts %+v: want submitted %d = completed + lost, lost > 0", before, n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Workers: 2, WarmupTasks: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	j2, ok := s2.Job("doomed")
	if !ok {
		t.Fatal("job lost across restart")
	}
	assertConserved(t, s2)
	if after := countsOf(j2.Status()); after != before {
		t.Errorf("status changed across the restart:\nlive:     %+v\nreplayed: %+v", before, after)
	}
}

// TestWalAckDeepBacklog: retiring tasks from a 10k-deep pending set
// allocates nothing (amortised over the results append), wherever in the
// set they sit, and a backlog snapshot taken for resume is unaffected by
// the in-place deletes that follow it.
func TestWalAckDeepBacklog(t *testing.T) {
	const depth = 10_000
	w := newWAL(nil, walOptions{})
	wj := &walJob{Spec: JobSpec{MaxResults: 1 << 20}, Submitted: depth, Pending: burst(0, depth, 0)}

	snap := w.backlog(wj)
	// Front, back and middle of the set.
	next := [3]int{0, depth - 1, depth / 2}
	step := [3]int{1, -1, 1}
	turn := 0
	allocs := testing.AllocsPerRun(3000, func() {
		k := turn % 3
		wj.ack(TaskResult{ID: next[k]})
		next[k] += step[k]
		turn++
	})
	if allocs != 0 {
		t.Errorf("ack over a %d-deep backlog allocates %.0f times per call, want 0", depth, allocs)
	}
	if got := wj.completed() + len(wj.Pending); got != depth {
		t.Errorf("completed + pending = %d after the acks, want %d", got, depth)
	}
	seen := make(map[int]bool, len(wj.Pending))
	for _, ts := range wj.Pending {
		seen[ts.ID] = true
	}
	for _, r := range wj.Results {
		if seen[r.ID] {
			t.Fatalf("task %d is both acknowledged and pending", r.ID)
		}
	}
	if len(snap) != depth {
		t.Fatalf("snapshot holds %d tasks, want %d", len(snap), depth)
	}
	for i, ts := range snap {
		if ts.ID != i {
			t.Fatalf("snapshot[%d] = task %d: later acks wrote through the resume snapshot", i, ts.ID)
		}
	}
}

// TestWalStorelessCommitAllocatesNothing: the wal of an in-memory service
// never marshals or queues — a commit is lock, apply, unlock — and keeps
// no pending set.
func TestWalStorelessCommitAllocatesNothing(t *testing.T) {
	w := newWAL(nil, walOptions{})
	spec := JobSpec{MaxResults: 1 << 20}
	if err := w.commit(walRecord{Kind: walCreate, Job: "mem", Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	tasks := burst(0, 16, 0)
	var ack [1]TaskResult
	id := 0
	allocs := testing.AllocsPerRun(2000, func() {
		w.commit(walRecord{Kind: walTasks, Job: "mem", Tasks: tasks})
		for range tasks {
			ack[0] = TaskResult{ID: id}
			w.commit(walRecord{Kind: walResults, Job: "mem", Results: ack[:]})
			id++
		}
	})
	if allocs != 0 {
		t.Errorf("store-less commit allocates %.0f times per 16-task batch, want 0 beyond the amortised results append", allocs)
	}
	wj := w.state.Jobs["mem"]
	if len(wj.Pending) != 0 || len(w.queue) != 0 {
		t.Errorf("store-less wal tracked %d pending tasks and queued %d commits, want neither", len(wj.Pending), len(w.queue))
	}
	if wj.Submitted != wj.completed() || wj.Submitted == 0 {
		t.Errorf("submitted %d, completed %d", wj.Submitted, wj.completed())
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	if err := w.commit(walRecord{Kind: walClose, Job: "mem"}); err != nil {
		t.Errorf("commit after close on a store-less wal: %v (an in-memory service keeps serving)", err)
	}
}

// TestRecoveryClusterJobWithoutCoordinator: a daemon restarted over a data
// dir that holds an unfinished cluster job, but with no coordinator, keeps
// the job recovering — listed, pollable, accepting durable pushes — and
// logs why. A later Open with a coordinator resumes it, and every task
// runs exactly once.
func TestRecoveryClusterJobWithoutCoordinator(t *testing.T) {
	fleet := func() *cluster.Coordinator {
		coord := cluster.NewCoordinator(cluster.Config{DeadAfter: 500 * time.Millisecond, MaxLeaseWait: 200 * time.Millisecond})
		t.Cleanup(coord.Close)
		srv := httptest.NewServer(coord.Handler())
		t.Cleanup(srv.Close)
		worker, err := cluster.StartWorker(cluster.WorkerConfig{
			Coordinator: srv.URL, ID: "a", Capacity: 2, BenchSpin: 10_000,
			Heartbeat: 50 * time.Millisecond, LeaseWait: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(worker.Stop)
		return coord
	}

	dir := t.TempDir()
	s, err := Open(Config{Workers: 2, WarmupTasks: 4, Cluster: fleet(), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.Submit("orphan", JobSpec{Placement: PlacementCluster})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	if _, err := j.Push(burst(0, n, 100)); err != nil {
		t.Fatal(err)
	}
	crash := copyDir(t, dir)

	var logs bytes.Buffer
	s2, err := Open(Config{Workers: 2, WarmupTasks: 4, DataDir: crash, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logs.String(), "no cluster coordinator") {
		t.Errorf("Open did not log why the job stays recovering:\n%s", logs.String())
	}
	j2, ok := s2.Job("orphan")
	if !ok {
		t.Fatal("job lost across the restart")
	}
	if len(s2.Statuses()) != 1 {
		t.Errorf("statuses = %+v, want the one recovering job", s2.Statuses())
	}
	if got, _ := j2.Results(0); len(got) != j2.Status().Completed {
		t.Errorf("poll of a recovering job: %d results, %d completed", len(got), j2.Status().Completed)
	}
	if _, err := j2.Push(burst(n, 5, 100)); err != nil {
		t.Fatalf("durable push to a recovering job: %v", err)
	}
	if st := j2.Status().State; st != JobRecovering {
		t.Errorf("state with no coordinator = %s, want %s", st, JobRecovering)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, err := Open(Config{Workers: 2, WarmupTasks: 4, Cluster: fleet(), DataDir: crash})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	j3, ok := s3.Job("orphan")
	if !ok {
		t.Fatal("job lost across the second restart")
	}
	if err := j3.CloseInput(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j3, 20*time.Second)
	results, _ := j3.Results(0)
	assertExactlyOnceIDs(t, results, n+5)
	if st := j3.Status(); st.Lost != 0 {
		t.Errorf("resumed job lost %d tasks", st.Lost)
	}
}
