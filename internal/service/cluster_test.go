package service_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grasp/internal/cluster"
	"grasp/internal/service"
)

// startClusterDaemon builds a service with a live coordinator and n
// in-process workers running the real HTTP worker runtime.
func startClusterDaemon(t *testing.T, n int) (*service.Service, *cluster.Coordinator) {
	s, coord, _ := startClusterDaemonURL(t, n)
	return s, coord
}

// startClusterDaemonURL additionally exposes the coordinator's URL so
// tests can register workers mid-stream.
func startClusterDaemonURL(t *testing.T, n int) (*service.Service, *cluster.Coordinator, string) {
	t.Helper()
	coord := cluster.NewCoordinator(cluster.Config{
		DeadAfter:    500 * time.Millisecond,
		MaxLeaseWait: 200 * time.Millisecond,
	})
	t.Cleanup(coord.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := cluster.NewServer(coord)
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	url := "http://" + ln.Addr().String()
	for i := 0; i < n; i++ {
		startClusterWorker(t, url, string(rune('a'+i)))
	}
	s := service.New(service.Config{
		Workers:     2,
		WarmupTasks: 4,
		Cluster:     coord,
	})
	return s, coord, url
}

// startClusterWorker registers one in-process worker runtime.
func startClusterWorker(t *testing.T, url, id string) *cluster.Worker {
	t.Helper()
	w, err := cluster.StartWorker(cluster.WorkerConfig{
		Coordinator: url,
		ID:          id,
		Capacity:    2,
		BenchSpin:   10_000,
		Heartbeat:   50 * time.Millisecond,
		LeaseWait:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	return w
}

func TestClusterPlacementJobRunsOnWorkerNodes(t *testing.T) {
	s, _ := startClusterDaemon(t, 2)
	j, err := s.Submit("remote", service.JobSpec{Placement: service.PlacementCluster})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]service.TaskSpec, 30)
	for i := range specs {
		specs[i] = service.TaskSpec{ID: i, SleepUS: 300}
	}
	if _, err := j.Push(specs); err != nil {
		t.Fatal(err)
	}
	if err := j.CloseInput(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("cluster job never drained")
	}

	st := j.Status()
	if st.Placement != service.PlacementCluster {
		t.Errorf("placement = %q", st.Placement)
	}
	if st.Completed != 30 || st.Failures != 0 {
		t.Errorf("completed=%d failures=%d", st.Completed, st.Failures)
	}
	if len(st.Nodes) != 2 {
		t.Fatalf("per-node status = %+v, want 2 nodes", st.Nodes)
	}
	var total int64
	for _, nc := range st.Nodes {
		if nc.Completed == 0 {
			t.Errorf("node %s completed nothing: job did not span the cluster", nc.Node)
		}
		total += nc.Completed
	}
	if total != 30 {
		t.Errorf("per-node completions sum to %d, want 30", total)
	}

	// Results carry the executing node and stay exactly-once.
	results, _ := j.Results(0)
	if len(results) != 30 {
		t.Fatalf("results = %d", len(results))
	}
	seen := make(map[int]bool)
	for _, r := range results {
		if r.Node == "" {
			t.Fatalf("result %d has no node", r.ID)
		}
		if seen[r.ID] {
			t.Fatalf("task %d duplicated", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestClusterPlacementPipelineJob(t *testing.T) {
	s, _ := startClusterDaemon(t, 2)
	j, err := s.Submit("remote-pipe", service.JobSpec{
		Skeleton:  "pipeline",
		Placement: service.PlacementCluster,
		Stages:    []service.StageSpec{{Name: "a"}, {Name: "b", CostFactor: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]service.TaskSpec, 12)
	for i := range specs {
		specs[i] = service.TaskSpec{ID: i, SleepUS: 200}
	}
	if _, err := j.Push(specs); err != nil {
		t.Fatal(err)
	}
	j.CloseInput()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("cluster pipeline never drained")
	}
	if st := j.Status(); st.Completed != 12 {
		t.Errorf("completed = %d", st.Completed)
	}
}

func TestPushUnblocksWhenEveryNodeDies(t *testing.T) {
	s, coord := startClusterDaemon(t, 1)
	j, err := s.Submit("doomed", service.JobSpec{Placement: service.PlacementCluster})
	if err != nil {
		t.Fatal(err)
	}
	// Far more slow tasks than the window: the push blocks under
	// backpressure while the only node is evicted out from under it.
	specs := make([]service.TaskSpec, 200)
	for i := range specs {
		specs[i] = service.TaskSpec{ID: i, SleepUS: 50_000}
	}
	type outcome struct {
		n   int
		err error
	}
	pushed := make(chan outcome, 1)
	go func() {
		n, err := j.Push(specs)
		pushed <- outcome{n, err}
	}()
	time.Sleep(100 * time.Millisecond) // let the push wedge against the window
	if err := coord.Evict("a"); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-pushed:
		if out.err == nil {
			t.Errorf("push of %d tasks returned no error after total node loss", out.n)
		}
		if out.n == len(specs) {
			t.Error("push claims every task was accepted despite the dead cluster")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("push still blocked after every node died")
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("job never finished after losing its only node")
	}
}

// TestBlockedPushReturnsAsTheJobFinishes pins the feed's wakeup: a push
// parked on a full input is woken by the job's done channel itself, so it
// returns with the job — not up to a poll period later.
func TestBlockedPushReturnsAsTheJobFinishes(t *testing.T) {
	s, _, url := startClusterDaemonURL(t, 0)
	w := startClusterWorker(t, url, "a")
	j, err := s.Submit("doomed", service.JobSpec{Placement: service.PlacementCluster})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]service.TaskSpec, 200)
	for i := range specs {
		specs[i] = service.TaskSpec{ID: i, SleepUS: 20_000}
	}
	returned := make(chan time.Time, 1)
	go func() {
		if n, err := j.Push(specs); err == nil || n == len(specs) {
			t.Errorf("push accepted %d of %d tasks with err %v despite the dead cluster", n, len(specs), err)
		}
		returned <- time.Now()
	}()
	// Once a task has completed, the 200-task push has long filled the
	// window and is parked on the input.
	for deadline := time.Now().Add(10 * time.Second); j.Status().Completed == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no task ever completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	w.Stop() // graceful leave: the job's only node is gone at once
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("job never finished after losing its only node")
	}
	finished := time.Now()
	select {
	case at := <-returned:
		if lag := at.Sub(finished); lag > 50*time.Millisecond {
			t.Errorf("push returned %v after the job finished, want within 50ms", lag)
		}
	case <-time.After(50 * time.Millisecond):
		t.Error("push still blocked 50ms after the job finished")
	}
}

// TestNodeJoinsRunningClusterJob is the join-symmetric counterpart of the
// node-loss tests: a job submitted with one live node gains a second node
// that registers mid-stream — through the coordinator's membership events,
// the growable pool, and the engine's membership deltas — and the joiner
// demonstrably executes tasks while the stream stays exactly-once.
func TestNodeJoinsRunningClusterJob(t *testing.T) {
	s, _, url := startClusterDaemonURL(t, 1)
	j, err := s.Submit("elastic", service.JobSpec{Placement: service.PlacementCluster})
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Status().Workers; got != 2 {
		t.Fatalf("membership at submit = %d slots, want 2 (one node, capacity 2)", got)
	}

	// Phase 1: saturate the lone node with slow tasks from a background
	// push so the stream is demonstrably mid-flight when the joiner lands.
	phase1 := make([]service.TaskSpec, 30)
	for i := range phase1 {
		phase1[i] = service.TaskSpec{ID: i, SleepUS: 10_000}
	}
	pushed := make(chan error, 1)
	go func() {
		_, err := j.Push(phase1)
		pushed <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	for j.Status().Completed < 4 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	// The second node registers mid-stream.
	startClusterWorker(t, url, "joiner")
	for time.Now().Before(deadline) {
		if st := j.Status(); st.Workers >= 4 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := j.Status(); st.Workers < 4 {
		t.Fatalf("membership never grew: %d slots, want 4 after the join", st.Workers)
	}
	if err := <-pushed; err != nil {
		t.Fatal(err)
	}

	// Phase 2 traffic lands on both nodes.
	phase2 := make([]service.TaskSpec, 30)
	for i := range phase2 {
		phase2[i] = service.TaskSpec{ID: 30 + i, SleepUS: 5_000}
	}
	if _, err := j.Push(phase2); err != nil {
		t.Fatal(err)
	}
	if err := j.CloseInput(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job never drained after the join")
	}

	st := j.Status()
	if st.Completed != 60 || st.Failures != 0 || st.Lost != 0 {
		t.Fatalf("completed=%d failures=%d lost=%d, want a clean 60", st.Completed, st.Failures, st.Lost)
	}
	var joiner int64
	for _, nc := range st.Nodes {
		if nc.Node == "joiner" {
			joiner = nc.Completed
		}
	}
	if joiner == 0 {
		t.Errorf("joined node executed nothing: per-node tallies %+v", st.Nodes)
	}
	results, _ := j.Results(0)
	seen := map[int]bool{}
	joinerResults := 0
	for _, r := range results {
		if seen[r.ID] {
			t.Fatalf("task %d duplicated", r.ID)
		}
		seen[r.ID] = true
		if r.Node == "joiner" {
			joinerResults++
		}
	}
	if len(seen) != 60 {
		t.Fatalf("%d distinct results, want 60", len(seen))
	}
	if joinerResults == 0 {
		t.Error("no result attributed to the joined node")
	}
	if rep := j.Report(); rep.WorkersAdded < 2 {
		t.Errorf("engine admitted %d workers, want the joiner's 2 slots", rep.WorkersAdded)
	}
}

// heldLease is a node's HTTP transport that holds the first lease response
// carrying tasks until the test releases it: while it is held, those tasks
// are leased to the node and cannot have run.
type heldLease struct {
	taken   atomic.Bool
	leased  chan struct{} // closed once the held response arrived
	release chan struct{} // closed by the test
}

func (h *heldLease) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/lease") {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var lr cluster.LeaseResponse
	if json.Unmarshal(body, &lr) == nil && len(lr.Tasks) > 0 && h.taken.CompareAndSwap(false, true) {
		close(h.leased)
		<-h.release
	}
	return resp, nil
}

// TestEvictedNodeRejoinsRunningJob: a cluster job on two real workers loses
// one, healthy, to an eviction while a lease of its tasks is in flight. The
// leased work fails over to the survivor; the evicted process, told its
// generation is gone, re-registers, and its fresh slots join the running
// job and execute tasks. Across the loss and the rejoin every task is
// delivered exactly once and nothing is lost.
func TestEvictedNodeRejoinsRunningJob(t *testing.T) {
	const phase, sleepUS = 40, 5_000
	s, coord, url := startClusterDaemonURL(t, 1)
	held := &heldLease{leased: make(chan struct{}), release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(held.release) })
	defer release()
	b, err := cluster.StartWorker(cluster.WorkerConfig{
		Coordinator: url, ID: "b", Capacity: 2, BenchSpin: 10_000,
		Heartbeat: 50 * time.Millisecond, LeaseWait: 100 * time.Millisecond,
		Transport: cluster.TransportJSON, Client: &http.Client{Transport: held},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Stop)

	j, err := s.Submit("rejoin", service.JobSpec{Placement: service.PlacementCluster})
	if err != nil {
		t.Fatal(err)
	}
	slotsAtSubmit := j.Status().Workers
	var genAtSubmit int64
	for _, ni := range coord.Live() {
		if ni.ID == "b" {
			genAtSubmit = ni.Gen
		}
	}
	if slotsAtSubmit != 4 || genAtSubmit == 0 {
		t.Fatalf("at submit: %d slots, b at gen %d; want 4 slots on two live nodes", slotsAtSubmit, genAtSubmit)
	}
	rejoined := make(chan struct{})
	var once sync.Once
	cancel := coord.Subscribe(func(ev cluster.NodeEvent) {
		if ev.Kind == cluster.EventUp && ev.Node.ID == "b" && ev.Node.Gen > genAtSubmit {
			once.Do(func() { close(rejoined) })
		}
	})
	defer cancel()

	specs := func(base int) []service.TaskSpec {
		out := make([]service.TaskSpec, phase)
		for i := range out {
			out[i] = service.TaskSpec{ID: base + i, SleepUS: sleepUS}
		}
		return out
	}
	pushed := make(chan error, 1)
	go func() {
		_, err := j.Push(specs(0))
		pushed <- err
	}()
	await := func(c <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-c:
		case <-time.After(30 * time.Second):
			t.Fatalf("timed out waiting for %s (status %+v)", what, j.Status())
		}
	}
	await(held.leased, "a lease of tasks on b")
	if err := coord.Evict("b"); err != nil {
		t.Fatal(err)
	}
	release()
	await(rejoined, "b to re-register")
	if err := <-pushed; err != nil {
		t.Fatal(err)
	}
	if _, err := j.Push(specs(phase)); err != nil {
		t.Fatal(err)
	}
	if err := j.CloseInput(); err != nil {
		t.Fatal(err)
	}
	await(j.Done(), "the job to drain")

	st, rep := j.Status(), j.Report()
	if st.Completed != 2*phase || st.Failures < 1 || st.Lost != 0 {
		t.Errorf("completed=%d failures=%d lost=%d, want %d completed, the held lease failed over, none lost",
			st.Completed, st.Failures, st.Lost, 2*phase)
	}
	if rep.WorkersAdded < 2 {
		t.Errorf("engine admitted %d workers, want b's 2 fresh slots", rep.WorkersAdded)
	}
	fresh := 0
	for w, n := range rep.TasksByWorker {
		if w >= slotsAtSubmit {
			fresh += n
		}
	}
	if fresh == 0 {
		t.Errorf("no executions on slots admitted after the eviction: %v", rep.TasksByWorker)
	}
	for _, nc := range st.Nodes {
		if nc.Node == "a" && nc.Completed == 0 {
			t.Errorf("the survivor completed nothing: %+v", st.Nodes)
		}
	}
	results, _ := j.Results(0)
	seen := make(map[int]bool, len(results))
	for _, r := range results {
		if seen[r.ID] || r.ID < 0 || r.ID >= 2*phase {
			t.Fatalf("task %d delivered twice or out of range", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seen) != 2*phase {
		t.Errorf("%d distinct results, want %d", len(seen), 2*phase)
	}
}

func TestClusterPlacementUnavailable(t *testing.T) {
	// No coordinator at all: placement must be refused as unavailable, not
	// silently run locally.
	s := service.New(service.Config{Workers: 2})
	if _, err := s.Submit("j", service.JobSpec{Placement: service.PlacementCluster}); !errors.Is(err, service.ErrNoCluster) {
		t.Errorf("no-coordinator err = %v, want ErrNoCluster", err)
	}

	// A coordinator with no live nodes is just as unavailable.
	coord := cluster.NewCoordinator(cluster.Config{})
	defer coord.Close()
	s2 := service.New(service.Config{Workers: 2, Cluster: coord})
	if _, err := s2.Submit("j", service.JobSpec{Placement: service.PlacementCluster}); !errors.Is(err, service.ErrNoCluster) {
		t.Errorf("no-nodes err = %v, want ErrNoCluster", err)
	}

	// And a bogus placement is a validation error.
	if _, err := s2.Submit("j", service.JobSpec{Placement: "mars"}); !errors.Is(err, service.ErrInvalid) {
		t.Errorf("bad placement err = %v, want ErrInvalid", err)
	}
}
