package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"grasp/internal/platform"
)

// submitOne queues the chunk of one — task id carrying work w — and
// returns the sink its single outcome arrives on.
func submitOne(co *Coordinator, id string, gen int64, task int, w Work) (<-chan dispatchOutcome, error) {
	ch, err := co.submit(id, gen, []platform.Task{{ID: task, Data: w}})
	if err != nil {
		return nil, err
	}
	return ch.sink, nil
}

// testCoordinator builds a coordinator with fast death detection for tests.
func testCoordinator(t *testing.T, deadAfter time.Duration) *Coordinator {
	t.Helper()
	co := NewCoordinator(Config{DeadAfter: deadAfter})
	t.Cleanup(co.Close)
	return co
}

func TestRegisterLeaseResults(t *testing.T) {
	co := testCoordinator(t, time.Second)
	reg, err := co.Register(RegisterRequest{ID: "n1", Capacity: 2, SpeedOPS: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Gen == 0 || reg.HeartbeatMS <= 0 {
		t.Fatalf("register response %+v", reg)
	}

	done, err := submitOne(co, "n1", reg.Gen, 7, Work{Spin: 10})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := co.Lease(LeaseRequest{ID: "n1", Gen: reg.Gen, Max: 4, WaitMS: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(lease.Tasks) != 1 || lease.Tasks[0].Task != 7 || lease.Tasks[0].Spin != 10 {
		t.Fatalf("lease = %+v", lease)
	}
	if err := co.Results(ResultsRequest{ID: "n1", Gen: reg.Gen, Results: []WireResult{
		{Dispatch: lease.Tasks[0].Dispatch, Task: 7, Micros: 42},
	}}); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-done:
		if out.err != nil || out.micros != 42 {
			t.Fatalf("outcome = %+v", out)
		}
	case <-time.After(time.Second):
		t.Fatal("result never resolved")
	}
	nodes := co.Live()
	if len(nodes) != 1 || nodes[0].Completed != 1 || nodes[0].InFlight != 0 {
		t.Fatalf("nodes = %+v", nodes)
	}
}

func TestLeaseLongPollPicksUpLateSubmit(t *testing.T) {
	co := testCoordinator(t, time.Second)
	reg, _ := co.Register(RegisterRequest{ID: "n1", Capacity: 1})
	go func() {
		time.Sleep(20 * time.Millisecond)
		submitOne(co, "n1", reg.Gen, 1, Work{})
	}()
	lease, err := co.Lease(LeaseRequest{ID: "n1", Gen: reg.Gen, Max: 1, WaitMS: 150})
	if err != nil {
		t.Fatal(err)
	}
	if len(lease.Tasks) != 1 {
		t.Fatalf("long-poll lease returned %d tasks", len(lease.Tasks))
	}
}

func TestMissedHeartbeatsFailInflightAndQueued(t *testing.T) {
	co := testCoordinator(t, 80*time.Millisecond)
	reg, _ := co.Register(RegisterRequest{ID: "n1", Capacity: 1})
	inflight, _ := submitOne(co, "n1", reg.Gen, 1, Work{})
	if _, err := co.Lease(LeaseRequest{ID: "n1", Gen: reg.Gen, Max: 1, WaitMS: 10}); err != nil {
		t.Fatal(err)
	}
	queued, _ := submitOne(co, "n1", reg.Gen, 2, Work{})

	// No heartbeats: both dispatches must fail over within the bound.
	for name, ch := range map[string]<-chan dispatchOutcome{"inflight": inflight, "queued": queued} {
		select {
		case out := <-ch:
			if !errors.Is(out.err, ErrNodeLost) {
				t.Errorf("%s outcome err = %v, want ErrNodeLost", name, out.err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s dispatch never failed over", name)
		}
	}
	if live := co.Live(); len(live) != 0 {
		t.Errorf("dead node still listed live: %+v", live)
	}
	// Dispatches to the dead registration are refused outright.
	if _, err := submitOne(co, "n1", reg.Gen, 3, Work{}); !errors.Is(err, ErrGone) {
		t.Errorf("submit to dead node err = %v, want ErrGone", err)
	}
}

func TestLateResultAfterDeathIsDeduped(t *testing.T) {
	co := testCoordinator(t, time.Hour) // no sweeping; eviction is explicit
	reg, _ := co.Register(RegisterRequest{ID: "n1", Capacity: 1})
	done, _ := submitOne(co, "n1", reg.Gen, 9, Work{})
	lease, _ := co.Lease(LeaseRequest{ID: "n1", Gen: reg.Gen, Max: 1, WaitMS: 10})
	if err := co.Evict("n1"); err != nil {
		t.Fatal(err)
	}
	out := <-done
	if !errors.Is(out.err, ErrNodeLost) {
		t.Fatalf("evicted dispatch err = %v", out.err)
	}
	// The zombie posts its result after eviction: dropped, 410-classed.
	err := co.Results(ResultsRequest{ID: "n1", Gen: reg.Gen, Results: []WireResult{
		{Dispatch: lease.Tasks[0].Dispatch, Task: 9, Micros: 5},
	}})
	if !errors.Is(err, ErrGone) {
		t.Fatalf("late result err = %v, want ErrGone", err)
	}
	if got := co.Metrics().Counter("cluster_results_dropped_total").Value(); got != 1 {
		t.Errorf("cluster_results_dropped_total = %d, want 1", got)
	}
}

func TestReRegistrationSupersedesOldGeneration(t *testing.T) {
	co := testCoordinator(t, time.Hour)
	reg1, _ := co.Register(RegisterRequest{ID: "n1", Capacity: 1})
	done, _ := submitOne(co, "n1", reg1.Gen, 1, Work{})
	reg2, _ := co.Register(RegisterRequest{ID: "n1", Capacity: 1})
	if reg2.Gen == reg1.Gen {
		t.Fatal("re-registration reused the generation")
	}
	// The superseded incarnation's work failed over...
	if out := <-done; !errors.Is(out.err, ErrNodeLost) {
		t.Fatalf("superseded dispatch err = %v", out.err)
	}
	// ...and its credentials no longer lease.
	if _, err := co.Lease(LeaseRequest{ID: "n1", Gen: reg1.Gen, Max: 1, WaitMS: 10}); !errors.Is(err, ErrGone) {
		t.Fatalf("old-gen lease err = %v, want ErrGone", err)
	}
	if _, err := co.Lease(LeaseRequest{ID: "n1", Gen: reg2.Gen, Max: 1, WaitMS: 10}); err != nil {
		t.Fatalf("new-gen lease err = %v", err)
	}
}

func TestGracefulLeaveFailsOverImmediately(t *testing.T) {
	co := testCoordinator(t, time.Hour)
	reg, _ := co.Register(RegisterRequest{ID: "n1", Capacity: 1})
	done, _ := submitOne(co, "n1", reg.Gen, 1, Work{})
	if err := co.Leave(LeaveRequest{ID: "n1", Gen: reg.Gen}); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-done:
		if !errors.Is(out.err, ErrNodeLost) {
			t.Fatalf("left dispatch err = %v", out.err)
		}
	case <-time.After(time.Second):
		t.Fatal("leave did not fail over queued work")
	}
	nodes := co.Nodes()
	if len(nodes) != 1 || nodes[0].State != StateLeft {
		t.Fatalf("nodes = %+v", nodes)
	}
}

func TestExpiredLeaseIsRedeliveredOnLiveNode(t *testing.T) {
	co := NewCoordinator(Config{
		DeadAfter: time.Second, // heartbeats keep the node live; sweeps every 250ms
		leaseTTL:  80 * time.Millisecond,
	})
	t.Cleanup(co.Close)
	reg, _ := co.Register(RegisterRequest{ID: "n1", Capacity: 1})
	done, _ := submitOne(co, "n1", reg.Gen, 5, Work{Spin: 1})
	first, err := co.Lease(LeaseRequest{ID: "n1", Gen: reg.Gen, Max: 1, WaitMS: 10})
	if err != nil || len(first.Tasks) != 1 {
		t.Fatalf("first lease = %+v err %v", first, err)
	}
	// The lease response is "lost": the worker never posts a result but
	// stays alive. The sweeper must requeue past the TTL and a later lease
	// must redeliver the same dispatch.
	var second LeaseResponse
	deadline := time.Now().Add(2 * time.Second)
	for {
		co.Heartbeat(HeartbeatRequest{ID: "n1", Gen: reg.Gen})
		second, err = co.Lease(LeaseRequest{ID: "n1", Gen: reg.Gen, Max: 1, WaitMS: 50})
		if err != nil {
			t.Fatal(err)
		}
		if len(second.Tasks) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired lease never redelivered")
		}
	}
	if second.Tasks[0].Dispatch != first.Tasks[0].Dispatch || second.Tasks[0].Task != 5 {
		t.Fatalf("redelivery = %+v, want the original dispatch", second.Tasks[0])
	}
	// A late result from the original delivery would now be a duplicate of
	// the redelivered one; posting once resolves the task exactly once.
	if err := co.Results(ResultsRequest{ID: "n1", Gen: reg.Gen, Results: []WireResult{
		{Dispatch: second.Tasks[0].Dispatch, Task: 5, Micros: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("outcome = %+v", out)
		}
	case <-time.After(time.Second):
		t.Fatal("redelivered dispatch never resolved")
	}
	if got := co.Metrics().Counter("cluster_leases_expired_total").Value(); got < 1 {
		t.Errorf("cluster_leases_expired_total = %d, want >= 1", got)
	}
}

func TestDeadRegistrationsArePruned(t *testing.T) {
	// Sweeps every 10ms, declares the node dead after 40ms of silence and
	// prunes it once 800ms have passed since its last contact.
	co := NewCoordinator(Config{DeadAfter: 40 * time.Millisecond})
	t.Cleanup(co.Close)
	co.Register(RegisterRequest{ID: "churn-1", Capacity: 1})
	// Let it die and then outlive the retention.
	deadline := time.Now().Add(3 * time.Second)
	for len(co.Nodes()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("dead registration never pruned: %+v", co.Nodes())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, ok := co.Metrics().Snapshot()["cluster_node_inflight_churn_1"]; ok {
		t.Error("pruned node's metric series still registered")
	}
	if got := co.Metrics().Counter("cluster_nodes_pruned_total").Value(); got != 1 {
		t.Errorf("cluster_nodes_pruned_total = %d, want 1", got)
	}
}

func TestEncodeWork(t *testing.T) {
	if w := EncodeWork(0, Work{SleepUS: 5}); w.SleepUS != 5 {
		t.Errorf("explicit Work not passed through: %+v", w)
	}
	if w := EncodeWork(0, carrier{}); w.Spin != 11 {
		t.Errorf("WorkCarrier not used: %+v", w)
	}
	// The probe convention: Cost is a spin count.
	if w := EncodeWork(5000, nil); w.Spin != 5000 || w.Cost != 5000 {
		t.Errorf("cost fallback = %+v", w)
	}
}

type carrier struct{}

func (carrier) ClusterWork() Work { return Work{Spin: 11} }

// TestLeaseCapsAtMaxBatch: a one-slot node's capacity share is everything
// queued, yet one lease hands out at most 64 tasks (maxBatch), whether the
// worker sets no cap (Max 0) or asks for more (Max 1000).
func TestLeaseCapsAtMaxBatch(t *testing.T) {
	for _, max := range []int{0, 1000} {
		co := NewCoordinator(Config{DeadAfter: time.Hour})
		reg, err := co.Register(RegisterRequest{ID: "n", Capacity: 1})
		if err != nil {
			t.Fatal(err)
		}
		tasks := make([]platform.Task, 200)
		for i := range tasks {
			tasks[i] = platform.Task{ID: i, Data: Work{Spin: 1}}
		}
		if _, err := co.submit("n", reg.Gen, tasks); err != nil {
			t.Fatal(err)
		}
		var sizes []int
		for total := 0; total < len(tasks); {
			got, err := co.LeaseAppend(LeaseRequest{ID: "n", Gen: reg.Gen, Max: max, WaitMS: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 {
				t.Fatalf("Max %d: empty lease after %v with %d queued", max, sizes, len(tasks)-total)
			}
			sizes = append(sizes, len(got))
			total += len(got)
		}
		if fmt.Sprint(sizes) != "[64 64 64 8]" {
			t.Errorf("Max %d: lease sizes %v, want [64 64 64 8]", max, sizes)
		}
		co.Close()
	}
}

// TestDeadAfterFloor: a coordinator advertises a heartbeat of DeadAfter/3
// in whole milliseconds, so below 3ms workers are told to beat never and
// fall back to once a second while the sweep declares every node dead, and
// below 4ns the sweep's ticker panics. CheckDeadAfter refuses each such
// value, and a negative one, with an error that names it; NewCoordinator
// panics with that error rather than start a sweep that would, and reads
// a zero DeadAfter as the 3s default.
func TestDeadAfterFloor(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want bool
	}{
		{3 * time.Millisecond, true},
		{3 * time.Second, true},
		{2999 * time.Microsecond, false},
		{time.Millisecond, false},
		{2 * time.Nanosecond, false},
		{0, false},
		{-time.Second, false},
	} {
		err := CheckDeadAfter(tc.d)
		switch {
		case (err == nil) != tc.want:
			t.Errorf("CheckDeadAfter(%v) = %v, want accepted %v", tc.d, err, tc.want)
		case err != nil && !strings.Contains(err.Error(), tc.d.String()):
			t.Errorf("CheckDeadAfter(%v) = %q, want an error naming the value", tc.d, err)
		}
	}

	func() {
		want := CheckDeadAfter(2 * time.Nanosecond)
		defer func() {
			if r := recover(); r == nil || fmt.Sprint(r) != want.Error() {
				t.Errorf("NewCoordinator(DeadAfter 2ns) panicked with %v, want %q", r, want)
			}
		}()
		NewCoordinator(Config{DeadAfter: 2 * time.Nanosecond}).Close()
	}()

	co := NewCoordinator(Config{})
	defer co.Close()
	if co.cfg.DeadAfter != 3*time.Second {
		t.Errorf("Config{} resolves DeadAfter to %v, want 3s", co.cfg.DeadAfter)
	}
}
