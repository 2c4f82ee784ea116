package cluster

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRestoreKeepsGenerationsMonotonic is the token-collision guard: a
// coordinator restored from journaled state must never mint a generation
// (or dispatch id) at or below the persisted ceiling — a recycled gen
// would make a pre-crash worker's stale credentials validate against a
// post-crash registration, corrupting the dedup machinery.
func TestRestoreKeepsGenerationsMonotonic(t *testing.T) {
	co := testCoordinator(t, time.Second)
	var mu sync.Mutex
	var last RegistryState
	co.SetPersist(func(st RegistryState) {
		mu.Lock()
		last = st
		mu.Unlock()
	})
	var maxGen int64
	for i := 0; i < 3; i++ {
		resp, err := co.Register(RegisterRequest{ID: "w", Capacity: 1})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Gen <= maxGen {
			t.Fatalf("gen %d not monotonic past %d", resp.Gen, maxGen)
		}
		maxGen = resp.Gen
	}
	mu.Lock()
	persisted := last
	mu.Unlock()
	if persisted.NextGen <= maxGen-genBlock {
		t.Fatalf("persisted ceiling %d does not cover handed-out gen %d", persisted.NextGen, maxGen)
	}

	// "Restart": a fresh coordinator restored from the journaled state.
	co2 := testCoordinator(t, time.Second)
	co2.Restore(persisted)
	resp, err := co2.Register(RegisterRequest{ID: "w", Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Gen <= maxGen {
		t.Fatalf("post-restore gen %d collides with pre-crash gen %d", resp.Gen, maxGen)
	}
	// The restored registration seed is listed (dead) until superseded.
	found := false
	for _, ni := range co2.Nodes() {
		if ni.ID == "w" && ni.State == StateLive && ni.Gen == resp.Gen {
			found = true
		}
	}
	if !found {
		t.Fatalf("re-registration did not supersede the restored seed: %+v", co2.Nodes())
	}
}

// TestMembershipIsNotJournaled: registrations and deaths move no ceiling,
// so they persist nothing. Three registrations and three evictions reach
// the sink twice — once when it is installed, once for the first block of
// generations — and what reaches it is the two ceilings alone.
func TestMembershipIsNotJournaled(t *testing.T) {
	co := testCoordinator(t, time.Second)
	var mu sync.Mutex
	var persisted []RegistryState
	co.SetPersist(func(st RegistryState) {
		mu.Lock()
		persisted = append(persisted, st)
		mu.Unlock()
	})
	for _, id := range []string{"a", "b", "c"} {
		if _, err := co.Register(RegisterRequest{ID: id, Capacity: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := co.Evict(id); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(persisted) != 2 {
		t.Fatalf("3 registrations and 3 evictions persisted %d times, want 2: %+v", len(persisted), persisted)
	}
	if last := persisted[1]; last.NextGen != genBlock {
		t.Errorf("persisted generation ceiling %d, want one block (%d)", last.NextGen, genBlock)
	}
	for _, st := range persisted {
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]any
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		if len(fields) != 2 {
			t.Errorf("persisted state %s carries more than the two ceilings", raw)
		}
	}
}

// TestRestoreDispatchIDsMonotonic: dispatch ids after a restore must sit
// above every id the dead process could have handed out.
func TestRestoreDispatchIDsMonotonic(t *testing.T) {
	co := testCoordinator(t, time.Second)
	var mu sync.Mutex
	var last RegistryState
	co.SetPersist(func(st RegistryState) {
		mu.Lock()
		last = st
		mu.Unlock()
	})
	resp, err := co.Register(RegisterRequest{ID: "w", Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	done, err := submitOne(co, "w", resp.Gen, 1, Work{})
	if err != nil {
		t.Fatal(err)
	}
	_ = done
	lease, err := co.Lease(LeaseRequest{ID: "w", Gen: resp.Gen, Max: 1, WaitMS: 50})
	if err != nil || len(lease.Tasks) != 1 {
		t.Fatalf("lease: %v %+v", err, lease)
	}
	preCrashDispatch := lease.Tasks[0].Dispatch
	mu.Lock()
	persisted := last
	mu.Unlock()
	if persisted.NextDispatch <= preCrashDispatch-dispatchBlock {
		t.Fatalf("ceiling %d does not cover dispatch %d", persisted.NextDispatch, preCrashDispatch)
	}

	co2 := testCoordinator(t, time.Second)
	co2.Restore(persisted)
	resp2, err := co2.Register(RegisterRequest{ID: "w", Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submitOne(co2, "w", resp2.Gen, 2, Work{}); err != nil {
		t.Fatal(err)
	}
	lease2, err := co2.Lease(LeaseRequest{ID: "w", Gen: resp2.Gen, Max: 1, WaitMS: 50})
	if err != nil || len(lease2.Tasks) != 1 {
		t.Fatalf("lease: %v %+v", err, lease2)
	}
	if lease2.Tasks[0].Dispatch <= preCrashDispatch {
		t.Fatalf("post-restore dispatch %d collides with pre-crash dispatch %d",
			lease2.Tasks[0].Dispatch, preCrashDispatch)
	}
}

// TestRestoreIsAFloorNotAReset: restoring older state onto a coordinator
// that has already advanced must not move its counters backwards.
func TestRestoreIsAFloorNotAReset(t *testing.T) {
	co := testCoordinator(t, time.Second)
	resp, err := co.Register(RegisterRequest{ID: "w", Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	co.Restore(RegistryState{NextGen: 0, NextDispatch: 0})
	resp2, err := co.Register(RegisterRequest{ID: "w2", Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Gen <= resp.Gen {
		t.Fatalf("stale restore moved gens backwards: %d then %d", resp.Gen, resp2.Gen)
	}
}

// TestRecoveryPruneMetricsRace is the race-mode regression test for the
// sweep satellite: dead-registration pruning used to race Lease/Results
// metric writes performed after releasing co.mu — a write that looked up
// the node pre-prune could land post-prune and resurrect the deleted
// series. With the floor's retention and continuous traffic the two paths
// interleave; under -race this doubles as a data-race probe,
// and the final check asserts no pruned node's series leaked back.
func TestRecoveryPruneMetricsRace(t *testing.T) {
	// The floor: sweeps every 750µs, death after 3ms of silence, pruning
	// once 60ms have passed since the last contact.
	co := NewCoordinator(Config{DeadAfter: 3 * time.Millisecond})
	t.Cleanup(co.Close)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := co.Register(RegisterRequest{ID: "racer", Capacity: 1})
				if err != nil {
					continue
				}
				// Drive the racy paths: a submit feeds a lease (gauge write)
				// and a result post (counter + gauge writes), while the
				// sweeper expires and prunes this registration underneath.
				if _, err := submitOne(co, "racer", resp.Gen, 1, Work{}); err != nil {
					continue
				}
				lease, err := co.Lease(LeaseRequest{ID: "racer", Gen: resp.Gen, Max: 4, WaitMS: 1})
				if err != nil {
					continue
				}
				for _, wt := range lease.Tasks {
					co.Results(ResultsRequest{ID: "racer", Gen: resp.Gen, Results: []WireResult{
						{Dispatch: wt.Dispatch, Task: wt.Task, Micros: 1},
					}})
				}
			}
		}()
	}
	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Quiesce: everything dies and every registration outlives retention,
	// so the sweep (idempotent — re-sweeping an empty registry is a no-op)
	// must leave zero per-node series behind.
	deadline := time.Now().Add(5 * time.Second)
	for len(co.Nodes()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("registrations never pruned: %+v", co.Nodes())
		}
		time.Sleep(10 * time.Millisecond)
	}
	for name := range co.Metrics().Snapshot() {
		if strings.HasPrefix(name, "cluster_node_") {
			t.Errorf("per-node series %q survived pruning", name)
		}
	}
}
