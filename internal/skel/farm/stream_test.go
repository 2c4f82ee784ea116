package farm

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grasp/internal/grid"
	"grasp/internal/monitor"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/sched"
	"grasp/internal/skel/engine"
)

// pushAll feeds tasks into in from its own process and closes it.
func pushAll(l *rt.Local, in rt.Chan, tasks []platform.Task) {
	l.Go("producer", func(c rt.Ctx) {
		for _, t := range tasks {
			in.Send(c, t)
		}
		in.Close(c)
	})
}

// localStream runs Stream(nil) on a fresh local platform and returns the
// report.
func localStream(t *testing.T, workers int, tasks []platform.Task, opts engine.StreamOptions) engine.StreamReport {
	t.Helper()
	l := rt.NewLocal()
	pf := platform.NewLocalPlatform(l, workers)
	in := l.NewChan("in", 1)
	pushAll(l, in, tasks)
	var rep engine.StreamReport
	l.Go("root", func(c rt.Ctx) {
		rep = Stream(nil)(pf, c, in, opts)
	})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	return rep
}

// sleepTasks builds n tasks whose closures sleep d and return their ID.
func sleepTasks(n int, d time.Duration) []platform.Task {
	tasks := make([]platform.Task, n)
	for i := range tasks {
		i := i
		tasks[i] = platform.Task{ID: i, Cost: 1, Fn: func() any {
			time.Sleep(d)
			return i
		}}
	}
	return tasks
}

// assertExactlyOnce fails unless results hold each of the n task IDs once.
func assertExactlyOnce(t *testing.T, results []platform.Result, n int) {
	t.Helper()
	seen := make(map[int]bool, n)
	for _, r := range results {
		if seen[r.Task.ID] {
			t.Fatalf("task %d completed twice", r.Task.ID)
		}
		seen[r.Task.ID] = true
	}
	if len(seen) != n {
		t.Fatalf("completed %d distinct tasks, want %d", len(seen), n)
	}
}

func TestStreamCompletesAndDrains(t *testing.T) {
	const n = 60
	rep := localStream(t, 4, sleepTasks(n, 100*time.Microsecond), engine.StreamOptions{Window: 8})
	if rep.Admitted != n {
		t.Errorf("admitted = %d, want %d", rep.Admitted, n)
	}
	assertExactlyOnce(t, rep.Results, n)
	if len(rep.Remaining) != 0 {
		t.Errorf("remaining = %d tasks on a clean drain", len(rep.Remaining))
	}
	if rep.Breached || rep.Recalibrations != 0 {
		t.Errorf("no detector configured, yet breached=%v recals=%d", rep.Breached, rep.Recalibrations)
	}
}

func TestStreamEmptyInput(t *testing.T) {
	rep := localStream(t, 3, nil, engine.StreamOptions{})
	if rep.Admitted != 0 || len(rep.Results) != 0 || len(rep.Remaining) != 0 {
		t.Errorf("empty stream produced %+v", rep)
	}
}

func TestStreamBackpressureBoundsInFlight(t *testing.T) {
	const window, n = 3, 50
	var executing, peak atomic.Int64
	tasks := make([]platform.Task, n)
	for i := range tasks {
		i := i
		tasks[i] = platform.Task{ID: i, Cost: 1, Fn: func() any {
			cur := executing.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			executing.Add(-1)
			return i
		}}
	}
	rep := localStream(t, 8, tasks, engine.StreamOptions{Window: window})
	assertExactlyOnce(t, rep.Results, n)
	if rep.MaxInFlight > window {
		t.Errorf("MaxInFlight = %d exceeds window %d", rep.MaxInFlight, window)
	}
	if rep.MaxInFlight == 0 {
		t.Error("MaxInFlight never observed")
	}
	if got := peak.Load(); got > window {
		t.Errorf("observed %d concurrently executing tasks, window %d", got, window)
	}
}

// countingChunk is sched.FixedChunk that also tallies what it handed out.
// The farmer calls it and runs OnResult, so the tallies need no lock there.
type countingChunk struct {
	sched.FixedChunk
	dispatched, long int // tasks handed out; chunks of more than one task
}

func (p *countingChunk) Chunk(remaining, workers int, weight float64) int {
	n := p.FixedChunk.Chunk(remaining, workers, weight)
	p.dispatched += n
	if n > 1 {
		p.long++
	}
	return n
}

// A slow consumer in the coordinator (in the service: the durable ack's
// fsync inside OnResult) must not stall execution inside the window: while
// OnResult blocks, every task already handed to a worker still runs, its
// result waiting in the inbox.
func TestStreamSlowConsumerDoesNotStallWorkers(t *testing.T) {
	const window = 64
	l := rt.NewLocal()
	pf := platform.NewLocalPlatform(l, 2)
	var calls atomic.Int64
	gate := make(chan struct{})
	tasks := make([]platform.Task, window)
	for i := range tasks {
		i := i
		tasks[i] = platform.Task{ID: i, Cost: 1, Fn: func() any {
			if i < 2 {
				// Hold the workers until the whole window is admitted, so
				// their next chunks are long ones.
				<-gate
			}
			calls.Add(1)
			return i
		}}
	}
	in := l.NewChan("in", 1)
	l.Go("producer", func(c rt.Ctx) {
		for _, task := range tasks {
			in.Send(c, task)
		}
		in.Close(c)
		close(gate)
	})
	policy := &countingChunk{FixedChunk: sched.FixedChunk{K: 16}}
	blocked := false
	l.Go("root", func(c rt.Ctx) {
		Stream(policy)(pf, c, in, engine.StreamOptions{Window: window, OnResult: func(platform.Result) {
			if blocked || policy.long < 2 {
				return
			}
			// Both workers hold a long chunk and the farmer is parked here,
			// dispatching nothing more: the calls reach the dispatched count
			// only if the workers run on without it.
			blocked = true
			deadline := time.Now().Add(2 * time.Second)
			for calls.Load() < int64(policy.dispatched) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := calls.Load(); got != int64(policy.dispatched) {
				t.Errorf("%d of %d dispatched tasks ran while the farmer was blocked in OnResult", got, policy.dispatched)
			}
		}})
	})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if !blocked {
		t.Fatal("OnResult never saw both workers on a long chunk")
	}
	if got := calls.Load(); got != window {
		t.Errorf("%d tasks ran, want %d", got, window)
	}
}

func TestStreamBreachRecalibratesMidStream(t *testing.T) {
	// Tasks double in duration halfway through the stream: the detector
	// must breach and the stream must recalibrate without losing work.
	const n = 40
	tasks := make([]platform.Task, n)
	for i := range tasks {
		i := i
		d := 100 * time.Microsecond
		if i >= n/2 {
			d = 2 * time.Millisecond
		}
		tasks[i] = platform.Task{ID: i, Cost: 1, Fn: func() any {
			time.Sleep(d)
			return i
		}}
	}
	det := &monitor.Detector{Z: 500 * time.Microsecond, Rule: monitor.RuleMinOver, Window: 3, MinSamples: 3}
	var breaches atomic.Int64
	rep := localStream(t, 3, tasks, engine.StreamOptions{
		Window:   6,
		Detector: det,
		OnRecalibrate: func(info engine.Breach) (engine.Update, bool) {
			breaches.Add(1)
			// Tolerate the new regime: raise Z so the stream settles.
			return engine.Update{Z: 100 * time.Millisecond}, true
		},
	})
	assertExactlyOnce(t, rep.Results, n)
	if rep.Breaches == 0 || breaches.Load() == 0 {
		t.Errorf("expected a mid-stream breach, got %d (callback saw %d)", rep.Breaches, breaches.Load())
	}
	if rep.Recalibrations == 0 {
		t.Error("breach did not recalibrate")
	}
	if det.Z != 100*time.Millisecond {
		t.Errorf("recalibration did not apply Z: %v", det.Z)
	}
	if len(rep.Remaining) != 0 {
		t.Errorf("remaining = %d after recalibrating stream", len(rep.Remaining))
	}
}

func TestStreamDefaultRecalibrationReweights(t *testing.T) {
	// No OnRecalibrate: the built-in fallback must reweight and continue.
	const n = 30
	tasks := sleepTasks(n, 300*time.Microsecond)
	det := &monitor.Detector{Z: 50 * time.Microsecond, Rule: monitor.RuleMinOver, Window: 2, MinSamples: 2}
	rep := localStream(t, 2, tasks, engine.StreamOptions{Window: 4, Detector: det})
	assertExactlyOnce(t, rep.Results, n)
	if rep.Breaches == 0 || rep.Recalibrations == 0 {
		t.Errorf("breaches=%d recals=%d, want both > 0", rep.Breaches, rep.Recalibrations)
	}
}

func TestStreamControlUpdateAppliesLive(t *testing.T) {
	const n = 50
	l := rt.NewLocal()
	pf := platform.NewLocalPlatform(l, 4)
	in := l.NewChan("in", 1)
	control := l.NewChan("control", 4)
	det := &monitor.Detector{Z: time.Hour, Rule: monitor.RuleMinOver}

	var mu sync.Mutex
	var got []platform.Result // a stream with a hook delivers through it alone
	completed := 0
	sent := false
	tasks := sleepTasks(n, 100*time.Microsecond)
	pushAll(l, in, tasks)
	var rep engine.StreamReport
	l.Go("root", func(c rt.Ctx) {
		rep = Stream(nil)(pf, c, in, engine.StreamOptions{
			Window:   8,
			Detector: det,
			Control:  control,
			OnResult: func(r platform.Result) {
				mu.Lock()
				defer mu.Unlock()
				got = append(got, r)
				completed++
				if completed == n/2 && !sent {
					sent = true
					control.TrySend(nil, engine.Update{Z: 42 * time.Millisecond, ResetDetector: true})
				}
			},
		})
	})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	assertExactlyOnce(t, got, n)
	if det.Z != 42*time.Millisecond {
		t.Errorf("control update not applied: Z = %v", det.Z)
	}
	if rep.Recalibrations == 0 {
		t.Error("control update not counted as a recalibration")
	}
}

// TestStreamWithHookRetainsNoResults: a live job's stream has no end, so a
// run whose consumer takes results through OnResult must not also keep
// every one of them in its report. The makespan no longer comes from that
// slice, so it must survive its absence.
func TestStreamWithHookRetainsNoResults(t *testing.T) {
	const n = 200_000
	tasks := make([]platform.Task, n)
	for i := range tasks {
		tasks[i] = platform.Task{ID: i, Cost: 1, Fn: func() any { return nil }}
	}
	seen := make([]bool, n) // written by the farmer process only
	calls, distinct := 0, 0
	rep := localStream(t, 2, tasks, engine.StreamOptions{
		Window: 64,
		OnResult: func(r platform.Result) {
			calls++
			if !seen[r.Task.ID] {
				seen[r.Task.ID] = true
				distinct++
			}
		},
	})
	if calls != n || distinct != n || rep.Admitted != n {
		t.Errorf("hook ran %d times over %d distinct tasks of %d admitted, want %d each", calls, distinct, rep.Admitted, n)
	}
	if len(rep.Results) != 0 || cap(rep.Results) != 0 {
		t.Errorf("report retained %d results (cap %d) next to the hook", len(rep.Results), cap(rep.Results))
	}
	if rep.Makespan <= 0 {
		t.Errorf("makespan = %v, want > 0", rep.Makespan)
	}
}

func TestStreamMatchesBatchProperty(t *testing.T) {
	// Property: for the same task set, the streaming farm completes exactly
	// the results the batch farm does (same ID→value mapping), regardless
	// of worker count and window size.
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 6; round++ {
		n := 1 + rng.Intn(80)
		workers := 1 + rng.Intn(6)
		window := 1 + rng.Intn(12)
		mk := func() []platform.Task {
			tasks := make([]platform.Task, n)
			for i := range tasks {
				i := i
				tasks[i] = platform.Task{ID: i, Cost: 1, Fn: func() any { return i * i }}
			}
			return tasks
		}

		lb := rt.NewLocal()
		pfb := platform.NewLocalPlatform(lb, workers)
		var batch Report
		lb.Go("root", func(c rt.Ctx) {
			batch = Run(pfb, c, mk(), Options{})
		})
		if err := lb.Run(); err != nil {
			t.Fatal(err)
		}

		stream := localStream(t, workers, mk(), engine.StreamOptions{Window: window})

		if len(stream.Results) != len(batch.Results) {
			t.Fatalf("round %d (n=%d w=%d win=%d): stream %d results, batch %d",
				round, n, workers, window, len(stream.Results), len(batch.Results))
		}
		want := make(map[int]any, n)
		for _, r := range batch.Results {
			want[r.Task.ID] = r.Value
		}
		for _, r := range stream.Results {
			v, ok := want[r.Task.ID]
			if !ok {
				t.Fatalf("round %d: stream produced unknown/duplicate task %d", round, r.Task.ID)
			}
			if v != r.Value {
				t.Fatalf("round %d: task %d value %v, batch %v", round, r.Task.ID, r.Value, v)
			}
			delete(want, r.Task.ID)
		}
		if len(want) != 0 {
			t.Fatalf("round %d: stream missed %d tasks", round, len(want))
		}
	}
}

func TestStreamOnSimulatedGrid(t *testing.T) {
	// The stream farm is substrate-portable: the same code runs on the
	// deterministic grid simulator, producer included.
	pf, sim := gridPF(t, []grid.NodeSpec{{BaseSpeed: 20}, {BaseSpeed: 10}, {BaseSpeed: 10}})
	in := sim.NewChan("in", 2)
	sim.Go("producer", func(c rt.Ctx) {
		for i := 0; i < 30; i++ {
			in.Send(c, platform.Task{ID: i, Cost: 5})
			c.Sleep(10 * time.Millisecond)
		}
		in.Close(c)
	})
	var rep engine.StreamReport
	sim.Go("root", func(c rt.Ctx) {
		rep = Stream(nil)(pf, c, in, engine.StreamOptions{Window: 4})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	assertExactlyOnce(t, rep.Results, 30)
	if rep.MaxInFlight > 4 {
		t.Errorf("MaxInFlight = %d exceeds window", rep.MaxInFlight)
	}
	if rep.Makespan <= 0 {
		t.Error("virtual makespan not measured")
	}
}
