package engine_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"grasp/internal/monitor"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/skel/engine"
	"grasp/internal/skel/farm"
)

func TestFaultsRetireIdempotentAndLive(t *testing.T) {
	var f engine.Faults
	if !f.Alive(2) {
		t.Error("fresh Faults must report workers alive")
	}
	if !f.Retire(2) {
		t.Error("first Retire must report the detection")
	}
	if f.Retire(2) {
		t.Error("second Retire must be a no-op")
	}
	if f.Alive(2) {
		t.Error("retired worker still alive")
	}
	if len(f.Dead) != 1 || f.Dead[0] != 2 {
		t.Errorf("Dead = %v", f.Dead)
	}
}

// crashyPlatform is a real-runtime platform where one worker starts
// failing permanently after a few executions while the others keep
// serving slow tasks — slow enough that the detector is breaching (and
// recalibrating) concurrently with the failure path. Exec is called from
// one goroutine per worker, so the failure counter is atomic.
type crashyPlatform struct {
	l          *rt.Local
	n          int
	failWorker int
	failAfter  int32
	execs      atomic.Int32
	sleep      time.Duration
}

var errCrashed = errors.New("crashy: worker lost")

func (p *crashyPlatform) Runtime() rt.Runtime     { return p.l }
func (p *crashyPlatform) Size() int               { return p.n }
func (p *crashyPlatform) WorkerName(i int) string { return string(rune('A' + i)) }

func (p *crashyPlatform) Exec(c rt.Ctx, i int, t platform.Task) platform.Result {
	start := c.Now()
	if i == p.failWorker && p.execs.Add(1) > p.failAfter {
		return platform.Result{Task: t, Worker: i, Start: start, Err: errCrashed}
	}
	time.Sleep(p.sleep)
	return platform.Result{Task: t, Worker: i, Value: t.ID, Time: c.Now() - start, Start: start}
}

func (p *crashyPlatform) LoadSensor(int) monitor.Sensor {
	return monitor.FuncSensor(func() float64 { return 0 })
}
func (p *crashyPlatform) BandwidthSensor(int) monitor.Sensor {
	return monitor.FuncSensor(func() float64 { return 0 })
}

// TestFaultsRetireReassignUnderConcurrentBreachAndFailure drives the
// engine's Faults path while the detector is breaching on every window:
// worker 0 crashes mid-stream, its tasks must be re-queued onto live
// workers (exactly once each), and the concurrent recalibrations must
// neither resurrect the dead worker nor lose a task. Run under -race this
// also pins down that retire/reassign and breach handling share the
// coordinator safely.
func TestFaultsRetireReassignUnderConcurrentBreachAndFailure(t *testing.T) {
	const tasks = 60
	l := rt.NewLocal()
	pf := &crashyPlatform{l: l, n: 3, failWorker: 0, failAfter: 2, sleep: time.Millisecond}
	in := l.NewChan("in", 4)
	l.Go("producer", func(c rt.Ctx) {
		for i := 0; i < tasks; i++ {
			in.Send(c, platform.Task{ID: i, Cost: 1})
		}
		in.Close(c)
	})
	var rep engine.StreamReport
	l.Go("root", func(c rt.Ctx) {
		rep = farm.Stream(nil)(pf, c, in, engine.StreamOptions{
			Window: 6,
			Detector: &monitor.Detector{
				// Z far below the 1ms task time: every full window breaches,
				// so recalibration runs concurrently with the crash handling.
				Z: 100 * time.Microsecond, Rule: monitor.RuleMinOver,
				Window: 3, MinSamples: 3,
			},
		})
	})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}

	if len(rep.Results) != tasks {
		t.Fatalf("completed %d of %d (reassignment lost tasks)", len(rep.Results), tasks)
	}
	seen := make(map[int]int)
	for _, r := range rep.Results {
		seen[r.Task.ID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("task %d completed %d times", id, n)
		}
	}
	if len(rep.DeadWorkers) != 1 || rep.DeadWorkers[0] != 0 {
		t.Errorf("DeadWorkers = %v, want [0]", rep.DeadWorkers)
	}
	if rep.Failures == 0 {
		t.Error("expected failures from the crashed worker")
	}
	if rep.Breaches == 0 {
		t.Error("detector never breached; the scenario must exercise breach+failure concurrently")
	}
	if rep.TasksByWorker[0] > int(pf.failAfter) {
		t.Errorf("dead worker kept completing: %v", rep.TasksByWorker)
	}
	// Recalibrated weights must exclude the dead worker from future
	// dispatch: everything after the crash lands on workers 1 and 2.
	if rep.TasksByWorker[1]+rep.TasksByWorker[2] != tasks-rep.TasksByWorker[0] {
		t.Errorf("task accounting inconsistent: %v", rep.TasksByWorker)
	}
}
