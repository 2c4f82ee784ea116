package farm

import (
	"sync/atomic"
	"testing"
	"time"

	"grasp/internal/grid"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/trace"
)

func TestFarmExternalStopPredicate(t *testing.T) {
	// Stop after the 10th completion: the farm must halt dispatch, report
	// a breach, and return the tail untouched.
	pf, sim := gridPF(t, []grid.NodeSpec{{BaseSpeed: 10}, {BaseSpeed: 10}})
	done := 0
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedTasks(100, 1), Options{
			OnResult: func(platform.Result) { done++ },
			Stop:     func() bool { return done >= 10 },
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !rep.Breached {
		t.Error("external stop must surface as a breach")
	}
	if len(rep.Remaining) == 0 {
		t.Error("stopping early must leave remaining tasks")
	}
	if len(rep.Results)+len(rep.Remaining) != 100 {
		t.Errorf("results %d + remaining %d != 100", len(rep.Results), len(rep.Remaining))
	}
	if len(rep.Results) >= 100 {
		t.Errorf("stop ignored: %d results", len(rep.Results))
	}
}

func TestFarmStopNeverFiringIsClean(t *testing.T) {
	pf, sim := gridPF(t, []grid.NodeSpec{{BaseSpeed: 10}})
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedTasks(20, 1), Options{Stop: func() bool { return false }})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Breached || len(rep.Results) != 20 {
		t.Errorf("quiet stop predicate changed behaviour: %+v", rep)
	}
}

func TestFarmStopLogsThresholdEvent(t *testing.T) {
	pf, sim := gridPF(t, []grid.NodeSpec{{BaseSpeed: 10}})
	log := trace.New()
	n := 0
	sim.Go("root", func(c rt.Ctx) {
		Run(pf, c, fixedTasks(20, 1), Options{
			OnResult: func(platform.Result) { n++ },
			Stop:     func() bool { return n >= 5 },
			Log:      log,
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range log.Events() {
		if e.Kind == trace.KindThreshold {
			found = true
		}
	}
	if !found {
		t.Error("external stop should log a threshold event")
	}
}

func TestFarmStopPredicateOnLocalRuntime(t *testing.T) {
	// The stop predicate is polled by the farmer while real goroutine
	// workers execute and report concurrently; run under -race. Whatever
	// instant the stop lands, results and remaining partition the input.
	const n = 200
	l := rt.NewLocal()
	pf := platform.NewLocalPlatform(l, 4)
	var done atomic.Int64
	var rep Report
	l.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, sleepTasks(n, 50*time.Microsecond), Options{
			OnResult: func(platform.Result) { done.Add(1) },
			Stop:     func() bool { return done.Load() >= 20 },
		})
	})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if !rep.Breached || len(rep.Remaining) == 0 {
		t.Fatalf("stop ignored: breached=%v remaining=%d", rep.Breached, len(rep.Remaining))
	}
	seen := make(map[int]bool, n)
	for _, r := range rep.Results {
		seen[r.Task.ID] = true
	}
	for _, task := range rep.Remaining {
		if seen[task.ID] {
			t.Errorf("task %d both executed and remaining", task.ID)
		}
		seen[task.ID] = true
	}
	if len(rep.Results)+len(rep.Remaining) != n || len(seen) != n {
		t.Errorf("results %d + remaining %d cover %d of %d tasks",
			len(rep.Results), len(rep.Remaining), len(seen), n)
	}
}
