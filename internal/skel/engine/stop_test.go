package engine_test

import (
	"testing"
	"time"

	"grasp/internal/grid"
	"grasp/internal/loadgen"
	"grasp/internal/monitor"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/skel/dmap"
	"grasp/internal/skel/engine"
	"grasp/internal/skel/farm"
	"grasp/internal/trace"
	"grasp/internal/vsim"
)

// TestBatchStopConservesTasks is the ModeStop contract internal/core
// relies on, checked for both batch entry points of the one coordinator
// loop: however the run stops — detector breach, the external stop
// predicate, a worker crashing after the stop while in-flight work drains
// — Results ⊎ Remaining is exactly the input, and nothing was dispatched
// twice except an execution that failed.
func TestBatchStopConservesTasks(t *testing.T) {
	const n = 60
	// Every node slows 10× at t=0.55s: 0.1s tasks become 1s tasks, far over
	// Z, so the run breaches with most of the population still queued.
	slowdown := func() loadgen.Trace { return loadgen.NewStep(550*time.Millisecond, 0, 0.9) }
	steady := []grid.NodeSpec{{BaseSpeed: 10}, {BaseSpeed: 10}, {BaseSpeed: 10}}
	degrading := []grid.NodeSpec{
		{BaseSpeed: 10, Load: slowdown()}, {BaseSpeed: 10, Load: slowdown()}, {BaseSpeed: 10, Load: slowdown()},
	}
	// Node 0 additionally dies at t=1.5s — after the breach (the first slow
	// completions land at ≈1.05s), while the chunk/block dispatched to it
	// before the breach is still executing.
	crashing := []grid.NodeSpec{
		{BaseSpeed: 10, Load: slowdown(), FailAt: 1500 * time.Millisecond},
		{BaseSpeed: 10, Load: slowdown()}, {BaseSpeed: 10, Load: slowdown()},
	}
	detector := func() *monitor.Detector {
		return &monitor.Detector{Z: 300 * time.Millisecond, Rule: monitor.RuleMinOver, Window: 3, MinSamples: 3}
	}
	farmRun := func(stopAfter int) func(platform.Platform, rt.Ctx, []platform.Task, *monitor.Detector, *trace.Log) engine.StreamReport {
		return func(pf platform.Platform, c rt.Ctx, tasks []platform.Task, det *monitor.Detector, log *trace.Log) engine.StreamReport {
			done := 0
			opts := farm.Options{Detector: det, Log: log, OnResult: func(platform.Result) { done++ }}
			if stopAfter > 0 {
				opts.Stop = func() bool { return done >= stopAfter }
			}
			return farm.Run(pf, c, tasks, opts)
		}
	}
	dmapRun := func(pf platform.Platform, c rt.Ctx, tasks []platform.Task, det *monitor.Detector, log *trace.Log) engine.StreamReport {
		return dmap.Run(pf, c, tasks, dmap.Options{Waves: 4, Detector: det, Log: log})
	}
	cases := []struct {
		name     string
		specs    []grid.NodeSpec
		det      *monitor.Detector
		run      func(platform.Platform, rt.Ctx, []platform.Task, *monitor.Detector, *trace.Log) engine.StreamReport
		failures bool
	}{
		{name: "farm/breach", specs: degrading, det: detector(), run: farmRun(0)},
		{name: "farm/stop-predicate", specs: steady, run: farmRun(10)},
		{name: "farm/crash-after-stop", specs: crashing, det: detector(), run: farmRun(0), failures: true},
		{name: "dmap/breach", specs: degrading, det: detector(), run: dmapRun},
		{name: "dmap/crash-after-stop", specs: crashing, det: detector(), run: dmapRun, failures: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := vsim.New()
			sim := rt.NewSim(env)
			g, err := grid.New(env, grid.Config{Nodes: tc.specs})
			if err != nil {
				t.Fatal(err)
			}
			pf := platform.NewGridPlatform(sim, g, 0, 1)
			tasks := make([]platform.Task, n)
			for i := range tasks {
				tasks[i] = platform.Task{ID: i, Cost: 1}
			}
			log := trace.New()
			var rep engine.StreamReport
			sim.Go("root", func(c rt.Ctx) { rep = tc.run(pf, c, tasks, tc.det, log) })
			if err := sim.Run(); err != nil {
				t.Fatal(err)
			}

			if !rep.Breached || len(rep.Remaining) == 0 {
				t.Fatalf("scenario must stop early: breached=%v remaining=%d", rep.Breached, len(rep.Remaining))
			}
			if tc.failures != (rep.Failures > 0) {
				t.Errorf("failures = %d, want >0: %v", rep.Failures, tc.failures)
			}
			seen := make(map[int]string, n)
			for _, r := range rep.Results {
				if where, dup := seen[r.Task.ID]; dup {
					t.Errorf("task %d in Results and already in %s", r.Task.ID, where)
				}
				seen[r.Task.ID] = "Results"
			}
			for _, task := range rep.Remaining {
				if where, dup := seen[task.ID]; dup {
					t.Errorf("task %d in Remaining and already in %s", task.ID, where)
				}
				seen[task.ID] = "Remaining"
			}
			if len(seen) != n {
				t.Errorf("Results ⊎ Remaining covers %d of %d tasks", len(seen), n)
			}
			// Every dispatch ended as a result or as a lost execution: no
			// task ran a second time without its first run having failed.
			if d := len(log.Filter(trace.KindDispatch)); d != len(rep.Results)+rep.Failures {
				t.Errorf("dispatches = %d, want results %d + failures %d", d, len(rep.Results), rep.Failures)
			}
		})
	}
}
