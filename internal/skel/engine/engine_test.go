package engine_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"grasp/internal/monitor"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/skel/dmap"
	"grasp/internal/skel/engine"
	"grasp/internal/skel/farm"
	"grasp/internal/skel/pipeline"
)

// adapter couples one skeleton's engine runner with a batch baseline that
// returns the set of completed task IDs — the two sides of the shared
// stream==batch property.
type adapter struct {
	name   string
	runner engine.Runner
	batch  func(t *testing.T, workers int, tasks []platform.Task) map[int]bool
}

// adapters lists every streaming skeleton under the engine contract.
func adapters() []adapter {
	return []adapter{
		{
			name:   "farm",
			runner: farm.Stream(nil),
			batch: func(t *testing.T, workers int, tasks []platform.Task) map[int]bool {
				l := rt.NewLocal()
				pf := platform.NewLocalPlatform(l, workers)
				var rep farm.Report
				l.Go("root", func(c rt.Ctx) { rep = farm.Run(pf, c, tasks, farm.Options{}) })
				if err := l.Run(); err != nil {
					t.Fatal(err)
				}
				return idSet(rep.Results)
			},
		},
		{
			name:   "dmap",
			runner: dmap.Stream,
			batch: func(t *testing.T, workers int, tasks []platform.Task) map[int]bool {
				l := rt.NewLocal()
				pf := platform.NewLocalPlatform(l, workers)
				var rep dmap.Report
				l.Go("root", func(c rt.Ctx) { rep = dmap.Run(pf, c, tasks, dmap.Options{Waves: 1}) })
				if err := l.Run(); err != nil {
					t.Fatal(err)
				}
				return idSet(rep.Results)
			},
		},
		{
			name:   "pipeline",
			runner: pipeline.Stream(pipeline.StreamParams{Stages: 3}),
			batch: func(t *testing.T, workers int, tasks []platform.Task) map[int]bool {
				// The batch pipeline pushes items 0..n-1 with no transform,
				// so the exiting values are the item IDs.
				l := rt.NewLocal()
				pf := platform.NewLocalPlatform(l, workers)
				stages := []pipeline.Stage{{Name: "a"}, {Name: "b"}, {Name: "c"}}
				var rep pipeline.Report
				l.Go("root", func(c rt.Ctx) {
					rep = pipeline.Run(pf, c, stages, len(tasks), pipeline.Options{})
				})
				if err := l.Run(); err != nil {
					t.Fatal(err)
				}
				ids := make(map[int]bool, rep.Items)
				for _, v := range rep.Outputs {
					ids[v.(int)] = true
				}
				return ids
			},
		},
	}
}

// idSet collects distinct task IDs, failing duplicates at the caller.
func idSet(results []platform.Result) map[int]bool {
	ids := make(map[int]bool, len(results))
	for _, r := range results {
		ids[r.Task.ID] = true
	}
	return ids
}

// runStream executes one adapter on a fresh local platform with a producer
// feeding tasks.
func runStream(t *testing.T, runner engine.Runner, workers int, tasks []platform.Task, opts engine.StreamOptions) engine.StreamReport {
	t.Helper()
	l := rt.NewLocal()
	pf := platform.NewLocalPlatform(l, workers)
	in := l.NewChan("in", 1)
	l.Go("producer", func(c rt.Ctx) {
		for _, task := range tasks {
			in.Send(c, task)
		}
		in.Close(c)
	})
	var rep engine.StreamReport
	l.Go("root", func(c rt.Ctx) {
		rep = runner(pf, c, in, opts)
	})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	return rep
}

// fnTasks builds n tasks returning their ID with a small sleep.
func fnTasks(n int, d time.Duration) []platform.Task {
	tasks := make([]platform.Task, n)
	for i := range tasks {
		i := i
		tasks[i] = platform.Task{ID: i, Cost: 1, Fn: func() any {
			if d > 0 {
				time.Sleep(d)
			}
			return i
		}}
	}
	return tasks
}

// TestStreamMatchesBatchEverySkeleton is the shared engine-contract
// property: for the same task set, every skeleton's streaming adapter
// completes exactly the tasks its batch form does — exactly once, within
// the admission window, with nothing remaining.
func TestStreamMatchesBatchEverySkeleton(t *testing.T) {
	const n, workers, window = 40, 4, 6
	for _, ad := range adapters() {
		ad := ad
		t.Run(ad.name, func(t *testing.T) {
			rep := runStream(t, ad.runner, workers, fnTasks(n, 50*time.Microsecond),
				engine.StreamOptions{Window: window})

			if rep.Admitted != n {
				t.Errorf("admitted = %d, want %d", rep.Admitted, n)
			}
			if len(rep.Results) != n {
				t.Errorf("results = %d, want %d", len(rep.Results), n)
			}
			seen := make(map[int]bool, n)
			for _, r := range rep.Results {
				if seen[r.Task.ID] {
					t.Errorf("task %d completed twice", r.Task.ID)
				}
				seen[r.Task.ID] = true
			}
			if len(rep.Remaining) != 0 {
				t.Errorf("remaining = %d on a clean drain", len(rep.Remaining))
			}
			if rep.MaxInFlight == 0 || rep.MaxInFlight > window {
				t.Errorf("MaxInFlight = %d, want in (0, %d]", rep.MaxInFlight, window)
			}
			if rep.Breached || rep.Recalibrations != 0 {
				t.Errorf("no detector, yet breached=%v recals=%d", rep.Breached, rep.Recalibrations)
			}

			batch := ad.batch(t, workers, fnTasks(n, 50*time.Microsecond))
			if len(batch) != len(seen) {
				t.Fatalf("stream completed %d distinct tasks, batch %d", len(seen), len(batch))
			}
			for id := range batch {
				if !seen[id] {
					t.Errorf("batch completed task %d, stream did not", id)
				}
			}
		})
	}
}

// TestBreachRecalibratesInPlaceEverySkeleton drives each adapter with a
// stream that slows down sharply mid-flight: the one shared detector rule
// must breach and the adapter must recalibrate in place — reweighting for
// farm/dmap, remapping/swapping for the pipeline — without losing a task.
func TestBreachRecalibratesInPlaceEverySkeleton(t *testing.T) {
	const n = 40
	for _, ad := range adapters() {
		ad := ad
		t.Run(ad.name, func(t *testing.T) {
			tasks := make([]platform.Task, n)
			for i := range tasks {
				i := i
				d := 100 * time.Microsecond
				if i >= n/2 {
					d = 3 * time.Millisecond
				}
				tasks[i] = platform.Task{ID: i, Cost: 1, Fn: func() any {
					time.Sleep(d)
					return i
				}}
			}
			det := &monitor.Detector{
				Z: 700 * time.Microsecond, Rule: monitor.RuleMinOver,
				Window: 3, MinSamples: 3,
			}
			rep := runStream(t, ad.runner, 3, tasks, engine.StreamOptions{
				Window:   6,
				Detector: det,
			})
			if len(rep.Results) != n {
				t.Errorf("results = %d, want %d", len(rep.Results), n)
			}
			if rep.Breaches == 0 {
				t.Error("detector never breached on a 30× slowdown")
			}
			if rep.Recalibrations == 0 {
				t.Error("breach did not recalibrate in place")
			}
			if len(rep.Remaining) != 0 {
				t.Errorf("remaining = %d after recalibrating stream", len(rep.Remaining))
			}
		})
	}
}

// TestControlUpdateAppliesEverySkeleton verifies the shared control-channel
// path: an externally injected Update (the service's live threshold
// install) reaches the detector in every adapter.
func TestControlUpdateAppliesEverySkeleton(t *testing.T) {
	const n = 30
	for _, ad := range adapters() {
		ad := ad
		t.Run(ad.name, func(t *testing.T) {
			l := rt.NewLocal()
			pf := platform.NewLocalPlatform(l, 3)
			in := l.NewChan("in", 1)
			control := l.NewChan("control", 4)
			det := &monitor.Detector{Z: time.Hour, Rule: monitor.RuleMinOver}
			control.TrySend(nil, engine.Update{Z: 42 * time.Millisecond, ResetDetector: true})
			l.Go("producer", func(c rt.Ctx) {
				for _, task := range fnTasks(n, 50*time.Microsecond) {
					in.Send(c, task)
				}
				in.Close(c)
			})
			var rep engine.StreamReport
			l.Go("root", func(c rt.Ctx) {
				rep = ad.runner(pf, c, in, engine.StreamOptions{
					Window: 4, Detector: det, Control: control,
				})
			})
			if err := l.Run(); err != nil {
				t.Fatal(err)
			}
			if det.Z != 42*time.Millisecond {
				t.Errorf("control update not applied: Z = %v", det.Z)
			}
			if rep.Recalibrations == 0 {
				t.Error("control update not counted as a recalibration")
			}
			if len(rep.Results) != n {
				t.Errorf("results = %d, want %d", len(rep.Results), n)
			}
		})
	}
}

// degradedTasks builds n tasks whose sleeps follow a seeded-random
// degradation schedule: a jittered base, then — from a seeded onset — a
// ramp that grows with every task, the gradual slow-node failure mode the
// predictive policy watches for. The same seed always yields the same
// schedule.
func degradedTasks(seed int64, n int) []platform.Task {
	rng := rand.New(rand.NewSource(seed))
	sleeps := make([]time.Duration, n)
	onset := n/4 + rng.Intn(n/4)
	for i := range sleeps {
		d := time.Duration(50+rng.Intn(100)) * time.Microsecond
		if i >= onset {
			d += time.Duration(i-onset) * time.Duration(20+rng.Intn(50)) * time.Microsecond
		}
		sleeps[i] = d
	}
	tasks := make([]platform.Task, n)
	for i := range tasks {
		i := i
		tasks[i] = platform.Task{ID: i, Cost: 1, Fn: func() any {
			time.Sleep(sleeps[i])
			return i
		}}
	}
	return tasks
}

// TestPredictiveStreamMatchesBatchEverySkeleton is the contract property
// under the predictive policy: with a detector armed AND the forecaster
// free to reweight and re-derive Z pre-breach, a stream fed a
// seeded-random degradation schedule still completes exactly the ID set
// its batch form does — exactly once, nothing remaining — for every
// skeleton and every seed. Whatever the predictive machinery does to the
// membership mid-flight, it must never touch delivery semantics.
func TestPredictiveStreamMatchesBatchEverySkeleton(t *testing.T) {
	const n, workers, window = 48, 3, 6
	for _, seed := range []int64{1, 7, 42} {
		for _, ad := range adapters() {
			ad, seed := ad, seed
			t.Run(fmt.Sprintf("%s/seed=%d", ad.name, seed), func(t *testing.T) {
				rep := runStream(t, ad.runner, workers, degradedTasks(seed, n),
					engine.StreamOptions{
						Window: window,
						Detector: &monitor.Detector{
							Z: 2 * time.Millisecond, Rule: monitor.RuleMinOver,
							Window: 3, MinSamples: 3,
						},
						Predict: &engine.Predict{Margin: 1.2, Cooldown: 2},
					})

				if rep.Admitted != n {
					t.Errorf("admitted = %d, want %d", rep.Admitted, n)
				}
				seen := make(map[int]bool, n)
				for _, r := range rep.Results {
					if seen[r.Task.ID] {
						t.Errorf("task %d completed twice", r.Task.ID)
					}
					seen[r.Task.ID] = true
				}
				if len(rep.Remaining) != 0 {
					t.Errorf("remaining = %d on a clean drain", len(rep.Remaining))
				}

				batch := ad.batch(t, workers, fnTasks(n, 50*time.Microsecond))
				if len(batch) != len(seen) {
					t.Fatalf("stream completed %d distinct tasks, batch %d", len(seen), len(batch))
				}
				for id := range batch {
					if !seen[id] {
						t.Errorf("batch completed task %d, stream did not", id)
					}
				}
			})
		}
	}
}
