package pipeline

import (
	"math/rand"
	"testing"
	"time"

	"grasp/internal/cluster"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/skel/engine"
)

// runStream feeds tasks 0..n-1 (built by mk) into a streaming pipeline from
// a producer process on the platform's own runtime and returns the report.
func runStream(tb testing.TB, pf platform.Platform, params StreamParams, opts engine.StreamOptions, n int, mk func(id int) platform.Task) engine.StreamReport {
	tb.Helper()
	runtime := pf.Runtime()
	in := runtime.NewChan("in", 1)
	runtime.Go("producer", func(c rt.Ctx) {
		for i := 0; i < n; i++ {
			in.Send(c, mk(i))
		}
		in.Close(c)
	})
	var rep engine.StreamReport
	runtime.Go("root", func(c rt.Ctx) {
		rep = Stream(params)(pf, c, in, opts)
	})
	if err := runtime.Run(); err != nil {
		tb.Fatal(err)
	}
	return rep
}

// assertExitOrder fails unless results hold ids 0..n-1, each once, in
// admission order.
func assertExitOrder(t *testing.T, results []platform.Result, n int) {
	t.Helper()
	if len(results) != n {
		t.Fatalf("%d items exited, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Task.ID != i {
			t.Fatalf("exit %d is item %d: the pipe reordered or duplicated an item", i, r.Task.ID)
		}
	}
}

// A saturated stream holds exactly the window it was given: the
// inter-stage buffers are not a second, smaller bound in front of it.
func TestStreamWindowIsTheOnlyBound(t *testing.T) {
	const window, n = 16, 200
	pf := platform.NewLocalPlatform(rt.NewLocal(), 3)
	// Slow last stage: everything admitted queues in front of it.
	apply := func(stage int, task platform.Task) platform.Task {
		if stage == 2 {
			task.Fn = func() any { time.Sleep(300 * time.Microsecond); return nil }
		}
		return task
	}
	rep := runStream(t, pf, StreamParams{Stages: 3, Apply: apply}, engine.StreamOptions{Window: window}, n,
		func(id int) platform.Task { return platform.Task{ID: id, Cost: 1} })
	if rep.MaxInFlight != window {
		t.Errorf("MaxInFlight = %d, want the window %d", rep.MaxInFlight, window)
	}
	if rep.Admitted != n || len(rep.Remaining) != 0 {
		t.Errorf("admitted %d, remaining %d, want %d and 0", rep.Admitted, len(rep.Remaining), n)
	}
	assertExitOrder(t, rep.Results, n)
}

// End-to-end FIFO order is by construction (one process per stage, FIFO
// buffers); this pins it with the buffers a whole window deep and stages
// that alternately starve and queue, on real goroutines and on the
// simulated grid.
func TestStreamExitsInAdmissionOrder(t *testing.T) {
	const window, n = 12, 120
	cases := []struct {
		name  string
		pf    func(t *testing.T) platform.Platform
		apply func(stage int, task platform.Task) platform.Task
	}{
		{"local", func(*testing.T) platform.Platform { return platform.NewLocalPlatform(rt.NewLocal(), 3) },
			func(stage int, task platform.Task) platform.Task {
				d := time.Duration(float64(1+stage) * task.Cost * float64(100*time.Microsecond))
				task.Fn = func() any { time.Sleep(d); return nil }
				return task
			}},
		{"vsim", func(t *testing.T) platform.Platform { pf, _ := gridPF(t, evenSpeeds(3, 10)); return pf },
			func(stage int, task platform.Task) platform.Task {
				task.Cost *= float64(1 + stage)
				return task
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			// Later stages are slower, so the buffers fill; items jitter ±50 %.
			rep := runStream(t, tc.pf(t), StreamParams{Stages: 3, Apply: tc.apply}, engine.StreamOptions{Window: window}, n,
				func(id int) platform.Task { return platform.Task{ID: id, Cost: 0.5 + rng.Float64()} })
			if rep.MaxInFlight != window {
				t.Errorf("MaxInFlight = %d: order was not exercised with the window (%d) in flight", rep.MaxInFlight, window)
			}
			assertExitOrder(t, rep.Results, n)
		})
	}
}

// BenchmarkPipelineStream is the service's pipeline job in miniature:
// three stages of the spin kernel in ratio 1:2:1, ±25 % seeded jitter per
// item, two workers, Window 64. Besides ns/item it reports the wall time
// over the bottleneck stage's serial time measured in the same process —
// 1.0 is a pipe that never lets its slowest stage idle. Report-only: the
// two timings are taken one after the other, so a host that changes speed
// between them moves the ratio.
func BenchmarkPipelineStream(b *testing.B) {
	const items, unit = 2000, 20000 // spin iterations per cost unit
	factor := [3]int64{1, 2, 1}
	rng := rand.New(rand.NewSource(1))
	spins := make([]int64, items)
	for i := range spins {
		spins[i] = int64(unit * (0.75 + rng.Float64()/2))
	}
	params := StreamParams{Stages: 3, Apply: func(stage int, task platform.Task) platform.Task {
		n := spins[task.ID] * factor[stage]
		task.Fn = func() any { cluster.Spin(n); return nil }
		return task
	}}
	var wall, serial time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		start := time.Now()
		for _, n := range spins {
			cluster.Spin(n * factor[1])
		}
		serial += time.Since(start)
		b.StartTimer()

		pf := platform.NewLocalPlatform(rt.NewLocal(), 2)
		start = time.Now()
		rep := runStream(b, pf, params, engine.StreamOptions{Window: 64, OnResult: func(platform.Result) {}}, items,
			func(id int) platform.Task { return platform.Task{ID: id, Cost: 1} })
		wall += time.Since(start)
		if rep.Admitted != items || len(rep.Remaining) != 0 {
			b.Fatalf("admitted %d, remaining %d of %d items", rep.Admitted, len(rep.Remaining), items)
		}
	}
	b.ReportMetric(float64(wall.Nanoseconds())/float64(b.N*items), "ns/item")
	b.ReportMetric(float64(wall)/float64(serial), "wall/bottleneck")
}
