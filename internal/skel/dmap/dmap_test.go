package dmap

import (
	"testing"
	"testing/quick"
	"time"

	"grasp/internal/grid"
	"grasp/internal/loadgen"
	"grasp/internal/monitor"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/trace"
	"grasp/internal/vsim"
)

func gridPF(t *testing.T, specs []grid.NodeSpec) (*platform.GridPlatform, *rt.Sim) {
	t.Helper()
	env := vsim.New()
	sim := rt.NewSim(env)
	g, err := grid.New(env, grid.Config{Nodes: specs})
	if err != nil {
		t.Fatal(err)
	}
	return platform.NewGridPlatform(sim, g, 0, 1), sim
}

func fixedTasks(n int, cost float64) []platform.Task {
	tasks := make([]platform.Task, n)
	for i := range tasks {
		tasks[i] = platform.Task{ID: i, Cost: cost}
	}
	return tasks
}

func equalSpecs(n int, speed float64) []grid.NodeSpec {
	specs := make([]grid.NodeSpec, n)
	for i := range specs {
		specs[i] = grid.NodeSpec{BaseSpeed: speed}
	}
	return specs
}

func TestMapCompletesAllTasks(t *testing.T) {
	pf, sim := gridPF(t, equalSpecs(4, 10))
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedTasks(40, 1), Options{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 40 {
		t.Fatalf("results = %d, want 40", len(rep.Results))
	}
	if len(rep.Remaining) != 0 || rep.Breached {
		t.Errorf("clean run: remaining=%d breached=%v", len(rep.Remaining), rep.Breached)
	}
	seen := make(map[int]bool)
	for _, r := range rep.Results {
		if seen[r.Task.ID] {
			t.Fatalf("task %d executed twice", r.Task.ID)
		}
		seen[r.Task.ID] = true
	}
	if rep.Requests != 4 {
		t.Errorf("Requests = %d, want 4 (one wave: a block per worker)", rep.Requests)
	}
}

func TestMapScatterTrafficIsOneRoundPerWorker(t *testing.T) {
	pf, sim := gridPF(t, equalSpecs(8, 10))
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedTasks(800, 1), Options{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 8 {
		t.Errorf("scatters = %d, want 8 (one block per worker)", rep.Requests)
	}
}

func TestMapUniformWeightsSplitEvenly(t *testing.T) {
	pf, sim := gridPF(t, equalSpecs(4, 10))
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedTasks(100, 1), Options{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		if rep.TasksByWorker[w] != 25 {
			t.Errorf("worker %d got %d tasks, want 25", w, rep.TasksByWorker[w])
		}
	}
}

func TestMapWeightedDecomposition(t *testing.T) {
	pf, sim := gridPF(t, equalSpecs(2, 10))
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedTasks(100, 1), Options{
			Weights: map[int]float64{0: 3, 1: 1},
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.TasksByWorker[0] != 75 || rep.TasksByWorker[1] != 25 {
		t.Errorf("tasks by worker = %v, want 75/25", rep.TasksByWorker)
	}
}

func TestMapWeightedBeatsUniformOnHeterogeneousGrid(t *testing.T) {
	// Speeds 40 vs 10: the correct decomposition is 4:1.
	specs := []grid.NodeSpec{{BaseSpeed: 40}, {BaseSpeed: 10}}

	run := func(weights map[int]float64) time.Duration {
		pf, sim := gridPF(t, specs)
		var rep Report
		sim.Go("root", func(c rt.Ctx) {
			rep = Run(pf, c, fixedTasks(100, 1), Options{Weights: weights})
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != 100 {
			t.Fatalf("incomplete: %d", len(rep.Results))
		}
		return rep.Makespan
	}

	uniform := run(nil)
	weighted := run(map[int]float64{0: 4, 1: 1})
	if weighted >= uniform {
		t.Errorf("weighted %v should beat uniform %v", weighted, uniform)
	}
}

func TestMapWavesRebalanceWrongWeights(t *testing.T) {
	// Initial weights are inverted (slow node gets 4×); with waves the
	// throughput feedback must recover most of the loss.
	specs := []grid.NodeSpec{{BaseSpeed: 40}, {BaseSpeed: 10}}
	bad := map[int]float64{0: 1, 1: 4}

	run := func(waves int) (Report, *trace.Log) {
		pf, sim := gridPF(t, specs)
		log := trace.New()
		var rep Report
		sim.Go("root", func(c rt.Ctx) {
			rep = Run(pf, c, fixedTasks(200, 1), Options{Weights: bad, Waves: waves, Alpha: 0.8, Log: log})
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != 200 {
			t.Fatalf("incomplete: %d", len(rep.Results))
		}
		return rep, log
	}

	oneWave, _ := run(1)
	eightWaves, log := run(8)
	if eightWaves.Makespan >= oneWave.Makespan {
		t.Errorf("8 waves %v should beat 1 wave %v under inverted weights",
			eightWaves.Makespan, oneWave.Makespan)
	}
	if eightWaves.Requests != 16 {
		t.Errorf("Requests = %d, want 16 (8 waves × 2 blocks)", eightWaves.Requests)
	}
	// The decomposition drifts toward the fast worker: over the run it takes
	// more tasks than the inverted weights gave it, and the last wave's
	// scatter hands it the majority.
	if eightWaves.TasksByWorker[0] <= oneWave.TasksByWorker[0] {
		t.Errorf("fast worker ran %d tasks over 8 waves, %d in 1: no drift",
			eightWaves.TasksByWorker[0], oneWave.TasksByWorker[0])
	}
	dispatches := log.Filter(trace.KindDispatch)
	lastAt := dispatches[len(dispatches)-1].At
	lastWave := map[string]int{}
	for _, e := range dispatches {
		if e.At == lastAt {
			lastWave[e.Node]++
		}
	}
	if lastWave["n0"] <= lastWave["n1"] {
		t.Errorf("last wave scattered %v: should favour the fast worker n0", lastWave)
	}
	// Busy time evens out: the slow worker no longer dominates the run.
	if imb, base := imbalance(eightWaves), imbalance(oneWave); imb >= base {
		t.Errorf("busy imbalance should fall with waves: 8 waves %.3f, 1 wave %.3f", imb, base)
	}
}

// imbalance is max/mean busy time − 1 over the workers that ran tasks
// (0 = perfectly balanced).
func imbalance(rep Report) float64 {
	var sum, max time.Duration
	for _, b := range rep.BusyByWorker {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum <= 0 {
		return 0
	}
	return float64(max)/(float64(sum)/float64(len(rep.BusyByWorker))) - 1
}

func TestMapDetectorStopsAfterWave(t *testing.T) {
	// A step of heavy external pressure begins after the first wave; the
	// detector must stop the map with the later waves unexecuted.
	specs := []grid.NodeSpec{
		{BaseSpeed: 10, Load: loadgen.NewStep(3*time.Second, 0, 0.9)},
		{BaseSpeed: 10, Load: loadgen.NewStep(3*time.Second, 0, 0.9)},
	}
	pf, sim := gridPF(t, specs)
	det := monitor.NewDetector(300 * time.Millisecond) // tasks take 0.1s idle
	det.Window = 2
	det.MinSamples = 2
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedTasks(400, 1), Options{Waves: 10, Detector: det})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !rep.Breached {
		t.Fatal("detector should have breached under 10× slowdown")
	}
	if len(rep.Remaining) == 0 {
		t.Error("breach should leave later waves unexecuted")
	}
	if len(rep.Results)+len(rep.Remaining) != 400 {
		t.Errorf("results %d + remaining %d != 400", len(rep.Results), len(rep.Remaining))
	}
	if rep.Requests >= 2*10 {
		t.Errorf("Requests = %d scatters: the map should stop before its 10th wave", rep.Requests)
	}
}

func TestMapWorkerCrashRequeuesBlockTail(t *testing.T) {
	// Worker 1 dies at t=1s, mid-way through its block; its unfinished tasks
	// must be re-executed by the survivor on a later wave.
	specs := []grid.NodeSpec{
		{BaseSpeed: 10},
		{BaseSpeed: 10, FailAt: time.Second},
	}
	pf, sim := gridPF(t, specs)
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedTasks(100, 1), Options{Waves: 4})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 100 {
		t.Fatalf("all tasks must complete despite the crash: got %d", len(rep.Results))
	}
	if rep.Failures == 0 {
		t.Error("failures should be counted")
	}
	if len(rep.DeadWorkers) != 1 || rep.DeadWorkers[0] != 1 {
		t.Errorf("dead workers = %v, want [1]", rep.DeadWorkers)
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
}

func TestMapCrashOnFinalWaveLeavesRemaining(t *testing.T) {
	// Single worker dies mid-run with Waves=1: the lost tail must surface in
	// Remaining, not vanish.
	specs := []grid.NodeSpec{{BaseSpeed: 10, FailAt: time.Second}}
	pf, sim := gridPF(t, specs)
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedTasks(50, 1), Options{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results)+len(rep.Remaining) != 50 {
		t.Errorf("results %d + remaining %d != 50", len(rep.Results), len(rep.Remaining))
	}
	if len(rep.Remaining) == 0 {
		t.Error("crash with no other worker must leave remaining tasks")
	}
}

func TestMapAllWorkersDead(t *testing.T) {
	specs := []grid.NodeSpec{
		{BaseSpeed: 10, FailAt: 500 * time.Millisecond},
		{BaseSpeed: 10, FailAt: 500 * time.Millisecond},
	}
	pf, sim := gridPF(t, specs)
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedTasks(100, 1), Options{Waves: 5})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results)+len(rep.Remaining) != 100 {
		t.Errorf("results %d + remaining %d != 100", len(rep.Results), len(rep.Remaining))
	}
	if len(rep.DeadWorkers) != 2 {
		t.Errorf("dead workers = %v, want both", rep.DeadWorkers)
	}
	if len(rep.Remaining) == 0 {
		t.Error("a fully dead platform must leave work undone")
	}
}

func TestMapEmptyTasks(t *testing.T) {
	pf, sim := gridPF(t, equalSpecs(2, 10))
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, nil, Options{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 || len(rep.Remaining) != 0 || rep.Requests != 0 {
		t.Errorf("empty input: %+v", rep)
	}
}

func TestMapFewerTasksThanWorkers(t *testing.T) {
	pf, sim := gridPF(t, equalSpecs(8, 10))
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedTasks(3, 1), Options{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Errorf("results = %d, want 3", len(rep.Results))
	}
}

func TestMapWorkerSubset(t *testing.T) {
	pf, sim := gridPF(t, equalSpecs(4, 10))
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedTasks(20, 1), Options{Workers: []int{1, 3}})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.TasksByWorker[0] != 0 || rep.TasksByWorker[2] != 0 {
		t.Errorf("excluded workers got tasks: %v", rep.TasksByWorker)
	}
	if rep.TasksByWorker[1]+rep.TasksByWorker[3] != 20 {
		t.Errorf("tasks by worker = %v", rep.TasksByWorker)
	}
}

func TestMapTraceEvents(t *testing.T) {
	pf, sim := gridPF(t, equalSpecs(2, 10))
	log := trace.New()
	sim.Go("root", func(c rt.Ctx) {
		Run(pf, c, fixedTasks(10, 1), Options{Log: log})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	var dispatches, completes int
	for _, e := range log.Events() {
		switch e.Kind {
		case trace.KindDispatch:
			dispatches++
		case trace.KindComplete:
			completes++
		}
	}
	if dispatches != 10 || completes != 10 {
		t.Errorf("dispatches=%d completes=%d, want 10/10", dispatches, completes)
	}
}

func TestMapOnResultCallback(t *testing.T) {
	pf, sim := gridPF(t, equalSpecs(2, 10))
	var calls int
	sim.Go("root", func(c rt.Ctx) {
		Run(pf, c, fixedTasks(12, 1), Options{
			OnResult: func(platform.Result) { calls++ },
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 12 {
		t.Errorf("OnResult calls = %d, want 12", calls)
	}
}

func TestMapOnLocalPlatform(t *testing.T) {
	l := rt.NewLocal()
	pf := platform.NewLocalPlatform(l, 4)
	tasks := make([]platform.Task, 16)
	for i := range tasks {
		i := i
		tasks[i] = platform.Task{ID: i, Fn: func() any { return i * i }}
	}
	var rep Report
	l.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, tasks, Options{})
	})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 16 {
		t.Fatalf("results = %d", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.Value.(int) != r.Task.ID*r.Task.ID {
			t.Errorf("task %d value = %v", r.Task.ID, r.Value)
		}
	}
}

func TestMapRunStaticMatchesSingleWave(t *testing.T) {
	specs := []grid.NodeSpec{{BaseSpeed: 20}, {BaseSpeed: 10}}
	w := map[int]float64{0: 2, 1: 1}

	makespan := func(f func(pf *platform.GridPlatform, c rt.Ctx) Report) time.Duration {
		pf, sim := gridPF(t, specs)
		var rep Report
		sim.Go("root", func(c rt.Ctx) { rep = f(pf, c) })
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}

	a := makespan(func(pf *platform.GridPlatform, c rt.Ctx) Report {
		return Run(pf, c, fixedTasks(60, 1), Options{Weights: w, Waves: 1})
	})
	b := makespan(func(pf *platform.GridPlatform, c rt.Ctx) Report {
		return RunStatic(pf, c, fixedTasks(60, 1), w, nil, nil)
	})
	if a != b {
		t.Errorf("RunStatic %v != single-wave Run %v", b, a)
	}
}

// TestMapConservationProperty: for arbitrary task counts, wave counts and
// weight skews, every task is either completed exactly once or returned in
// Remaining — never lost, never duplicated.
func TestMapConservationProperty(t *testing.T) {
	f := func(nTasks uint8, waves uint8, w0, w1 uint8, crash bool) bool {
		n := int(nTasks)%97 + 1
		wv := int(waves)%6 + 1
		specs := []grid.NodeSpec{{BaseSpeed: 10}, {BaseSpeed: 25}}
		if crash {
			specs[1].FailAt = 300 * time.Millisecond
		}
		env := vsim.New()
		sim := rt.NewSim(env)
		g, err := grid.New(env, grid.Config{Nodes: specs})
		if err != nil {
			return false
		}
		pf := platform.NewGridPlatform(sim, g, 0, 1)
		var rep Report
		sim.Go("root", func(c rt.Ctx) {
			rep = Run(pf, c, fixedTasks(n, 1), Options{
				Waves:   wv,
				Weights: map[int]float64{0: float64(w0), 1: float64(w1)},
			})
		})
		if err := sim.Run(); err != nil {
			return false
		}
		seen := make(map[int]int)
		for _, r := range rep.Results {
			seen[r.Task.ID]++
		}
		for _, task := range rep.Remaining {
			seen[task.ID]++
		}
		if len(seen) != n {
			return false
		}
		for _, count := range seen {
			if count != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMapWaveSizeProperty: waveSize always returns a value in [1, n] for
// n > 0 and drains exactly n across wavesLeft successive calls.
func TestMapWaveSizeProperty(t *testing.T) {
	f := func(n uint16, waves uint8) bool {
		total := int(n)%5000 + 1
		wv := int(waves)%10 + 1
		remaining := total
		for left := wv; left >= 1 && remaining > 0; left-- {
			s := waveSize(remaining, left)
			if s < 1 || s > remaining {
				return false
			}
			remaining -= s
		}
		return remaining == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
