package pipeline

import (
	"fmt"
	"testing"
	"time"

	"grasp/internal/grid"
	"grasp/internal/loadgen"
	"grasp/internal/monitor"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/skel/compose"
	"grasp/internal/skel/engine"
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

func evenSpeeds(n int, speed float64) []grid.NodeSpec {
	specs := make([]grid.NodeSpec, n)
	for i := range specs {
		specs[i] = grid.NodeSpec{BaseSpeed: speed}
	}
	return specs
}

func fixedStages(n int, cost float64) []Stage {
	stages := make([]Stage, n)
	for i := range stages {
		stages[i] = Stage{
			Name: fmt.Sprintf("s%d", i),
			Cost: func(int) float64 { return cost },
		}
	}
	return stages
}

// tightDetector breaches as soon as two items exceed z.
func tightDetector(z time.Duration) func(int) *monitor.Detector {
	return func(int) *monitor.Detector {
		d := monitor.NewDetector(z)
		d.Window = 2
		d.MinSamples = 2
		return d
	}
}

func TestPipelineAllItemsExitInOrder(t *testing.T) {
	pf, sim := gridPF(t, evenSpeeds(3, 10))
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedStages(3, 1), 10, Options{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Items != 10 {
		t.Fatalf("items = %d", rep.Items)
	}
	for i := 1; i < len(rep.ExitTimes); i++ {
		if rep.ExitTimes[i] < rep.ExitTimes[i-1] {
			t.Fatal("exit times not monotone")
		}
	}
	// FIFO ordering through the pipe.
	for i, v := range rep.Outputs {
		if v.(int) != i {
			t.Fatalf("outputs out of order: %v", rep.Outputs)
		}
	}
}

func TestPipelineSteadyStateThroughput(t *testing.T) {
	// 3 stages à 100ms on separate nodes: first exit at ~300ms, then one
	// exit every ~100ms (pipelining).
	pf, sim := gridPF(t, evenSpeeds(3, 10))
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedStages(3, 1), 20, Options{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.ExitTimes[0] != 300*time.Millisecond {
		t.Errorf("first exit = %v, want 300ms", rep.ExitTimes[0])
	}
	gap := rep.ExitTimes[10] - rep.ExitTimes[9]
	if gap != 100*time.Millisecond {
		t.Errorf("steady-state gap = %v, want 100ms", gap)
	}
	// Makespan ≈ fill + (n-1)·bottleneck = 300ms + 19×100ms.
	want := 2200 * time.Millisecond
	if rep.Makespan != want {
		t.Errorf("makespan = %v, want %v", rep.Makespan, want)
	}
}

func TestPipelineBottleneckDominates(t *testing.T) {
	// Stage 1 is 4× slower: steady-state gap equals the bottleneck time.
	pf, sim := gridPF(t, evenSpeeds(3, 10))
	stages := fixedStages(3, 1)
	stages[1].Cost = func(int) float64 { return 4 }
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, stages, 12, Options{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	gap := rep.ExitTimes[10] - rep.ExitTimes[9]
	if gap != 400*time.Millisecond {
		t.Errorf("bottleneck gap = %v, want 400ms", gap)
	}
}

func TestPipelineExplicitMapping(t *testing.T) {
	// Two stages forced onto one node serialise: gap = sum of both costs.
	pf, sim := gridPF(t, evenSpeeds(2, 10))
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedStages(2, 1), 8, Options{Mapping: []int{0, 0}})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	gap := rep.ExitTimes[6] - rep.ExitTimes[5]
	if gap != 200*time.Millisecond {
		t.Errorf("shared-node gap = %v, want 200ms", gap)
	}
	if rep.FinalMapping[0] != 0 || rep.FinalMapping[1] != 0 {
		t.Errorf("final mapping = %v", rep.FinalMapping)
	}
}

func TestPipelineMappingMismatchPanics(t *testing.T) {
	pf, sim := gridPF(t, evenSpeeds(2, 10))
	panicked := false
	sim.Go("root", func(c rt.Ctx) {
		defer func() { panicked = recover() != nil }()
		Run(pf, c, fixedStages(2, 1), 1, Options{Mapping: []int{0}})
	})
	_ = sim.Run()
	if !panicked {
		t.Error("mapping/stage mismatch should panic")
	}
}

func TestPipelineRemapsSlowStage(t *testing.T) {
	// Stage 0 starts on node 0, which collapses at t=500ms; node 2 is a
	// fast spare. The stage must remap and throughput recover.
	pf, sim := gridPF(t, []grid.NodeSpec{
		{BaseSpeed: 10, Load: loadgen.NewStep(500*time.Millisecond, 0, 0.9)},
		{BaseSpeed: 10},
		{BaseSpeed: 10}, // spare
	})
	det := func(stage int) *monitor.Detector {
		d := monitor.NewDetector(300 * time.Millisecond)
		d.Window = 2
		d.MinSamples = 2
		return d
	}
	log := trace.New()
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedStages(2, 1), 30, Options{
			Mapping:     []int{0, 1},
			Spares:      []int{2},
			DetectorFor: det,
			Log:         log,
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Remaps) == 0 {
		t.Fatal("expected a remap")
	}
	r := rep.Remaps[0]
	if r.Stage != 0 || r.FromWorker != 0 || r.ToWorker != 2 {
		t.Errorf("remap = %+v", r)
	}
	if rep.FinalMapping[0] != 2 {
		t.Errorf("final mapping = %v", rep.FinalMapping)
	}
	if len(log.Filter(trace.KindAdapt)) == 0 {
		t.Error("adapt event missing from log")
	}
	if rep.Items != 30 {
		t.Errorf("items = %d", rep.Items)
	}
}

func TestPipelineAdaptiveBeatsStaticUnderPressure(t *testing.T) {
	specs := func() []grid.NodeSpec {
		return []grid.NodeSpec{
			{BaseSpeed: 10, Load: loadgen.NewStep(500*time.Millisecond, 0, 0.95)},
			{BaseSpeed: 10},
			{BaseSpeed: 10},
		}
	}
	run := func(adaptive bool) time.Duration {
		pf, sim := gridPF(t, specs())
		opts := Options{Mapping: []int{0, 1}}
		if adaptive {
			opts.Spares = []int{2}
			opts.DetectorFor = func(int) *monitor.Detector {
				d := monitor.NewDetector(300 * time.Millisecond)
				d.Window = 2
				d.MinSamples = 2
				return d
			}
		}
		var rep Report
		sim.Go("root", func(c rt.Ctx) {
			rep = Run(pf, c, fixedStages(2, 1), 40, opts)
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if rep.Items != 40 {
			t.Fatalf("items = %d", rep.Items)
		}
		return rep.Makespan
	}
	static := run(false)
	adaptive := run(true)
	if adaptive >= static {
		t.Errorf("adaptive (%v) should beat static (%v)", adaptive, static)
	}
	// The pressured static pipeline crawls at 1s/item; adaptive should cut
	// makespan by at least 2×.
	if static < 2*adaptive {
		t.Errorf("gain too small: static %v adaptive %v", static, adaptive)
	}
}

func TestPipelineNoSparesNoRemap(t *testing.T) {
	pf, sim := gridPF(t, []grid.NodeSpec{
		{BaseSpeed: 10, Load: loadgen.NewConstant(0.9)},
		{BaseSpeed: 10},
	})
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedStages(2, 1), 5, Options{
			DetectorFor: func(int) *monitor.Detector { return monitor.NewDetector(time.Millisecond) },
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Remaps) != 0 {
		t.Error("no spares → no remaps")
	}
	if rep.Items != 5 {
		t.Errorf("items = %d", rep.Items)
	}
}

func TestPipelineZeroStages(t *testing.T) {
	pf, sim := gridPF(t, evenSpeeds(1, 10))
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, nil, 5, Options{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Items != 0 {
		t.Errorf("zero-stage pipeline produced items: %d", rep.Items)
	}
}

func TestPipelineZeroItems(t *testing.T) {
	pf, sim := gridPF(t, evenSpeeds(2, 10))
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedStages(2, 1), 0, Options{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Items != 0 || rep.Makespan != 0 {
		t.Errorf("rep = %+v", rep)
	}
}

func TestPipelineServiceAccounting(t *testing.T) {
	pf, sim := gridPF(t, evenSpeeds(2, 10))
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedStages(2, 1), 10, Options{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Each stage processed 10 items at 100ms.
	for si, busy := range rep.ServiceByStage {
		if busy != time.Second {
			t.Errorf("stage %d busy = %v, want 1s", si, busy)
		}
	}
}

func TestPipelineDeterministic(t *testing.T) {
	run := func() string {
		pf, sim := gridPF(t, grid.HeterogeneousSpecs(5, 4, 20, 0.4))
		var rep Report
		sim.Go("root", func(c rt.Ctx) {
			rep = Run(pf, c, fixedStages(3, 1), 25, Options{BufSize: 2})
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(rep.Makespan, rep.ExitTimes[:5])
	}
	if run() != run() {
		t.Error("pipeline not deterministic")
	}
}

func TestPipelineOnLocalRuntime(t *testing.T) {
	l := rt.NewLocal()
	pf := platform.NewLocalPlatform(l, 3)
	stages := []Stage{
		{Name: "double", Fn: func(v any) any { return v.(int) * 2 }},
		{Name: "inc", Fn: func(v any) any { return v.(int) + 1 }},
	}
	var rep Report
	l.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, stages, 5, Options{Mapping: []int{0, 1}})
	})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Items != 5 {
		t.Fatalf("items = %d", rep.Items)
	}
	for i, v := range rep.Outputs {
		if v.(int) != i*2+1 {
			t.Errorf("output[%d] = %v, want %d", i, v, i*2+1)
		}
	}
}

func TestPipelineBufferingImprovesJitterTolerance(t *testing.T) {
	// With irregular stage costs, a deeper buffer should not hurt and
	// usually helps makespan.
	costs := []float64{1, 3, 1, 3, 1, 3, 1, 3, 1, 3}
	mkStages := func() []Stage {
		return []Stage{
			{Name: "a", Cost: func(i int) float64 { return costs[i%len(costs)] }},
			{Name: "b", Cost: func(i int) float64 { return costs[(i+1)%len(costs)] }},
		}
	}
	run := func(buf int) time.Duration {
		pf, sim := gridPF(t, evenSpeeds(2, 10))
		var rep Report
		sim.Go("root", func(c rt.Ctx) {
			rep = Run(pf, c, mkStages(), 20, Options{BufSize: buf})
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	if deep := run(8); deep > run(1) {
		t.Errorf("deep buffer (%v) should not be slower than shallow (%v)", deep, run(1))
	}
}

func TestPipelineIsAPipeOfOneWorkerFarms(t *testing.T) {
	// Run with mapping [0 1 2] and compose.Run with pools [[0] [1] [2]] are
	// the same stage graph: on uneven nodes and uneven stage costs every
	// item must leave both at the same instant.
	specs := []grid.NodeSpec{{BaseSpeed: 10}, {BaseSpeed: 4}, {BaseSpeed: 25}}
	costs := []func(int) float64{
		func(i int) float64 { return 1 + float64(i%3) },
		func(int) float64 { return 1 },
		func(i int) float64 { return 4 - float64(i%4) },
	}
	const items = 40
	var plain Report
	pf, sim := gridPF(t, specs)
	sim.Go("root", func(c rt.Ctx) {
		stages := fixedStages(3, 0)
		for si := range stages {
			stages[si].Cost = costs[si]
		}
		plain = Run(pf, c, stages, items, Options{Mapping: []int{0, 1, 2}, BufSize: 2})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	var farmed compose.Report
	pf, sim = gridPF(t, specs)
	sim.Go("root", func(c rt.Ctx) {
		stages := make([]compose.Stage, 3)
		for si := range stages {
			stages[si] = compose.Stage{Name: fmt.Sprintf("s%d", si), Pool: []int{si}, Cost: costs[si]}
		}
		farmed = compose.Run(pf, c, stages, items, compose.Options{BufSize: 2})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if plain.Items != items || farmed.Items != items {
		t.Fatalf("items = %d and %d, want %d", plain.Items, farmed.Items, items)
	}
	for i, o := range farmed.Outputs {
		if o.ID != plain.Outputs[i].(int) || o.At != plain.ExitTimes[i] {
			t.Fatalf("exit %d: pipeline item %v at %v, pipe-of-farms item %d at %v",
				i, plain.Outputs[i], plain.ExitTimes[i], o.ID, o.At)
		}
	}
}

func TestPipelineRemapIsOneMembershipUpdate(t *testing.T) {
	// The scenario of TestPipelineRemapsSlowStage, seen from the stage's
	// farm: the breach remap is the engine update {Add spare, Remove old} —
	// one worker in, one out, nobody dead — and Report.Remaps records it as
	// it always did.
	pf, sim := gridPF(t, []grid.NodeSpec{
		{BaseSpeed: 10, Load: loadgen.NewStep(500*time.Millisecond, 0, 0.9)},
		{BaseSpeed: 10},
		{BaseSpeed: 10}, // spare
	})
	var rep Report
	var farms []engine.StreamReport
	sim.Go("root", func(c rt.Ctx) {
		rep, farms = run(pf, c, fixedStages(2, 1), 30, Options{
			Mapping:     []int{0, 1},
			Spares:      []int{2},
			DetectorFor: tightDetector(300 * time.Millisecond),
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Remaps) != 1 || rep.Remaps[0].Stage != 0 || rep.Remaps[0].FromWorker != 0 || rep.Remaps[0].ToWorker != 2 {
		t.Fatalf("remaps = %+v, want one: stage 0, worker 0 → 2", rep.Remaps)
	}
	if f := farms[0]; f.WorkersAdded != 1 || f.WorkersRemoved != 1 || len(f.DeadWorkers) != 0 ||
		len(f.FinalWorkers) != 1 || f.FinalWorkers[0] != 2 {
		t.Errorf("stage 0 farm: added %d, removed %d, dead %v, final %v; want 1, 1, none, [2]",
			f.WorkersAdded, f.WorkersRemoved, f.DeadWorkers, f.FinalWorkers)
	}
	if f := farms[1]; f.WorkersAdded != 0 || f.WorkersRemoved != 0 {
		t.Errorf("stage 1 farm changed membership: %+v", f)
	}
	if rep.Items != 30 || rep.Remaps[0].At <= 500*time.Millisecond {
		t.Errorf("items = %d, remap at %v", rep.Items, rep.Remaps[0].At)
	}
}
