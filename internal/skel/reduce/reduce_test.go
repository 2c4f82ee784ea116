package reduce

import (
	"testing"
	"testing/quick"
	"time"

	"grasp/internal/grid"
	"grasp/internal/platform"
	"grasp/internal/rt"
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

func equalSpecs(n int, speed float64) []grid.NodeSpec {
	specs := make([]grid.NodeSpec, n)
	for i := range specs {
		specs[i] = grid.NodeSpec{BaseSpeed: speed}
	}
	return specs
}

func seqWorkers(n int) []int {
	ws := make([]int, n)
	for i := range ws {
		ws[i] = i
	}
	return ws
}

// --- Plan construction -------------------------------------------------

// steps returns the total number of combines in the plan.
func steps(p Plan) int {
	var n int
	for _, r := range p.Rounds {
		n += len(r)
	}
	return n
}

func TestPlanStepsAlwaysPMinusOne(t *testing.T) {
	for _, shape := range []Shape{Flat, Tree, CalibratedTree} {
		for p := 1; p <= 33; p++ {
			plan := NewPlan(shape, seqWorkers(p), map[int]float64{})
			if got := steps(plan); got != p-1 {
				t.Errorf("%v P=%d: steps=%d, want %d", shape, p, got, p-1)
			}
			if err := plan.Validate(seqWorkers(p)); err != nil {
				t.Errorf("%v P=%d: %v", shape, p, err)
			}
		}
	}
}

func TestPlanTreeDepthIsLogP(t *testing.T) {
	for p, want := range map[int]int{2: 1, 3: 2, 4: 2, 8: 3, 9: 4, 16: 4, 31: 5, 32: 5} {
		plan := NewPlan(Tree, seqWorkers(p), nil)
		if len(plan.Rounds) != want {
			t.Errorf("P=%d depth=%d, want %d", p, len(plan.Rounds), want)
		}
	}
}

func TestPlanFlatIsFullySerial(t *testing.T) {
	plan := NewPlan(Flat, seqWorkers(8), nil)
	if len(plan.Rounds) != 7 {
		t.Errorf("flat depth = %d, want 7 (one combine per round)", len(plan.Rounds))
	}
	if plan.Root != 0 {
		t.Errorf("flat root = %d, want 0", plan.Root)
	}
	for _, round := range plan.Rounds {
		if len(round) != 1 {
			t.Fatalf("flat round has %d steps, want 1", len(round))
		}
		if round[0].To != 0 {
			t.Errorf("flat step %v does not target the root", round[0])
		}
	}
}

func TestPlanCalibratedRootsAtFittest(t *testing.T) {
	scores := map[int]float64{0: 3.0, 1: 0.5, 2: 2.0, 3: 1.0}
	plan := NewPlan(CalibratedTree, seqWorkers(4), scores)
	if plan.Root != 1 {
		t.Errorf("calibrated root = %d, want fittest worker 1", plan.Root)
	}
	if err := plan.Validate(seqWorkers(4)); err != nil {
		t.Fatal(err)
	}
	// Every combine must land on the fitter member of its pair.
	for _, round := range plan.Rounds {
		for _, s := range round {
			if scores[s.To] > scores[s.From] {
				t.Errorf("step %v combines on the less fit member", s)
			}
		}
	}
}

func TestPlanSingleWorker(t *testing.T) {
	for _, shape := range []Shape{Flat, Tree, CalibratedTree} {
		plan := NewPlan(shape, []int{7}, nil)
		if plan.Root != 7 || steps(plan) != 0 {
			t.Errorf("%v: plan = %+v", shape, plan)
		}
		if err := plan.Validate([]int{7}); err != nil {
			t.Error(err)
		}
	}
}

func TestPlanEmptyWorkers(t *testing.T) {
	plan := NewPlan(Tree, nil, nil)
	if steps(plan) != 0 {
		t.Errorf("empty plan has steps: %+v", plan)
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	workers := seqWorkers(4)
	cases := []struct {
		name string
		plan Plan
	}{
		{"root not a worker", Plan{Root: 9, Rounds: [][]Step{{{From: 1, To: 9}}}}},
		{"self combine", Plan{Root: 0, Rounds: [][]Step{{{From: 1, To: 1}}}}},
		{"worker twice in round", Plan{Root: 0, Rounds: [][]Step{{{From: 1, To: 0}, {From: 2, To: 1}}}}},
		{"reads eliminated", Plan{Root: 0, Rounds: [][]Step{{{From: 1, To: 0}}, {{From: 1, To: 0}}}}},
		{"too many survivors", Plan{Root: 0, Rounds: [][]Step{{{From: 1, To: 0}}}}},
		{"unknown worker", Plan{Root: 0, Rounds: [][]Step{{{From: 8, To: 0}}}}},
	}
	for _, tc := range cases {
		if err := tc.plan.Validate(workers); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.plan)
		}
	}
}

// TestPlanValidityProperty: every generated shape is structurally valid for
// arbitrary worker sets and score assignments.
func TestPlanValidityProperty(t *testing.T) {
	f := func(n uint8, shapeSel uint8, scoreSeed uint8) bool {
		p := int(n)%40 + 1
		shape := Shape(int(shapeSel) % 3)
		workers := seqWorkers(p)
		scores := make(map[int]float64, p)
		for i := range workers {
			scores[i] = float64((int(scoreSeed)+i*31)%17 + 1)
		}
		plan := NewPlan(shape, workers, scores)
		return plan.Validate(workers) == nil && steps(plan) == p-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// --- Execution ----------------------------------------------------------

func runLocalSum(t *testing.T, shape Shape, p int) Report {
	t.Helper()
	l := rt.NewLocal()
	pf := platform.NewLocalPlatform(l, p)
	values := make(map[int]any, p)
	for i := 0; i < p; i++ {
		values[i] = i + 1 // sum = p(p+1)/2
	}
	scores := make(map[int]float64, p)
	for i := 0; i < p; i++ {
		scores[i] = float64(p - i) // worker p-1 is fittest
	}
	plan := NewPlan(shape, seqWorkers(p), scores)
	var rep Report
	l.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, values, Op{
			Fn: func(a, b any) any { return a.(int) + b.(int) },
		}, plan, nil)
	})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunSumAllShapes(t *testing.T) {
	for _, shape := range []Shape{Flat, Tree, CalibratedTree} {
		for _, p := range []int{1, 2, 3, 7, 16} {
			rep := runLocalSum(t, shape, p)
			want := p * (p + 1) / 2
			if rep.Value != want {
				t.Errorf("%v P=%d: value=%v, want %d", shape, p, rep.Value, want)
			}
			if rep.Steps != p-1 {
				t.Errorf("%v P=%d: steps=%d", shape, p, rep.Steps)
			}
		}
	}
}

func TestRunShapeIndependenceProperty(t *testing.T) {
	// The reduction value must be identical across shapes for an
	// associative+commutative op, for arbitrary P.
	f := func(n uint8) bool {
		p := int(n)%20 + 1
		want := runLocalSum(t, Flat, p).Value
		return runLocalSum(t, Tree, p).Value == want &&
			runLocalSum(t, CalibratedTree, p).Value == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRunTreeBeatsFlatAtScaleOnGrid(t *testing.T) {
	// With 16 equal nodes and a non-trivial combine cost, the tree's
	// parallel rounds must beat the flat plan's serialised root combines.
	const p = 16
	run := func(shape Shape) time.Duration {
		pf, sim := gridPF(t, equalSpecs(p, 10))
		plan := NewPlan(shape, seqWorkers(p), nil)
		var rep Report
		sim.Go("root", func(c rt.Ctx) {
			rep = Run(pf, c, nil, Op{CombineCost: 5, Bytes: 1e3}, plan, nil)
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if rep.Steps != p-1 {
			t.Fatalf("%v steps=%d", shape, rep.Steps)
		}
		return rep.Makespan
	}
	flat := run(Flat)
	tree := run(Tree)
	if tree >= flat {
		t.Errorf("tree %v should beat flat %v at P=%d", tree, flat, p)
	}
}

func TestRunCalibratedBeatsTreeOnHeterogeneousGrid(t *testing.T) {
	// Node speeds vary 16×; the naive tree combines at arbitrary members
	// while the calibrated tree keeps combines on fast nodes.
	specs := []grid.NodeSpec{
		{BaseSpeed: 1}, {BaseSpeed: 2}, {BaseSpeed: 4}, {BaseSpeed: 8},
		{BaseSpeed: 16}, {BaseSpeed: 1}, {BaseSpeed: 2}, {BaseSpeed: 16},
	}
	scores := map[int]float64{}
	for i, s := range specs {
		scores[i] = 1 / s.BaseSpeed // predicted combine time
	}
	run := func(shape Shape) time.Duration {
		pf, sim := gridPF(t, specs)
		plan := NewPlan(shape, seqWorkers(len(specs)), scores)
		var rep Report
		sim.Go("root", func(c rt.Ctx) {
			rep = Run(pf, c, nil, Op{CombineCost: 10, Bytes: 100}, plan, nil)
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	naive := run(Tree)
	calibrated := run(CalibratedTree)
	if calibrated >= naive {
		t.Errorf("calibrated %v should beat naive tree %v", calibrated, naive)
	}
}

func TestRunCombinesByWorker(t *testing.T) {
	rep := runLocalSum(t, Flat, 5)
	if rep.CombinesByWorker[rep.Root] != 4 {
		t.Errorf("flat root combines = %d, want 4", rep.CombinesByWorker[rep.Root])
	}
}

func TestRunSurvivesNodeFailure(t *testing.T) {
	// Node 2 dies mid-combine; its partial (and everything it combined) is
	// lost but the reduction still terminates and reports the failures.
	specs := equalSpecs(4, 10)
	specs[2].FailAt = time.Millisecond
	pf, sim := gridPF(t, specs)
	plan := NewPlan(Tree, seqWorkers(4), nil)
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, nil, Op{CombineCost: 10, Bytes: 10}, plan, nil)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Failures == 0 {
		t.Error("failure should be counted")
	}
	if rep.Steps >= 3 {
		t.Errorf("steps = %d; the step touching the dead node cannot complete", rep.Steps)
	}
}

func TestRunEmptyPlan(t *testing.T) {
	pf, sim := gridPF(t, equalSpecs(1, 10))
	plan := NewPlan(Tree, []int{0}, nil)
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, map[int]any{0: 42}, Op{Bytes: 10, Fn: func(a, b any) any { return a }}, plan, nil)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Value != 42 || rep.Steps != 0 {
		t.Errorf("single-worker reduce: %+v", rep)
	}
}

func TestShapeString(t *testing.T) {
	for shape, want := range map[Shape]string{Flat: "flat", Tree: "tree", CalibratedTree: "calibrated", Shape(9): "shape(9)"} {
		if shape.String() != want {
			t.Errorf("String(%d) = %q", int(shape), shape.String())
		}
	}
}
