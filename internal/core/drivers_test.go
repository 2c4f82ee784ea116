package core

import (
	"sort"
	"testing"
	"time"

	"grasp/internal/calibrate"
	"grasp/internal/grid"
	"grasp/internal/loadgen"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/skel/compose"
	"grasp/internal/skel/dc"
	"grasp/internal/skel/reduce"
	"grasp/internal/vsim"
)

func driverWorld(t *testing.T, specs []grid.NodeSpec) (*platform.GridPlatform, *rt.Sim) {
	t.Helper()
	env := vsim.New()
	sim := rt.NewSim(env)
	g, err := grid.New(env, grid.Config{Nodes: specs})
	if err != nil {
		t.Fatal(err)
	}
	return platform.NewGridPlatform(sim, g, 0, 1), sim
}

func driverTasks(n int, cost float64) []platform.Task {
	tasks := make([]platform.Task, n)
	for i := range tasks {
		tasks[i] = platform.Task{ID: i, Cost: cost}
	}
	return tasks
}

func evenSpecs(n int, speed float64) []grid.NodeSpec {
	specs := make([]grid.NodeSpec, n)
	for i := range specs {
		specs[i] = grid.NodeSpec{BaseSpeed: speed}
	}
	return specs
}

// --- RunMap ---------------------------------------------------------------

func TestRunMapCompletesAll(t *testing.T) {
	pf, sim := driverWorld(t, evenSpecs(4, 10))
	var rep Report
	var err error
	sim.Go("root", func(c rt.Ctx) {
		rep, err = RunMap(pf, c, driverTasks(100, 1), MapConfig{})
	})
	if e := sim.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 100 {
		t.Errorf("results = %d, want 100 (calibration included)", len(rep.Results))
	}
	if rep.CalibrationTasks != 4 {
		t.Errorf("calibration tasks = %d, want 4", rep.CalibrationTasks)
	}
	if rep.Recalibrations != 0 {
		t.Errorf("idle grid should not recalibrate: %d", rep.Recalibrations)
	}
}

func TestRunMapRecalibratesUnderPressure(t *testing.T) {
	// Heavy pressure lands on half the nodes shortly after start; the map's
	// threshold must breach and feed back to calibration.
	press := loadgen.NewStep(2*time.Second, 0, 0.95)
	specs := []grid.NodeSpec{
		{BaseSpeed: 10, Load: press},
		{BaseSpeed: 10, Load: press},
		{BaseSpeed: 10},
		{BaseSpeed: 10},
	}
	pf, sim := driverWorld(t, specs)
	var rep Report
	var err error
	sim.Go("root", func(c rt.Ctx) {
		rep, err = RunMap(pf, c, driverTasks(400, 1), MapConfig{
			ThresholdFactor: 3,
			Waves:           8,
			SelectK:         4,
		})
	})
	if e := sim.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 400 {
		t.Fatalf("results = %d", len(rep.Results))
	}
	if rep.Recalibrations == 0 {
		t.Error("pressure should trigger at least one recalibration")
	}
}

func TestRunMapAdaptiveBeatsStaticUnderPressure(t *testing.T) {
	press := loadgen.NewStep(2*time.Second, 0, 0.9)
	build := func() []grid.NodeSpec {
		return []grid.NodeSpec{
			{BaseSpeed: 10, Load: press},
			{BaseSpeed: 10, Load: press},
			{BaseSpeed: 10},
			{BaseSpeed: 10},
		}
	}
	tasks := driverTasks(400, 1)

	pfA, simA := driverWorld(t, build())
	var adaptive Report
	simA.Go("root", func(c rt.Ctx) {
		adaptive, _ = RunMap(pfA, c, tasks, MapConfig{ThresholdFactor: 3, Waves: 8})
	})
	if e := simA.Run(); e != nil {
		t.Fatal(e)
	}

	pfS, simS := driverWorld(t, build())
	var static Report
	simS.Go("root", func(c rt.Ctx) {
		// Static: huge threshold factor disables adaptation; one wave.
		static, _ = RunMap(pfS, c, tasks, MapConfig{ThresholdFactor: 1e9, Waves: 1})
	})
	if e := simS.Run(); e != nil {
		t.Fatal(e)
	}
	if adaptive.Makespan >= static.Makespan {
		t.Errorf("adaptive %v should beat static %v", adaptive.Makespan, static.Makespan)
	}
}

func TestRunMapTooFewTasksStillWorks(t *testing.T) {
	pf, sim := driverWorld(t, evenSpecs(8, 10))
	var rep Report
	var err error
	sim.Go("root", func(c rt.Ctx) {
		rep, err = RunMap(pf, c, driverTasks(3, 1), MapConfig{})
	})
	if e := sim.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Errorf("results = %d", len(rep.Results))
	}
}

// --- RunMapReduce ----------------------------------------------------------

func TestRunMapReduceSumsOnLocalPlatform(t *testing.T) {
	l := rt.NewLocal()
	pf := platform.NewLocalPlatform(l, 4)
	const n = 40
	tasks := make([]platform.Task, n)
	for i := range tasks {
		i := i
		tasks[i] = platform.Task{ID: i, Fn: func() any { return i }}
	}
	var rep MapReduceReport
	var err error
	l.Go("root", func(c rt.Ctx) {
		rep, err = RunMapReduce(pf, c, tasks, MapReduceConfig{
			Fold:     func(acc, v any) any { return acc.(int) + v.(int) },
			Identity: 0,
		})
	})
	if e := l.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := n * (n - 1) / 2
	if rep.Value != want {
		t.Errorf("value = %v, want %d", rep.Value, want)
	}
	if len(rep.MapResults) != n {
		t.Errorf("map results = %d, want %d", len(rep.MapResults), n)
	}
}

func TestRunMapReduceOnGridUsesCalibratedPlan(t *testing.T) {
	specs := []grid.NodeSpec{
		{BaseSpeed: 40}, {BaseSpeed: 10}, {BaseSpeed: 20}, {BaseSpeed: 5},
	}
	pf, sim := driverWorld(t, specs)
	var rep MapReduceReport
	var err error
	sim.Go("root", func(c rt.Ctx) {
		rep, err = RunMapReduce(pf, c, driverTasks(100, 1), MapReduceConfig{
			Strategy:    calibrate.TimeOnly,
			Shape:       reduce.CalibratedTree,
			CombineCost: 2,
			Bytes:       100,
		})
	})
	if e := sim.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MapResults) != 100 {
		t.Errorf("map results = %d", len(rep.MapResults))
	}
	if rep.Reduce.Steps != len(rep.Chosen)-1 {
		t.Errorf("reduce steps = %d, want %d", rep.Reduce.Steps, len(rep.Chosen)-1)
	}
	// The calibrated plan roots at the fittest node (node 0, speed 40).
	if rep.Reduce.Root != 0 {
		t.Errorf("reduce root = %d, want the fittest node 0", rep.Reduce.Root)
	}
}

func TestRunMapReduceRejectsTinyJobs(t *testing.T) {
	pf, sim := driverWorld(t, evenSpecs(8, 10))
	var err error
	sim.Go("root", func(c rt.Ctx) {
		_, err = RunMapReduce(pf, c, driverTasks(3, 1), MapReduceConfig{})
	})
	if e := sim.Run(); e != nil {
		t.Fatal(e)
	}
	if err == nil {
		t.Error("want error for fewer tasks than nodes")
	}
}

// --- RunDC ------------------------------------------------------------------

func dcSumOp() dc.Op {
	return dc.Op{
		Divide: func(p any) []any {
			s := p.([]int)
			mid := len(s) / 2
			return []any{s[:mid], s[mid:]}
		},
		Indivisible: dc.SizeGrain(func(p any) int { return len(p.([]int)) }, 8),
		Base: func(p any) any {
			sum := 0
			for _, v := range p.([]int) {
				sum += v
			}
			return sum
		},
		Combine:     func(subs []any) any { return subs[0].(int) + subs[1].(int) },
		BaseCost:    func(p any) float64 { return float64(len(p.([]int))) },
		CombineCost: func(int) float64 { return 1 },
	}
}

func TestRunDCOnLocalPlatform(t *testing.T) {
	input := make([]int, 200)
	want := 0
	for i := range input {
		input[i] = i
		want += i
	}
	l := rt.NewLocal()
	pf := platform.NewLocalPlatform(l, 4)
	var rep DCReport
	var err error
	l.Go("root", func(c rt.Ctx) {
		rep, err = RunDC(pf, c, input, dcSumOp(), DCConfig{})
	})
	if e := l.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep.DC.Value != want {
		t.Errorf("value = %v, want %d", rep.DC.Value, want)
	}
}

func TestRunDCOnGrid(t *testing.T) {
	input := make([]int, 256)
	pf, sim := driverWorld(t, evenSpecs(4, 50))
	var rep DCReport
	var err error
	sim.Go("root", func(c rt.Ctx) {
		rep, err = RunDC(pf, c, input, dcSumOp(), DCConfig{ProbeCost: 8})
	})
	if e := sim.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep.DC.Incomplete {
		t.Error("run incomplete")
	}
	if rep.DC.Leaves != 32 {
		t.Errorf("leaves = %d, want 32", rep.DC.Leaves)
	}
	if rep.CalibrationWork == 0 {
		t.Error("calibration probes should be recorded")
	}
}

func TestRunDCRecalibratesOnBreach(t *testing.T) {
	// All nodes collapse under pressure right after calibration; the first
	// attempt breaches, the second (recalibrated under load, so with a
	// realistic Z) completes.
	press := loadgen.NewStep(500*time.Millisecond, 0, 0.9)
	specs := []grid.NodeSpec{
		{BaseSpeed: 50, Load: press},
		{BaseSpeed: 50, Load: press},
	}
	input := make([]int, 256)
	pf, sim := driverWorld(t, specs)
	var rep DCReport
	var err error
	sim.Go("root", func(c rt.Ctx) {
		rep, err = RunDC(pf, c, input, dcSumOp(), DCConfig{ProbeCost: 8, ThresholdFactor: 2})
	})
	if e := sim.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recalibrations == 0 {
		t.Error("collapse should force a recalibration")
	}
	if rep.DC.Incomplete {
		t.Error("second attempt should complete")
	}
}

// --- RunPipeOfFarms ----------------------------------------------------------

func TestRunPipeOfFarmsDeliversAndSizesPools(t *testing.T) {
	pf, sim := driverWorld(t, evenSpecs(8, 10))
	stages := []compose.Stage{
		{Name: "light", Cost: func(int) float64 { return 1 }},
		{Name: "heavy", Cost: func(int) float64 { return 3 }},
	}
	var rep PipeOfFarmsReport
	var err error
	sim.Go("root", func(c rt.Ctx) {
		rep, err = RunPipeOfFarms(pf, c, stages, 60, PipeOfFarmsConfig{BufSize: 4})
	})
	if e := sim.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pipe.Items != 60 {
		t.Errorf("items = %d", rep.Pipe.Items)
	}
	if len(rep.Pools[1]) <= len(rep.Pools[0]) {
		t.Errorf("heavy stage pool %d should outsize light stage pool %d",
			len(rep.Pools[1]), len(rep.Pools[0]))
	}
}

func TestRunPipeOfFarmsRejectsTooManyStages(t *testing.T) {
	pf, sim := driverWorld(t, evenSpecs(2, 10))
	stages := make([]compose.Stage, 3)
	var err error
	sim.Go("root", func(c rt.Ctx) {
		_, err = RunPipeOfFarms(pf, c, stages, 10, PipeOfFarmsConfig{})
	})
	if e := sim.Run(); e != nil {
		t.Fatal(e)
	}
	if err == nil {
		t.Error("want error for more stages than nodes")
	}
}

func TestRunPipeOfFarmsValuesOnLocal(t *testing.T) {
	l := rt.NewLocal()
	pf := platform.NewLocalPlatform(l, 4)
	stages := []compose.Stage{
		{Name: "sq", Fn: func(v any) any { return v.(int) * v.(int) }},
		{Name: "neg", Fn: func(v any) any { return -v.(int) }},
	}
	var rep PipeOfFarmsReport
	var err error
	l.Go("root", func(c rt.Ctx) {
		rep, err = RunPipeOfFarms(pf, c, stages, 10, PipeOfFarmsConfig{})
	})
	if e := l.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, 0, rep.Pipe.Items)
	for _, o := range rep.Pipe.Outputs {
		got = append(got, o.Value.(int))
	}
	sort.Ints(got)
	for i, v := range got {
		if want := -((9 - i) * (9 - i)); v != want {
			t.Errorf("sorted output[%d] = %d, want %d", i, v, want)
		}
	}
}
