package core

import (
	"testing"
	"time"

	"grasp/internal/grid"
	"grasp/internal/rt"
	"grasp/internal/skel/compose"
	"grasp/internal/skel/reduce"
)

func TestRunMapSurvivesNodeCrash(t *testing.T) {
	// One node dies mid-run; the map's waves must re-queue its lost block
	// tails and finish on the survivors.
	specs := evenSpecs(4, 10)
	specs[2].FailAt = 2 * time.Second
	pf, sim := driverWorld(t, specs)
	var rep Report
	var err error
	sim.Go("root", func(c rt.Ctx) {
		rep, err = RunMap(pf, c, driverTasks(200, 1), MapConfig{Waves: 8})
	})
	if e := sim.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 200 {
		t.Fatalf("results = %d, want 200 despite the crash", len(rep.Results))
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

func TestRunMapAllNodesDeadReturnsError(t *testing.T) {
	specs := []grid.NodeSpec{
		{BaseSpeed: 10, FailAt: time.Second},
		{BaseSpeed: 10, FailAt: time.Second},
	}
	pf, sim := driverWorld(t, specs)
	var err error
	sim.Go("root", func(c rt.Ctx) {
		_, err = RunMap(pf, c, driverTasks(500, 1), MapConfig{Waves: 4})
	})
	if e := sim.Run(); e != nil {
		t.Fatal(e)
	}
	if err == nil {
		t.Error("a fully dead platform must surface an error")
	}
}

func TestRunMapReduceSurvivesCrashDuringReduce(t *testing.T) {
	// A node dies after the map phase but during the reduction: the
	// reduction loses that partial (reported via Reduce.Failures) yet
	// terminates, and the map results remain intact.
	specs := evenSpecs(4, 100)
	// Node 2 performs a round-1 combine (≈0.3s–2.3s); dying at 1s lands
	// mid-combine. The map phase (100×1-cost tasks) is long over by then.
	specs[2].FailAt = time.Second
	pf, sim := driverWorld(t, specs)
	var rep MapReduceReport
	var err error
	sim.Go("root", func(c rt.Ctx) {
		rep, err = RunMapReduce(pf, c, driverTasks(100, 1), MapReduceConfig{
			Shape:       reduce.Tree,
			CombineCost: 200, // 2 s per combine: the crash lands mid-reduce
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
	if rep.Reduce.Failures == 0 {
		t.Error("the reduction should report the lost partial")
	}
}

func TestRunDCImpossibleJobErrors(t *testing.T) {
	// Every node dies almost immediately: RunDC must give up with an error
	// after its recalibration budget, not loop forever.
	specs := []grid.NodeSpec{
		{BaseSpeed: 10, FailAt: 50 * time.Millisecond},
		{BaseSpeed: 10, FailAt: 50 * time.Millisecond},
	}
	input := make([]int, 64)
	pf, sim := driverWorld(t, specs)
	var err error
	sim.Go("root", func(c rt.Ctx) {
		_, err = RunDC(pf, c, input, dcSumOp(), DCConfig{ProbeCost: 0.01, MaxRecalibrations: 1})
	})
	if e := sim.Run(); e != nil {
		t.Fatal(e)
	}
	if err == nil {
		t.Error("an unexecutable D&C job must surface an error")
	}
}

func TestRunPipeOfFarmsSurvivesPoolMemberCrash(t *testing.T) {
	specs := evenSpecs(6, 10)
	specs[4].FailAt = 3 * time.Second
	pf, sim := driverWorld(t, specs)
	stages := []compose.Stage{
		{Name: "a", Cost: func(int) float64 { return 1 }},
		{Name: "b", Cost: func(int) float64 { return 2 }},
	}
	var rep PipeOfFarmsReport
	var err error
	sim.Go("root", func(c rt.Ctx) {
		rep, err = RunPipeOfFarms(pf, c, stages, 100, PipeOfFarmsConfig{BufSize: 4})
	})
	if e := sim.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pipe.Items != 100 {
		t.Errorf("items = %d; surviving pool members must finish", rep.Pipe.Items)
	}
	if rep.Pipe.Failures == 0 {
		t.Error("the crash should be counted")
	}
}
