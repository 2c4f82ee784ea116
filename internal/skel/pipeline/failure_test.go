package pipeline

import (
	"testing"
	"time"

	"grasp/internal/grid"
	"grasp/internal/loadgen"
	"grasp/internal/rt"
)

func TestPipelineRemapsOnWorkerCrash(t *testing.T) {
	// Stage 0's node dies at t=2s; the stage must retire it, remap onto
	// the spare, retry the in-flight item, and lose nothing.
	pf, sim := gridPF(t, []grid.NodeSpec{
		{BaseSpeed: 10, FailAt: 2 * time.Second},
		{BaseSpeed: 10},
		{BaseSpeed: 10}, // spare
	})
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedStages(2, 1), 30, Options{
			Mapping: []int{0, 1},
			Spares:  []int{2},
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Items != 30 {
		t.Fatalf("items = %d, want 30", rep.Items)
	}
	if rep.Failures == 0 {
		t.Error("expected a recorded failure")
	}
	if len(rep.Remaps) == 0 {
		t.Fatal("expected a crash remap")
	}
	if rep.Remaps[0].FromWorker != 0 || rep.Remaps[0].ToWorker != 2 {
		t.Errorf("remap = %+v", rep.Remaps[0])
	}
	if rep.FinalMapping[0] != 2 {
		t.Errorf("final mapping = %v", rep.FinalMapping)
	}
	if rep.Lost != 0 {
		t.Errorf("lost = %d, want 0", rep.Lost)
	}
	// FIFO output preserved through the crash.
	for i, v := range rep.Outputs {
		if v.(int) != i {
			t.Fatalf("outputs out of order after crash: %v", rep.Outputs)
		}
	}
}

func TestPipelineCrashedWorkerNotRecycled(t *testing.T) {
	// After a crash remap, the dead worker must not return to the spare
	// pool: a later slowness remap on the other stage must not pick it.
	pf, sim := gridPF(t, []grid.NodeSpec{
		{BaseSpeed: 10, FailAt: time.Second},
		{BaseSpeed: 10},
		{BaseSpeed: 10},
		{BaseSpeed: 10},
	})
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedStages(2, 1), 40, Options{
			Mapping: []int{0, 1},
			Spares:  []int{2, 3},
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.FinalMapping {
		if m == 0 {
			t.Errorf("dead worker back in the mapping: %v", rep.FinalMapping)
		}
	}
	if rep.Items != 40 {
		t.Errorf("items = %d", rep.Items)
	}
}

func TestPipelineLosesItemsWithoutSpares(t *testing.T) {
	// No spares: items hitting the dead stage are unrecoverable and must be
	// counted as lost, while the pipeline still terminates cleanly.
	pf, sim := gridPF(t, []grid.NodeSpec{
		{BaseSpeed: 10, FailAt: time.Second},
		{BaseSpeed: 10},
	})
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedStages(2, 1), 20, Options{
			Mapping: []int{0, 1},
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Lost == 0 {
		t.Error("expected lost items without spares")
	}
	if rep.Items+rep.Lost != 20 {
		t.Errorf("conservation violated: %d exited + %d lost != 20", rep.Items, rep.Lost)
	}
}

func TestPipelineVacatedWorkerCrashCostsNothing(t *testing.T) {
	// Stage 0's node slows at 0.5s and the breach remaps the stage onto
	// the spare; the vacated node then dies at 3s. A stage farm holds one
	// item and the remap happens on that item's completion, so the
	// vacated node was idle when it left: its crash loses nothing, and
	// only a stage's mapped worker can ever reach the failure hook.
	pf, sim := gridPF(t, []grid.NodeSpec{
		{BaseSpeed: 10, Load: loadgen.NewStep(500*time.Millisecond, 0, 0.9), FailAt: 3 * time.Second},
		{BaseSpeed: 10},
		{BaseSpeed: 10}, // spare
	})
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedStages(2, 1), 60, Options{
			Mapping:     []int{0, 1},
			Spares:      []int{2},
			DetectorFor: tightDetector(300 * time.Millisecond),
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Remaps) != 1 || rep.Remaps[0].FromWorker != 0 || rep.Remaps[0].At >= 3*time.Second || rep.Makespan <= 4*time.Second {
		t.Fatalf("remaps = %+v, want one off worker 0 before it dies, and a run past its death", rep.Remaps)
	}
	if rep.Items != 60 || rep.Failures != 0 || rep.Lost != 0 {
		t.Errorf("items %d, failures %d, lost %d; want 60, 0, 0", rep.Items, rep.Failures, rep.Lost)
	}
}
