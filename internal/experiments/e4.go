package experiments

import (
	"fmt"
	"time"

	"grasp/internal/core"
	"grasp/internal/grid"
	"grasp/internal/loadgen"
	"grasp/internal/report"
	"grasp/internal/rt"
	"grasp/internal/skel/pipeline"
)

// E4PipeAdaptive reproduces the shape of ref [7]'s evaluation: a 6-stage
// pipeline on a 12-node grid where the node hosting stage 2 collapses under
// external pressure mid-run. The adaptive pipeline (per-stage detectors +
// spare pool) remaps the stage; the static pipeline crawls at the loaded
// node's pace for the rest of the run.
func E4PipeAdaptive(seed int64) Result {
	const (
		nodes     = 12
		nStages   = 6
		speed     = 100.0
		stageCost = 100.0 // 1s per item per stage when idle
		nItems    = 100
		pressAt   = 10 * time.Second
		pressure  = 0.95
	)
	specs := func() []grid.NodeSpec {
		s := make([]grid.NodeSpec, nodes)
		for i := range s {
			s[i] = grid.NodeSpec{BaseSpeed: speed}
		}
		// Equal speeds → calibration maps stage i onto node i; stage 2's
		// node comes under pressure mid-run.
		s[2].Load = loadgen.NewStep(pressAt, 0, pressure)
		return s
	}
	stages := func() []pipeline.Stage {
		st := make([]pipeline.Stage, nStages)
		for i := range st {
			st[i] = pipeline.Stage{
				Name: fmt.Sprintf("stage%d", i),
				Cost: func(int) float64 { return stageCost },
			}
		}
		return st
	}

	// Static pipeline: identical mapping, no detectors.
	wS := newWorld(grid.Config{Nodes: specs()}, 0, seed)
	var staticRep pipeline.Report
	wS.run(func(c rt.Ctx) {
		staticRep = pipeline.Run(wS.pf, c, stages(), nItems, pipeline.Options{
			Mapping: []int{0, 1, 2, 3, 4, 5},
		})
	})

	// Adaptive GRASP pipeline.
	wA := newWorld(grid.Config{Nodes: specs()}, 0, seed)
	var adaRep core.PipelineReport
	wA.run(func(c rt.Ctx) {
		var err error
		adaRep, err = core.RunPipeline(wA.pf, c, stages(), nItems, core.PipelineConfig{
			ThresholdFactor: 3,
		})
		if err != nil {
			panic(err)
		}
	})

	table := report.NewTable("E4 — Adaptive vs static pipeline under stage pressure",
		"variant", "makespan", "items", "remaps", "tail throughput (items/s)")
	staticTail := tailThroughput(staticRep.ExitTimes, 0.25)
	adaTail := tailThroughput(adaRep.Pipeline.ExitTimes, 0.25)
	table.AddRow("static", secs(staticRep.Makespan), staticRep.Items, 0, staticTail)
	table.AddRow("adaptive", secs(adaRep.Pipeline.Makespan), adaRep.Pipeline.Items,
		len(adaRep.Pipeline.Remaps), adaTail)
	ratio := staticRep.Makespan.Seconds() / adaRep.Pipeline.Makespan.Seconds()
	table.AddNote("static/adaptive = %.2f; tail throughput over the final 25%% of items", ratio)

	checks := []Check{
		check("all-items-static", staticRep.Items == nItems, "%d items", staticRep.Items),
		check("all-items-adaptive", adaRep.Pipeline.Items == nItems, "%d items", adaRep.Pipeline.Items),
		check("remapped", len(adaRep.Pipeline.Remaps) >= 1, "remaps=%d", len(adaRep.Pipeline.Remaps)),
		check("adaptive-wins", adaRep.Pipeline.Makespan < staticRep.Makespan,
			"adaptive %v vs static %v", adaRep.Pipeline.Makespan, staticRep.Makespan),
		check("decisive", ratio > 2, "ratio=%.2f (pressured stage throttles the whole static pipe)", ratio),
		check("throughput-recovers", adaTail > staticTail*2,
			"tail throughput %.3f vs %.3f items/s", adaTail, staticTail),
	}
	return Result{ID: "E4", Title: "Adaptive vs static pipeline", Table: table, Checks: checks}
}

// runnerE4 registers E4 in the experiment index.
var runnerE4 = Runner{ID: "E4", Title: "Adaptive vs static pipeline (ref [7] shape)", Run: E4PipeAdaptive}
