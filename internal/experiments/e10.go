package experiments

import (
	"fmt"
	"time"

	"grasp/internal/calibrate"
	"grasp/internal/grid"
	"grasp/internal/platform"
	"grasp/internal/report"
	"grasp/internal/rt"
	"grasp/internal/sched"
	"grasp/internal/skel/farm"
	"grasp/internal/workload"
)

// E10Ablation ablates the farm's granularity lever — the chunk policy the
// paper calls "blocking of communications" — across task-cost
// distributions, measuring both makespan and farmer round-trips (dispatch
// traffic).
//
// Expected shape: per-task dispatch (Single) is the makespan reference but
// pays maximal traffic; coarse fixed chunks slash traffic but strand work
// on slow nodes when costs are irregular (Pareto/bimodal); guided and
// factoring sit between, cutting most traffic at a small makespan premium.
func E10Ablation(seed int64) Result {
	const (
		nodes  = 12
		nTasks = 600
	)
	specs := grid.HeterogeneousSpecs(seed, nodes, 100, 0.3)
	dists := []struct {
		name string
		d    workload.Dist
	}{
		{"uniform", workload.Uniform{Lo: 50, Hi: 150}},
		{"pareto", workload.Pareto{Xm: 50, Alpha: 1.8}},
		{"bimodal", workload.Bimodal{Light: 20, Heavy: 400, PHeavy: 0.1}},
	}
	policies := []struct {
		name string
		mk   func() sched.ChunkPolicy
	}{
		{"single", func() sched.ChunkPolicy { return sched.Single{} }},
		{"fixed16", func() sched.ChunkPolicy { return sched.FixedChunk{K: 16} }},
		{"guided", func() sched.ChunkPolicy { return sched.Guided{F: 2} }},
		{"factoring", func() sched.ChunkPolicy { return sched.NewFactoring() }},
		{"weighted", func() sched.ChunkPolicy { return sched.Weighted{F: 4} }},
		// The dynamic controller: chunks sized from observed per-worker task
		// times, aiming at ~8-task batches on a mean node.
		{"adaptive", func() sched.ChunkPolicy { return sched.NewAdaptiveChunk(8 * time.Second) }},
	}

	table := report.NewTable("E10 — Chunk policy × workload (makespan | farmer round-trips)",
		"workload", "single", "fixed16", "guided", "factoring", "weighted", "adaptive")
	var checks []Check
	for _, dist := range dists {
		items := workload.Spec{N: nTasks, Cost: dist.d, Seed: seed}.Build()
		tasks := platform.TasksFromItems(items)
		row := []any{dist.name}
		spans := map[string]time.Duration{}
		reqs := map[string]int{}
		for _, pol := range policies {
			w := newWorld(grid.Config{Nodes: specs}, 0, seed)
			var rep farm.Report
			w.run(func(c rt.Ctx) {
				out, err := calibrate.Run(w.pf, c, calibrate.Options{
					Strategy: calibrate.TimeOnly,
					Probes:   []platform.Task{{ID: -1, Cost: 100}},
				})
				if err != nil {
					panic(err)
				}
				rep = farm.Run(w.pf, c, tasks, farm.Options{
					Chunk:   pol.mk(),
					Weights: out.Ranking.Weights(allOf(w.pf)),
				})
			})
			spans[pol.name] = rep.Makespan
			reqs[pol.name] = rep.Requests
			row = append(row, fmt.Sprintf("%s|%d", secs(rep.Makespan), rep.Requests))
		}
		table.AddRow(row...)

		checks = append(checks,
			check("traffic-amortised@"+dist.name,
				reqs["fixed16"]*4 < reqs["single"],
				"fixed16 %d vs single %d round-trips", reqs["fixed16"], reqs["single"]),
			check("single-is-reference@"+dist.name,
				spans["single"] <= spans["fixed16"],
				"single %v vs fixed16 %v", spans["single"], spans["fixed16"]))
		if dist.name != "uniform" {
			checks = append(checks, check("coarse-chunks-hurt-irregular@"+dist.name,
				float64(spans["fixed16"]) > float64(spans["single"])*1.05,
				"fixed16 %v vs single %v", spans["fixed16"], spans["single"]))
		}
		checks = append(checks, check("guided-good-compromise@"+dist.name,
			float64(spans["guided"]) < float64(spans["single"])*1.5 &&
				reqs["guided"]*2 < reqs["single"],
			"guided %v/%d vs single %v/%d", spans["guided"], reqs["guided"],
			spans["single"], reqs["single"]))
		checks = append(checks, check("adaptive-good-compromise@"+dist.name,
			float64(spans["adaptive"]) < float64(spans["single"])*1.25 &&
				reqs["adaptive"]*2 < reqs["single"],
			"adaptive %v/%d vs single %v/%d", spans["adaptive"], reqs["adaptive"],
			spans["single"], reqs["single"]))
	}
	table.AddNote("cells are makespan|round-trips; calibrated weights feed the weighted policy")
	return Result{ID: "E10", Title: "Chunk-policy ablation", Table: table, Checks: checks}
}

// runnerE10 registers E10 in the experiment index.
var runnerE10 = Runner{ID: "E10", Title: "Ablation: chunk policy × workload", Run: E10Ablation}
