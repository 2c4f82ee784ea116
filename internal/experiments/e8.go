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
	"grasp/internal/stats"
)

// E8Heterogeneity sweeps node-speed heterogeneity (CV of the base-speed
// distribution) and compares three dispatch disciplines on an otherwise
// idle grid: the oblivious static round-robin partition, the
// calibration-weighted static partition, and the demand-driven farm.
//
// Expected shape: at CV=0 all three coincide; as CV grows the oblivious
// partition degrades fastest (its makespan is set by the slowest node's
// equal share), the weighted partition tracks the demand-driven farm, and
// imbalance mirrors the same ordering.
func E8Heterogeneity(seed int64) Result {
	const (
		nodes    = 16
		nTasks   = 480
		taskCost = 100.0
	)
	cvs := []float64{0, 0.25, 0.5, 1.0}

	table := report.NewTable("E8 — Dispatch discipline vs heterogeneity (idle grid)",
		"speed CV", "round-robin", "weighted", "demand", "rr imbalance", "demand imbalance")
	var checks []Check
	type cell struct{ rr, weighted, demand time.Duration }
	var cells []cell

	for _, cv := range cvs {
		specs := grid.HeterogeneousSpecs(seed+int64(cv*1000), nodes, 100, cv)
		tasks := fixedTasks(nTasks, taskCost, 0, 0)

		// Round-robin static partition over all nodes.
		wRR := newWorld(grid.Config{Nodes: specs}, 0, seed)
		var rrRep farm.Report
		wRR.run(func(c rt.Ctx) {
			rrRep = farm.RunStatic(wRR.pf, c, tasks, sched.RoundRobin(nTasks, nodes), nil, nil)
		})

		// Weighted static partition using calibrated speeds.
		wW := newWorld(grid.Config{Nodes: specs}, 0, seed)
		var wRep farm.Report
		wW.run(func(c rt.Ctx) {
			out, err := calibrate.Run(wW.pf, c, calibrate.Options{
				Strategy: calibrate.TimeOnly,
				Probes:   []platform.Task{{ID: -1, Cost: taskCost}},
			})
			if err != nil {
				panic(err)
			}
			weights := make([]float64, nodes)
			ws := out.Ranking.Weights(allOf(wW.pf))
			for i := range weights {
				weights[i] = ws[i]
			}
			wRep = farm.RunStatic(wW.pf, c, tasks, sched.WeightedBlocks(nTasks, weights), nil, nil)
		})

		// Demand-driven farm.
		wD := newWorld(grid.Config{Nodes: specs}, 0, seed)
		var dRep farm.Report
		wD.run(func(c rt.Ctx) {
			dRep = farm.Run(wD.pf, c, tasks, farm.Options{})
		})

		imb := func(r farm.Report) float64 {
			busy := make([]time.Duration, 0, nodes)
			for i := 0; i < nodes; i++ {
				busy = append(busy, r.BusyByWorker[i])
			}
			return stats.Imbalance(busy)
		}
		table.AddRow(cv, secs(rrRep.Makespan), secs(wRep.Makespan), secs(dRep.Makespan),
			imb(rrRep), imb(dRep))
		cells = append(cells, cell{rrRep.Makespan, wRep.Makespan, dRep.Makespan})

		if cv == 0 {
			close := func(a, b time.Duration) bool {
				hi, lo := a, b
				if hi < lo {
					hi, lo = lo, hi
				}
				return float64(hi)/float64(lo) < 1.05
			}
			checks = append(checks, check("parity-at-cv0",
				close(rrRep.Makespan, dRep.Makespan) && close(wRep.Makespan, dRep.Makespan),
				"rr=%v weighted=%v demand=%v", rrRep.Makespan, wRep.Makespan, dRep.Makespan))
		}
		if cv >= 0.5 {
			checks = append(checks,
				check(fmt.Sprintf("demand-beats-rr@cv%.2f", cv), dRep.Makespan < rrRep.Makespan,
					"demand %v vs rr %v", dRep.Makespan, rrRep.Makespan),
				check(fmt.Sprintf("weighted-beats-rr@cv%.2f", cv), wRep.Makespan < rrRep.Makespan,
					"weighted %v vs rr %v", wRep.Makespan, rrRep.Makespan))
		}
	}

	// The RR penalty must grow with CV.
	penaltyGrows := float64(cells[len(cells)-1].rr)/float64(cells[len(cells)-1].demand) >
		float64(cells[0].rr)/float64(cells[0].demand)
	checks = append(checks, check("rr-penalty-grows", penaltyGrows,
		"rr/demand at top CV %.2f vs at CV 0 %.2f",
		float64(cells[len(cells)-1].rr)/float64(cells[len(cells)-1].demand),
		float64(cells[0].rr)/float64(cells[0].demand)))
	table.AddNote("imbalance = max/mean busy − 1")
	return Result{ID: "E8", Title: "Heterogeneity and dispatch", Table: table, Checks: checks}
}

// runnerE8 registers E8 in the experiment index with its execution
// placement — the substrate seam every experiment declares.
var runnerE8 = Runner{ID: "E8", Title: "Heterogeneity and dispatch policy", Placement: PlaceVSim, Run: E8Heterogeneity}
