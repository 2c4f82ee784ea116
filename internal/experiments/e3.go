package experiments

import (
	"fmt"
	"time"

	"grasp/internal/core"
	"grasp/internal/grid"
	"grasp/internal/loadgen"
	"grasp/internal/report"
	"grasp/internal/rt"
	"grasp/internal/stats"
)

// E3FarmAdaptive reproduces the shape of ref [6]'s evaluation: a task farm
// on a grid whose chosen nodes come under external pressure mid-run,
// adaptive (GRASP: demand-driven dispatch + threshold-triggered
// recalibration) versus the conventional static farm (one calibration,
// fixed equal partition).
//
// Pressure sweeps ℓ ∈ {0, 0.3, 0.6, 0.9} applied to every initially chosen
// node at t=10s. Expected shape: below the threshold the two are close
// (variations "up to the threshold" are tolerated by design); above it the
// adaptive farm escapes to the spare nodes and the gap opens monotonically.
func E3FarmAdaptive(seed int64) Result {
	const (
		nodes    = 16
		selectK  = 8
		speed    = 100.0
		taskCost = 100.0
		nTasks   = 400
		pressAt  = 10 * time.Second
		factor   = 2 // Z = 2 × calibrated mean
	)
	levels := []float64{0, 0.3, 0.6, 0.9}

	table := report.NewTable("E3 — Adaptive vs static task farm under external pressure",
		"pressure", "static", "adaptive", "ratio", "recals")
	var checks []Check
	var ratios []float64

	for _, level := range levels {
		specs := func() []grid.NodeSpec {
			s := make([]grid.NodeSpec, nodes)
			for i := range s {
				s[i] = grid.NodeSpec{BaseSpeed: speed}
				if i < selectK && level > 0 {
					s[i].Load = loadgen.NewStep(pressAt, 0, level)
				}
			}
			return s
		}

		// Static baseline.
		wS := newWorld(grid.Config{Nodes: specs()}, 0, seed)
		var staticSpan time.Duration
		wS.run(func(c rt.Ctx) {
			staticSpan = staticFarmBaseline(wS.pf, c, fixedTasks(nTasks, taskCost, 0, 0), selectK)
		})

		// Adaptive GRASP farm.
		wA := newWorld(grid.Config{Nodes: specs()}, 0, seed)
		var rep core.Report
		wA.run(func(c rt.Ctx) {
			var err error
			rep, err = core.RunFarm(wA.pf, c, fixedTasks(nTasks, taskCost, 0, 0), core.Config{
				SelectK:         selectK,
				ThresholdFactor: factor,
			})
			if err != nil {
				panic(err)
			}
		})

		ratio := stats.Speedup(staticSpan, rep.Makespan)
		ratios = append(ratios, ratio)
		table.AddRow(fmt.Sprintf("%.0f%%", level*100), secs(staticSpan), secs(rep.Makespan),
			ratio, rep.Recalibrations)

		checks = append(checks, check(fmt.Sprintf("complete@%.0f%%", level*100),
			len(rep.Results) == nTasks, "%d results", len(rep.Results)))
		if level == 0 {
			checks = append(checks, check("parity-at-zero", ratio > 0.9 && ratio < 1.3,
				"ratio=%.2f: without pressure adaptive ≈ static", ratio))
		}
		if level >= 0.6 {
			checks = append(checks, check(fmt.Sprintf("adapts@%.0f%%", level*100),
				rep.Recalibrations >= 1, "recalibrations=%d", rep.Recalibrations))
		}
	}

	// The gap must open monotonically (small tolerance for dispatch noise)
	// and be decisive at the top level.
	mono := true
	for i := 1; i < len(ratios); i++ {
		if ratios[i] < ratios[i-1]*0.95 {
			mono = false
		}
	}
	checks = append(checks,
		check("gap-monotone", mono, "ratios=%v", ratios),
		check("decisive-at-90%", ratios[len(ratios)-1] > 2,
			"static/adaptive=%.2f at 90%% pressure", ratios[len(ratios)-1]),
	)
	table.AddNote("ratio = static/adaptive makespan; >1 means adaptive wins")
	return Result{ID: "E3", Title: "Adaptive vs static farm", Table: table, Checks: checks}
}

// runnerE3 registers E3 in the experiment index.
var runnerE3 = Runner{ID: "E3", Title: "Adaptive vs static task farm under pressure (ref [6] shape)", Run: E3FarmAdaptive}
