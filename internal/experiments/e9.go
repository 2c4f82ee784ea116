package experiments

import (
	"fmt"
	"time"

	"grasp/internal/calibrate"
	"grasp/internal/core"
	"grasp/internal/grid"
	"grasp/internal/platform"
	"grasp/internal/report"
	"grasp/internal/rt"
	"grasp/internal/skel/farm"
	"grasp/internal/trace"
)

// E9CalibCost quantifies the paper's claim that "the processing performed
// during the calibration contributes to the overall job": calibration
// overhead as a fraction of total makespan across job sizes, and the cost
// of the alternative design in which calibration probes are throwaway
// work (synthetic probes whose results are discarded).
//
// Expected shape: the overhead fraction decays toward zero as the job
// grows, and counting the samples is never slower than discarding them.
func E9CalibCost(seed int64) Result {
	const (
		nodes    = 8
		taskCost = 100.0
	)
	sizes := []int{50, 200, 1000, 4000}
	specs := grid.HeterogeneousSpecs(seed, nodes, 100, 0.5)

	table := report.NewTable("E9 — Calibration cost amortisation",
		"job size", "calibration span", "total", "overhead %", "discarded-probe total")
	var fractions []float64
	var checks []Check
	for _, n := range sizes {
		tasks := fixedTasks(n, taskCost, 0, 0)

		// GRASP: probes are the first P real tasks.
		wG := newWorld(grid.Config{Nodes: specs}, 0, seed)
		log := trace.New()
		var rep core.Report
		wG.run(func(c rt.Ctx) {
			var err error
			rep, err = core.RunFarm(wG.pf, c, tasks, core.Config{Log: log})
			if err != nil {
				panic(err)
			}
		})
		var calSpan time.Duration
		for _, s := range log.Phases() {
			if s.Name == core.PhaseCalibration && s.End >= 0 {
				calSpan += s.End - s.Start
			}
		}
		frac := calSpan.Seconds() / rep.Makespan.Seconds()
		fractions = append(fractions, frac)

		// Throwaway-calibration variant: synthetic probes, all N tasks
		// farmed afterwards.
		wT := newWorld(grid.Config{Nodes: specs}, 0, seed)
		var throwSpan time.Duration
		wT.run(func(c rt.Ctx) {
			start := c.Now()
			if _, err := calibrate.Run(wT.pf, c, calibrate.Options{
				Strategy: calibrate.TimeOnly,
				Probes:   []platform.Task{{ID: -1, Cost: taskCost}},
			}); err != nil {
				panic(err)
			}
			farm.Run(wT.pf, c, tasks, farm.Options{})
			throwSpan = c.Now() - start
		})

		table.AddRow(n, secs(calSpan), secs(rep.Makespan),
			fmt.Sprintf("%.1f%%", frac*100), secs(throwSpan))
		checks = append(checks,
			check(fmt.Sprintf("complete@%d", n), len(rep.Results) == n, "%d results", len(rep.Results)),
			check(fmt.Sprintf("counted<=discarded@%d", n),
				rep.Makespan <= throwSpan+time.Millisecond,
				"counted %v vs discarded %v", rep.Makespan, throwSpan))
	}

	mono := true
	for i := 1; i < len(fractions); i++ {
		if fractions[i] > fractions[i-1] {
			mono = false
		}
	}
	checks = append(checks,
		check("overhead-decays", mono, "fractions=%v", fractions),
		check("amortised-at-scale", fractions[len(fractions)-1] < 0.05,
			"overhead %.2f%% at %d tasks", fractions[len(fractions)-1]*100, sizes[len(sizes)-1]))
	return Result{ID: "E9", Title: "Calibration amortisation", Table: table, Checks: checks}
}

// runnerE9 registers E9 in the experiment index.
var runnerE9 = Runner{ID: "E9", Title: "Calibration cost amortisation", Run: E9CalibCost}
