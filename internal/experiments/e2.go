package experiments

import (
	"fmt"

	"grasp/internal/calibrate"
	"grasp/internal/grid"
	"grasp/internal/platform"
	"grasp/internal/report"
	"grasp/internal/rt"
	"grasp/internal/stats"
)

// E2Calibration evaluates Algorithm 1's ranking step on an idle
// heterogeneous grid: with perfect sensors and no pressure, calibration
// should recover the true speed order exactly, at every scale and
// heterogeneity level.
//
// Metrics per (P, speed-CV) cell: Spearman rank correlation between the
// calibrated order and the true speed order, and the selection quality of
// the chosen P/2 subset — the aggregate base speed of the chosen nodes as a
// fraction of the best possible subset's.
func E2Calibration(seed int64) Result {
	table := report.NewTable("E2 — Calibration ranking quality (Alg. 1, idle grid)",
		"P", "speed CV", "spearman", "selection quality")
	var checks []Check

	for _, p := range []int{8, 16, 32} {
		for ci, cv := range []float64{0.25, 0.5, 1.0} {
			specs := grid.HeterogeneousSpecs(seed+int64(p*100+ci), p, 100, cv)
			w := newWorld(grid.Config{Nodes: specs}, 0, seed)
			var ranking calibrate.Ranking
			w.run(func(c rt.Ctx) {
				out, err := calibrate.Run(w.pf, c, calibrate.Options{
					Strategy: calibrate.TimeOnly,
					Probes:   []platform.Task{{ID: -1, Cost: 100}},
				})
				if err != nil {
					panic(err)
				}
				ranking = out.Ranking
			})

			// Spearman between calibrated score and true time-per-op.
			scores := make([]float64, p)
			truth := make([]float64, p)
			for i := 0; i < p; i++ {
				scores[i] = ranking.Score[i]
				truth[i] = 1 / specs[i].BaseSpeed
			}
			rho := stats.SpearmanRank(scores, truth)

			quality := selectionQuality(ranking.Select(p/2), specs)
			table.AddRow(p, cv, rho, quality)
			checks = append(checks,
				check(rowID("spearman", p, cv), rho > 0.999,
					"spearman=%.4f (perfect conditions must recover the true order)", rho),
				check(rowID("quality", p, cv), quality > 0.999,
					"selection quality=%.4f", quality),
			)
		}
	}
	table.AddNote("quality = Σ speed(chosen P/2) / Σ speed(best P/2)")
	return Result{ID: "E2", Title: "Calibration ranking quality", Table: table, Checks: checks}
}

// selectionQuality compares the chosen subset's aggregate base speed to the
// optimum subset of the same size.
func selectionQuality(chosen []int, specs []grid.NodeSpec) float64 {
	var got float64
	for _, w := range chosen {
		got += specs[w].BaseSpeed
	}
	speeds := make([]float64, len(specs))
	for i, s := range specs {
		speeds[i] = s.BaseSpeed
	}
	// Top-k by insertion sort (descending).
	for i := 1; i < len(speeds); i++ {
		for j := i; j > 0 && speeds[j] > speeds[j-1]; j-- {
			speeds[j], speeds[j-1] = speeds[j-1], speeds[j]
		}
	}
	var best float64
	for i := 0; i < len(chosen) && i < len(speeds); i++ {
		best += speeds[i]
	}
	if best == 0 {
		return 0
	}
	return got / best
}

// rowID builds a per-cell check name.
func rowID(kind string, p int, cv float64) string {
	return fmt.Sprintf("%s@P%d/cv%.2f", kind, p, cv)
}

// runnerE2 registers E2 in the experiment index.
var runnerE2 = Runner{ID: "E2", Title: "Calibration ranking quality (Alg. 1)", Run: E2Calibration}
