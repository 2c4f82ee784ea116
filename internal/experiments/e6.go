package experiments

import (
	"fmt"
	"time"

	"grasp/internal/calibrate"
	"grasp/internal/grid"
	"grasp/internal/loadgen"
	"grasp/internal/platform"
	"grasp/internal/report"
	"grasp/internal/rt"
	"grasp/internal/stats"
)

// E6Ranking compares Algorithm 1's ranking strategies when calibration-time
// conditions mislead raw times: a third of the nodes carry heavy *transient*
// CPU pressure and a (different) quarter carry transient link congestion,
// both of which vanish after calibration. A strategy is judged by the
// intrinsic quality of its chosen subset — the aggregate base speed of the
// chosen K relative to the best possible K — averaged over several seeds,
// under increasing sensor noise.
//
// Expected shape: statistical adjustment (univariate with CPU load,
// multivariate with CPU load and bandwidth) recovers quality that raw
// times lose; the physical load-scaling ablation is an upper reference.
func E6Ranking(seed int64) Result {
	const (
		nodes     = 12
		selectK   = 6
		probeCost = 100.0
		probeIn   = 1e6 // 1s transfer at idle link speed
		trials    = 5
	)
	noiseLevels := []float64{0, 0.05, 0.15}
	strategies := []calibrate.Strategy{
		calibrate.TimeOnly, calibrate.Univariate, calibrate.Multivariate, calibrate.LoadScaled,
	}

	table := report.NewTable("E6 — Selection quality by ranking strategy under transient conditions",
		"sensor noise", "time-only", "univariate", "multivariate", "load-scaled")

	quality := make(map[calibrate.Strategy][]float64) // per noise level, averaged over trials
	for _, noise := range noiseLevels {
		avg := make(map[calibrate.Strategy]float64)
		for trial := 0; trial < trials; trial++ {
			tseed := seed + int64(trial)*1009
			specs := grid.HeterogeneousSpecs(tseed, nodes, 100, 0.5)
			links := make([]grid.LinkSpec, nodes)
			for i := range specs {
				if i%3 == 0 {
					// Transient CPU pressure: present during calibration,
					// gone by t=60s.
					specs[i].Load = loadgen.NewStep(60*time.Second, 0.8, 0)
				}
				links[i] = grid.LinkSpec{Latency: time.Millisecond, Bandwidth: 1e6}
				if i%4 == 1 {
					links[i].Util = loadgen.NewStep(60*time.Second, 0.7, 0)
				}
			}
			for _, strat := range strategies {
				w := newWorld(grid.Config{Nodes: specs, Links: links}, noise, tseed)
				var ranking calibrate.Ranking
				w.run(func(c rt.Ctx) {
					out, err := calibrate.Run(w.pf, c, calibrate.Options{
						Strategy: strat,
						Probes:   []platform.Task{{ID: -1, Cost: probeCost, InBytes: probeIn}},
					})
					if err != nil {
						panic(err)
					}
					ranking = out.Ranking
				})
				avg[strat] += selectionQuality(ranking.Select(selectK), specs) / trials
			}
		}
		table.AddRow(fmt.Sprintf("%.2f", noise),
			avg[calibrate.TimeOnly], avg[calibrate.Univariate],
			avg[calibrate.Multivariate], avg[calibrate.LoadScaled])
		for _, strat := range strategies {
			quality[strat] = append(quality[strat], avg[strat])
		}
	}

	mean := func(strat calibrate.Strategy) float64 { return stats.Mean(quality[strat]) }
	checks := []Check{
		check("univariate-beats-raw", mean(calibrate.Univariate) > mean(calibrate.TimeOnly)+0.01,
			"univariate %.3f vs time-only %.3f (mean over noise levels)",
			mean(calibrate.Univariate), mean(calibrate.TimeOnly)),
		check("multivariate-beats-raw", mean(calibrate.Multivariate) > mean(calibrate.TimeOnly)+0.01,
			"multivariate %.3f vs time-only %.3f",
			mean(calibrate.Multivariate), mean(calibrate.TimeOnly)),
		check("load-scaled-reference", mean(calibrate.LoadScaled) >= mean(calibrate.TimeOnly),
			"load-scaled %.3f vs time-only %.3f",
			mean(calibrate.LoadScaled), mean(calibrate.TimeOnly)),
		check("raw-is-hurt-by-transients", mean(calibrate.TimeOnly) < 0.97,
			"time-only quality %.3f (transients must actually mislead it)", mean(calibrate.TimeOnly)),
	}
	table.AddNote("quality = Σ base-speed(chosen %d)/Σ base-speed(best %d), %d seeds per cell",
		selectK, selectK, trials)
	return Result{ID: "E6", Title: "Ranking strategies under noise", Table: table, Checks: checks}
}

// runnerE6 registers E6 in the experiment index.
var runnerE6 = Runner{ID: "E6", Title: "Statistical vs time-only calibration (Alg. 1)", Run: E6Ranking}
