package experiments

import (
	"fmt"
	"time"

	"grasp/internal/grid"
	"grasp/internal/report"
	"grasp/internal/rt"
	"grasp/internal/skel/reduce"
)

// E14Reduce evaluates the reduction skeleton's combining topologies on a
// heterogeneous grid: flat (serialised at one root), binary tree
// (⌈log₂P⌉ concurrent rounds), and the calibrated tree (the binary tree
// skewed by Algorithm 1's ranking so combines land on fit nodes).
//
// Expected shape: the tree beats the flat reduction and the gap widens
// with P (O(log P) vs O(P) combine latency); on a heterogeneous grid the
// calibrated tree beats the naive tree because the naive one puts
// critical-path combines on slow nodes.
func E14Reduce(seed int64) Result {
	const (
		speed       = 100.0
		cv          = 0.8
		combineCost = 50.0 // 0.5 s on a mean node
		bytes       = 1e5
	)
	sizes := []int{8, 16, 32}

	table := report.NewTable("E14 — Reduction topology on a heterogeneous grid",
		"P", "flat", "tree", "calibrated", "flat/tree", "tree/calibrated")
	var checks []Check
	var flatTreeRatios []float64

	for _, p := range sizes {
		specs := grid.HeterogeneousSpecs(seed, p, speed, cv)
		scores := make(map[int]float64, p)
		workers := make([]int, p)
		for i := range workers {
			workers[i] = i
			scores[i] = 1 / specs[i].BaseSpeed // true per-op time: ideal calibration
		}

		run := func(shape reduce.Shape) time.Duration {
			w := newWorld(grid.Config{Nodes: specs}, 0, seed)
			plan := reduce.NewPlan(shape, workers, scores)
			if err := plan.Validate(workers); err != nil {
				panic(err)
			}
			var rep reduce.Report
			w.run(func(c rt.Ctx) {
				rep = reduce.Run(w.pf, c, nil, reduce.Op{
					CombineCost: combineCost,
					Bytes:       bytes,
				}, plan, nil)
			})
			if rep.Steps != p-1 {
				panic(fmt.Sprintf("E14: %v P=%d executed %d steps", shape, p, rep.Steps))
			}
			return rep.Makespan
		}

		flat := run(reduce.Flat)
		tree := run(reduce.Tree)
		calibrated := run(reduce.CalibratedTree)
		ftRatio := flat.Seconds() / tree.Seconds()
		tcRatio := tree.Seconds() / calibrated.Seconds()
		flatTreeRatios = append(flatTreeRatios, ftRatio)

		table.AddRow(p, secs(flat), secs(tree), secs(calibrated),
			fmt.Sprintf("%.2f", ftRatio), fmt.Sprintf("%.2f", tcRatio))

		// At small P the naive tree can lose to flat: one slow node on the
		// tree's critical path outweighs the root's serialisation. The
		// log-vs-linear separation is a scale effect, so assert it from
		// P=16 up; the calibrated tree must win everywhere.
		if p >= 16 {
			checks = append(checks, check(fmt.Sprintf("tree-beats-flat@P%d", p), tree < flat,
				"tree %v vs flat %v", tree, flat))
		}
		checks = append(checks,
			check(fmt.Sprintf("calibrated-beats-tree@P%d", p), calibrated < tree,
				"calibrated %v vs naive tree %v (CV=%.1f)", calibrated, tree, cv),
			check(fmt.Sprintf("calibrated-beats-flat@P%d", p), calibrated < flat,
				"calibrated %v vs flat %v", calibrated, flat),
		)
	}

	grows := true
	for i := 1; i < len(flatTreeRatios); i++ {
		if flatTreeRatios[i] <= flatTreeRatios[i-1] {
			grows = false
		}
	}
	checks = append(checks, check("flat-penalty-grows-with-P", grows,
		"flat/tree ratios=%v", flatTreeRatios))
	table.AddNote("combine cost 0.5s on a mean node; payload 100 kB/step; speed CV 0.8")
	return Result{ID: "E14", Title: "Reduction topologies", Table: table, Checks: checks}
}

// runnerE14 registers E14 in the experiment index.
var runnerE14 = Runner{ID: "E14", Title: "Reduction topologies on a heterogeneous grid", Run: E14Reduce}
