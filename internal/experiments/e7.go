package experiments

import (
	"fmt"
	"time"

	"grasp/internal/core"
	"grasp/internal/grid"
	"grasp/internal/loadgen"
	"grasp/internal/report"
	"grasp/internal/rt"
	"grasp/internal/sched"
)

// E7Scalability measures speedup against node count on a jittery
// (non-dedicated) grid: P ∈ {4..64} nodes each carrying independent
// random-walk pressure, fixed total work. The adaptive farm (demand-driven
// with calibrated weights) is compared with the static equal partition.
//
// Expected shape: adaptive speedup grows with P and stays at or above
// static at every P; static increasingly suffers stragglers as P grows
// (its makespan is the max over blocks, and more blocks mean more chances
// of a slow node holding the tail).
func E7Scalability(seed int64) Result {
	const (
		taskCost = 100.0
		nTasks   = 1600
		speed    = 100.0
	)
	ps := []int{4, 8, 16, 32, 64}
	seqTime := time.Duration(float64(nTasks) * taskCost / speed * float64(time.Second))

	specs := func(p int) []grid.NodeSpec {
		s := make([]grid.NodeSpec, p)
		for i := range s {
			s[i] = grid.NodeSpec{
				BaseSpeed: speed,
				Load: loadgen.RandomWalk(seed+int64(i)*31, 0.2, 0.1,
					5*time.Second, 2*time.Hour),
			}
		}
		return s
	}

	table := report.NewTable("E7 — Speedup vs node count (jittery grid, fixed work)",
		"P", "static", "adaptive", "static speedup", "adaptive speedup", "efficiency")
	var adaptiveSpeedups, staticSpeedups []float64
	var checks []Check
	for _, p := range ps {
		wS := newWorld(grid.Config{Nodes: specs(p)}, 0, seed)
		var staticSpan time.Duration
		wS.run(func(c rt.Ctx) {
			staticSpan = staticFarmBaseline(wS.pf, c, fixedTasks(nTasks, taskCost, 0, 0), p)
		})

		wA := newWorld(grid.Config{Nodes: specs(p)}, 0, seed)
		var rep core.Report
		wA.run(func(c rt.Ctx) {
			var err error
			rep, err = core.RunFarm(wA.pf, c, fixedTasks(nTasks, taskCost, 0, 0), core.Config{
				UseWeights: true,
				Chunk:      sched.Guided{F: 2},
			})
			if err != nil {
				panic(err)
			}
		})

		sStatic := seqTime.Seconds() / staticSpan.Seconds()
		sAda := seqTime.Seconds() / rep.Makespan.Seconds()
		staticSpeedups = append(staticSpeedups, sStatic)
		adaptiveSpeedups = append(adaptiveSpeedups, sAda)
		table.AddRow(p, secs(staticSpan), secs(rep.Makespan), sStatic, sAda, sAda/float64(p))

		checks = append(checks,
			check(fmt.Sprintf("adaptive>=static@P%d", p), sAda >= sStatic*0.98,
				"adaptive %.2f vs static %.2f", sAda, sStatic),
			check(fmt.Sprintf("complete@P%d", p), len(rep.Results) == nTasks,
				"%d results", len(rep.Results)))
	}

	mono := true
	for i := 1; i < len(adaptiveSpeedups); i++ {
		if adaptiveSpeedups[i] <= adaptiveSpeedups[i-1] {
			mono = false
		}
	}
	var ratioSum float64
	for i := range adaptiveSpeedups {
		ratioSum += adaptiveSpeedups[i] / staticSpeedups[i]
	}
	meanRatio := ratioSum / float64(len(adaptiveSpeedups))
	checks = append(checks,
		check("adaptive-speedup-monotone", mono, "speedups=%v", adaptiveSpeedups),
		check("adaptive-advantage-overall", meanRatio > 1.15,
			"mean adaptive/static speedup ratio = %.2f (static suffers stragglers)", meanRatio),
	)
	table.AddNote("sequential reference = total cost on one idle node = %s", secs(seqTime))
	return Result{ID: "E7", Title: "Scalability", Table: table, Checks: checks}
}

// runnerE7 registers E7 in the experiment index.
var runnerE7 = Runner{ID: "E7", Title: "Scalability with node count", Run: E7Scalability}
