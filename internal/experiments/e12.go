package experiments

import (
	"fmt"
	"time"

	"grasp/internal/core"
	"grasp/internal/grid"
	"grasp/internal/platform"
	"grasp/internal/report"
	"grasp/internal/rt"
	"grasp/internal/sched"
	"grasp/internal/skel/farm"
)

// E12FaultTolerance exercises the grid reality the paper's motivation
// names — resources come and go — with outright node crashes: three of
// twelve nodes die at staggered times mid-run. The adaptive farm re-queues
// lost tasks and routes around dead nodes; the static partition simply
// loses the dead nodes' remaining blocks.
//
// Expected shape: the adaptive farm completes 100% of tasks with a bounded
// makespan penalty; the static baseline strands a substantial fraction.
func E12FaultTolerance(seed int64) Result {
	const (
		nodes    = 12
		nTasks   = 360
		taskCost = 100.0
	)
	crashTimes := map[int]time.Duration{
		1: 5 * time.Second,
		4: 10 * time.Second,
		7: 15 * time.Second,
	}
	specs := func(withCrashes bool) []grid.NodeSpec {
		s := make([]grid.NodeSpec, nodes)
		for i := range s {
			s[i] = grid.NodeSpec{BaseSpeed: 100}
			if withCrashes {
				if at, crash := crashTimes[i]; crash {
					s[i].FailAt = at
				}
			}
		}
		return s
	}

	table := report.NewTable("E12 — Fault tolerance: 3 of 12 nodes crash mid-run",
		"variant", "completed", "stranded", "failures", "makespan")

	// Healthy reference: adaptive farm, no crashes.
	wH := newWorld(grid.Config{Nodes: specs(false)}, 0, seed)
	var healthy core.Report
	wH.run(func(c rt.Ctx) {
		var err error
		healthy, err = core.RunFarm(wH.pf, c, fixedTasks(nTasks, taskCost, 0, 0), core.Config{})
		if err != nil {
			panic(err)
		}
	})
	table.AddRow("adaptive (no crashes)", len(healthy.Results), 0, 0, secs(healthy.Makespan))

	// Adaptive farm under crashes.
	wA := newWorld(grid.Config{Nodes: specs(true)}, 0, seed)
	var ada core.Report
	var adaErr error
	wA.run(func(c rt.Ctx) {
		ada, adaErr = core.RunFarm(wA.pf, c, fixedTasks(nTasks, taskCost, 0, 0), core.Config{})
	})
	if adaErr != nil {
		panic(adaErr)
	}
	table.AddRow("adaptive (crashes)", len(ada.Results), nTasks-len(ada.Results),
		"-", secs(ada.Makespan))

	// Static partition under crashes.
	wS := newWorld(grid.Config{Nodes: specs(true)}, 0, seed)
	var static farm.Report
	wS.run(func(c rt.Ctx) {
		static = farm.RunStatic(wS.pf, c, fixedTasks(nTasks, taskCost, 0, 0),
			sched.Blocks(nTasks, nodes), nil, nil)
	})
	table.AddRow("static (crashes)", len(static.Results), len(static.Remaining),
		static.Failures, secs(static.Makespan))

	penalty := ada.Makespan.Seconds() / healthy.Makespan.Seconds()
	table.AddNote("crashes at %v; adaptive makespan penalty %.2f× over healthy",
		crashValues(crashTimes), penalty)

	strandedFrac := float64(len(static.Remaining)) / nTasks
	checks := []Check{
		check("adaptive-completes-all", len(ada.Results) == nTasks,
			"%d of %d", len(ada.Results), nTasks),
		check("static-strands-work", len(static.Remaining) > 0,
			"static stranded %d tasks (%.0f%%)", len(static.Remaining), strandedFrac*100),
		check("adaptive-penalty-bounded", penalty < 2,
			"makespan penalty %.2f× (lost capacity is 3/12 plus re-executions)", penalty),
		check("no-duplicates", uniqueTasks(ada.Results) == len(ada.Results),
			"%d unique of %d results", uniqueTasks(ada.Results), len(ada.Results)),
	}
	return Result{ID: "E12", Title: "Fault tolerance", Table: table, Checks: checks}
}

// uniqueTasks counts distinct task IDs in results.
func uniqueTasks(results []platform.Result) int {
	seen := make(map[int]bool, len(results))
	for _, r := range results {
		seen[r.Task.ID] = true
	}
	return len(seen)
}

// crashValues renders the crash schedule for the table note.
func crashValues(m map[int]time.Duration) string {
	return fmt.Sprintf("%d nodes, t∈[5s,15s]", len(m))
}

// runnerE12 registers E12 in the experiment index.
var runnerE12 = Runner{ID: "E12", Title: "Fault tolerance under node crashes", Run: E12FaultTolerance}
