package experiments

import (
	"grasp/internal/grid"
	"grasp/internal/report"
	"grasp/internal/rt"
	"grasp/internal/skel/compose"
)

// E17Migration evaluates the pipe-of-farms' dynamic rebalancing: worker
// migration between stage pools, "the ability to adapt all of these
// factors dynamically" applied to a composed skeleton.
//
// The workload's service demand shifts mid-stream — stage A costs 6× for
// the first half of the items, then stage B takes over the 6× — so pools
// sized for the opening demand are exactly wrong for the second act.
// Expected shape: with steady demand, migration matches the static pools
// (nothing to fix: within 5 %); under the shift, migration takes well
// under two thirds of what static demand-sized pools take, workers
// demonstrably flow from the cooling stage to the heating one, and items
// are neither lost nor duplicated.
func E17Migration(seed int64) Result {
	const (
		nodes  = 8
		speed  = 100.0
		nItems = 160
		buf    = 4
		heavy  = 600.0
		light  = 100.0
	)

	table := report.NewTable("E17 — Pool migration under a mid-stream demand shift",
		"workload", "variant", "makespan", "migrations", "items")

	specs := func() []grid.NodeSpec {
		s := make([]grid.NodeSpec, nodes)
		for i := range s {
			s[i] = grid.NodeSpec{BaseSpeed: speed}
		}
		return s
	}
	workers := make([]int, nodes)
	for i := range workers {
		workers[i] = i
	}

	// demand: stage A is the heavy one for the first flipAt items, stage B
	// after them.
	demand := func(flipAt int) func(stage int) func(int) float64 {
		return func(stage int) func(int) float64 {
			return func(i int) float64 {
				if (stage == 0) == (i < flipAt) {
					return heavy
				}
				return light
			}
		}
	}
	steady, shifting := demand(nItems), demand(nItems/2)

	run := func(cost func(stage int) func(int) float64, migrate bool) compose.Report {
		w := newWorld(grid.Config{Nodes: specs()}, 0, seed)
		// Pools sized for the opening demand (A heavy): 6:1 over 8 workers.
		pools := compose.PoolsByDemand(workers, []float64{heavy, light})
		stages := []compose.Stage{
			{Name: "A", Pool: pools[0], Cost: cost(0)},
			{Name: "B", Pool: pools[1], Cost: cost(1)},
		}
		var rep compose.Report
		w.run(func(c rt.Ctx) {
			rep = compose.Run(w.pf, c, stages, nItems, compose.Options{BufSize: buf, Migrate: migrate})
		})
		return rep
	}
	steadyStatic, steadyAdaptive := run(steady, false), run(steady, true)
	shiftStatic, shiftAdaptive := run(shifting, false), run(shifting, true)
	shiftIDs := make(map[int]bool, shiftAdaptive.Items)
	for _, o := range shiftAdaptive.Outputs {
		shiftIDs[o.ID] = true
	}

	table.AddRow("steady", "static pools", secs(steadyStatic.Makespan), "-", steadyStatic.Items)
	table.AddRow("steady", "migrating pools", secs(steadyAdaptive.Makespan), len(steadyAdaptive.Migrations), steadyAdaptive.Items)
	table.AddRow("shifting", "static pools", secs(shiftStatic.Makespan), "-", shiftStatic.Items)
	table.AddRow("shifting", "migrating pools", secs(shiftAdaptive.Makespan), len(shiftAdaptive.Migrations), shiftAdaptive.Items)
	table.AddNote("stage costs flip 6:1 → 1:6 at the stream midpoint; pools sized 6:1 up front")

	aToB := 0
	for _, m := range shiftAdaptive.Migrations {
		if m.From == 0 && m.To == 1 {
			aToB++
		}
	}

	checks := []Check{
		check("steady-static-delivers", steadyStatic.Items == nItems, "%d items", steadyStatic.Items),
		check("steady-adaptive-delivers", steadyAdaptive.Items == nItems, "%d items", steadyAdaptive.Items),
		check("shift-static-delivers", shiftStatic.Items == nItems, "%d items", shiftStatic.Items),
		check("shift-adaptive-delivers", shiftAdaptive.Items == nItems, "%d items", shiftAdaptive.Items),
		check("no-duplicates-under-migration", len(shiftIDs) == nItems,
			"%d distinct IDs of %d items", len(shiftIDs), nItems),
		check("steady-parity", steadyAdaptive.Makespan <= steadyStatic.Makespan*105/100,
			"migrating %v vs static %v with nothing to fix", steadyAdaptive.Makespan, steadyStatic.Makespan),
		check("migration-wins-under-shift", shiftAdaptive.Makespan < shiftStatic.Makespan*6/10,
			"migrating %v vs static %v under the demand flip", shiftAdaptive.Makespan, shiftStatic.Makespan),
		check("workers-flow-to-heat", aToB >= 1,
			"%d migrations A→B after the flip (total %d)", aToB, len(shiftAdaptive.Migrations)),
	}
	return Result{ID: "E17", Title: "Pool migration under demand shift", Table: table, Checks: checks}
}

// runnerE17 registers E17 in the experiment index.
var runnerE17 = Runner{ID: "E17", Title: "Pool migration under a mid-stream demand shift", Run: E17Migration}
