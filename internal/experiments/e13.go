package experiments

import (
	"fmt"
	"time"

	"grasp/internal/core"
	"grasp/internal/grid"
	"grasp/internal/loadgen"
	"grasp/internal/report"
	"grasp/internal/rt"
	"grasp/internal/skel/dmap"
	"grasp/internal/skel/farm"
)

// E13Map evaluates the data-parallel map (deal) skeleton: decomposition
// quality on an idle heterogeneous grid, wave-based adaptivity under
// mid-run pressure, and dispatch traffic against the farm.
//
// The deal's intrinsic property is one scatter per worker per wave —
// orders of magnitude less dispatch traffic than the farm's per-task
// demand pulls — at the price of committing to a decomposition up front.
// Expected shape: on the idle grid the calibrated decomposition beats the
// uniform one (Algorithm 1 pays); under mid-run pressure the single-wave
// deal is defenceless — its biggest blocks sit exactly on the fastest,
// now-pressured nodes — while waves plus threshold feedback recover most
// of the loss; and the map's round-trips stay ≪ the farm's.
func E13Map(seed int64) Result {
	const (
		nodes    = 8
		speed    = 100.0
		cv       = 0.5
		taskCost = 100.0
		nTasks   = 400
		pressAt  = 20 * time.Second
		pressure = 0.85
		waves    = 8
	)

	table := report.NewTable("E13 — Data-parallel map: decomposition, waves, dispatch traffic",
		"grid", "variant", "makespan", "round-trips", "recals")
	var checks []Check

	idleSpecs := func() []grid.NodeSpec {
		return grid.HeterogeneousSpecs(seed, nodes, speed, cv)
	}
	pressedSpecs := func() []grid.NodeSpec {
		s := idleSpecs()
		// Mid-run pressure on the two fastest nodes: they are in every
		// chosen set and carry the largest calibrated blocks.
		fast1, fast2 := 0, 1
		if s[fast2].BaseSpeed > s[fast1].BaseSpeed {
			fast1, fast2 = fast2, fast1
		}
		for i := 2; i < len(s); i++ {
			if s[i].BaseSpeed > s[fast1].BaseSpeed {
				fast2, fast1 = fast1, i
			} else if s[i].BaseSpeed > s[fast2].BaseSpeed {
				fast2 = i
			}
		}
		s[fast1].Load = loadgen.NewStep(pressAt, 0, pressure)
		s[fast2].Load = loadgen.NewStep(pressAt, 0, pressure)
		return s
	}

	type outcome struct {
		span   time.Duration
		trips  int
		recals int
		n      int
	}

	// Uniform single-wave deal: no calibration at all.
	runUniform := func(specs []grid.NodeSpec) outcome {
		w := newWorld(grid.Config{Nodes: specs}, 0, seed)
		var rep dmap.Report
		span := w.run(func(c rt.Ctx) {
			rep = dmap.Run(w.pf, c, fixedTasks(nTasks, taskCost, 0, 0), dmap.Options{Waves: 1})
		})
		return outcome{span: span, trips: rep.Requests, n: len(rep.Results)}
	}

	// GRASP map: calibrated decomposition; wv waves; threshold feedback
	// (disabled by a huge factor for the static variant).
	runGRASP := func(specs []grid.NodeSpec, wv int, factor float64) outcome {
		w := newWorld(grid.Config{Nodes: specs}, 0, seed)
		var rep core.Report
		span := w.run(func(c rt.Ctx) {
			var err error
			rep, err = core.RunMap(w.pf, c, fixedTasks(nTasks, taskCost, 0, 0), core.MapConfig{
				ThresholdFactor: factor,
				Waves:           wv,
			})
			if err != nil {
				panic(err)
			}
		})
		trips := len(rep.Rounds)*nodes + nodes*wv // probe + scatter round-trips
		return outcome{span: span, trips: trips, recals: rep.Recalibrations, n: len(rep.Results)}
	}

	// Farm reference for dispatch traffic.
	runFarm := func(specs []grid.NodeSpec) outcome {
		w := newWorld(grid.Config{Nodes: specs}, 0, seed)
		var rep farm.Report
		span := w.run(func(c rt.Ctx) {
			rep = farm.Run(w.pf, c, fixedTasks(nTasks, taskCost, 0, 0), farm.Options{})
		})
		return outcome{span: span, trips: rep.Requests, n: len(rep.Results)}
	}

	// Part A — idle grid: does the calibrated decomposition pay?
	idleUniform := runUniform(idleSpecs())
	idleCalibrated := runGRASP(idleSpecs(), 1, 1e9)
	table.AddRow("idle", "uniform deal", secs(idleUniform.span), idleUniform.trips, "-")
	table.AddRow("idle", "calibrated deal", secs(idleCalibrated.span), idleCalibrated.trips, idleCalibrated.recals)

	// Part B — pressured grid: do waves + feedback recover?
	pressStatic := runGRASP(pressedSpecs(), 1, 1e9)
	pressAdaptive := runGRASP(pressedSpecs(), waves, 2)
	pressFarm := runFarm(pressedSpecs())
	table.AddRow("pressured", "calibrated deal (1 wave)", secs(pressStatic.span), pressStatic.trips, pressStatic.recals)
	table.AddRow("pressured", fmt.Sprintf("GRASP map (%d waves)", waves), secs(pressAdaptive.span), pressAdaptive.trips, pressAdaptive.recals)
	table.AddRow("pressured", "farm (reference)", secs(pressFarm.span), pressFarm.trips, "-")
	table.AddNote("round-trips: map = probes + scatters, farm = demand requests")

	checks = append(checks,
		check("complete-idle-uniform", idleUniform.n == nTasks, "%d results", idleUniform.n),
		check("complete-idle-calibrated", idleCalibrated.n == nTasks, "%d results", idleCalibrated.n),
		check("complete-press-static", pressStatic.n == nTasks, "%d results", pressStatic.n),
		check("complete-press-adaptive", pressAdaptive.n == nTasks, "%d results", pressAdaptive.n),
		check("calibration-pays-when-idle", idleCalibrated.span < idleUniform.span,
			"calibrated %v vs uniform %v on an idle CV=%.2f grid", idleCalibrated.span, idleUniform.span, cv),
		check("static-deal-defenceless", pressStatic.span > idleCalibrated.span*2,
			"pressured static %v vs idle %v: blocks pinned on pressured nodes", pressStatic.span, idleCalibrated.span),
		check("waves-beat-static-under-pressure", pressAdaptive.span < pressStatic.span,
			"adaptive %v vs static %v under mid-run pressure", pressAdaptive.span, pressStatic.span),
		check("adaptive-recalibrates", pressAdaptive.recals >= 1, "recals=%d", pressAdaptive.recals),
		check("deal-traffic-tiny", pressAdaptive.trips*3 < pressFarm.trips,
			"map %d vs farm %d round-trips", pressAdaptive.trips, pressFarm.trips),
	)
	return Result{ID: "E13", Title: "Data-parallel map skeleton", Table: table, Checks: checks}
}

// runnerE13 registers E13 in the experiment index with its execution
// placement — the substrate seam every experiment declares.
var runnerE13 = Runner{ID: "E13", Title: "Data-parallel map: decomposition, waves, dispatch traffic", Placement: PlaceVSim, Run: E13Map}
