package experiments

import (
	"time"

	"grasp/internal/core"
	"grasp/internal/grid"
	"grasp/internal/loadgen"
	"grasp/internal/report"
	"grasp/internal/rt"
)

// E19Proactive compares reactive and proactive adaptation. The paper's
// execution phase "monitors periodically the grid conditions"; the reactive
// reading waits for task times to breach Z (the damage is already in the
// makespan), while the proactive monitor feeds the same periodic sensor
// samples through the forecasting layer (stats.TrendWindow) and escapes as
// soon as the predicted load crosses a bound.
//
// External load climbs a staircase on the calibrated-fittest nodes.
// Expected shape: the proactive farm recalibrates earlier than the
// reactive one, finishes sooner, and both complete all tasks; on an idle
// grid the proactive monitor stays silent (no false positives).
func E19Proactive(seed int64) Result {
	const (
		nodes    = 8
		fastK    = 4
		taskCost = 100.0
		nTasks   = 400
		rampAt   = 10 * time.Second
	)

	table := report.NewTable("E19 — Reactive vs proactive adaptation under a load ramp",
		"grid", "variant", "makespan", "escaped at", "recals")
	var checks []Check

	// Staircase: +0.15 every 2 s from rampAt, topping out at 0.9.
	staircase := func() loadgen.Trace {
		segs := []loadgen.Segment{{Start: 0, Load: 0}}
		load := 0.0
		for step := 0; load < 0.9; step++ {
			load += 0.15
			if load > 0.9 {
				load = 0.9
			}
			segs = append(segs, loadgen.Segment{
				Start: rampAt + time.Duration(step)*2*time.Second,
				Load:  load,
			})
		}
		return loadgen.NewPiecewise(segs)
	}

	specs := func(ramped bool) []grid.NodeSpec {
		s := make([]grid.NodeSpec, nodes)
		for i := range s {
			// The first fastK nodes are slightly faster, so calibration
			// always chooses them — and the ramp lands exactly there.
			if i < fastK {
				s[i] = grid.NodeSpec{BaseSpeed: 110}
				if ramped {
					s[i].Load = staircase()
				}
			} else {
				s[i] = grid.NodeSpec{BaseSpeed: 100}
			}
		}
		return s
	}

	type outcome struct {
		span    time.Duration
		recalAt time.Duration // when round 0 stopped and fed back (0 = never)
		recals  int
		n       int
	}
	run := func(ramped bool, pro *core.Proactive) outcome {
		w := newWorld(grid.Config{Nodes: specs(ramped)}, 0, seed)
		var rep core.Report
		w.run(func(c rt.Ctx) {
			var err error
			rep, err = core.RunFarm(w.pf, c, fixedTasks(nTasks, taskCost, 0, 0), core.Config{
				SelectK:         fastK,
				ThresholdFactor: 2,
				Proactive:       pro,
			})
			if err != nil {
				panic(err)
			}
		})
		out := outcome{span: rep.Makespan, recals: rep.Recalibrations, n: len(rep.Results)}
		// Rounds[0] is appended the moment round 0's execution stops: on a
		// breach that is the escape instant that feeds back to calibration.
		if rep.Recalibrations > 0 && len(rep.Rounds) > 0 {
			out.recalAt = rep.Rounds[0].CalibratedAt
		}
		return out
	}
	pro := &core.Proactive{Every: 500 * time.Millisecond, LoadBound: 0.5, MinWorkers: 3}

	idleReactive := run(false, nil)
	idleProactive := run(false, pro)
	rampReactive := run(true, nil)
	rampProactive := run(true, pro)

	fmtRecal := func(o outcome) string {
		if o.recals == 0 {
			return "-"
		}
		return secs(o.recalAt)
	}
	table.AddRow("idle", "reactive", secs(idleReactive.span), fmtRecal(idleReactive), idleReactive.recals)
	table.AddRow("idle", "proactive", secs(idleProactive.span), fmtRecal(idleProactive), idleProactive.recals)
	table.AddRow("ramped", "reactive", secs(rampReactive.span), fmtRecal(rampReactive), rampReactive.recals)
	table.AddRow("ramped", "proactive", secs(rampProactive.span), fmtRecal(rampProactive), rampProactive.recals)
	table.AddNote("load staircase +0.15/2s on the chosen nodes from t=10s; bound 0.5, trend window 4×500ms")

	checks = append(checks,
		check("idle-reactive-complete", idleReactive.n == nTasks, "%d results", idleReactive.n),
		check("idle-proactive-complete", idleProactive.n == nTasks, "%d results", idleProactive.n),
		check("ramp-reactive-complete", rampReactive.n == nTasks, "%d results", rampReactive.n),
		check("ramp-proactive-complete", rampProactive.n == nTasks, "%d results", rampProactive.n),
		check("no-false-positives-when-idle", idleProactive.recals == 0,
			"idle proactive recals=%d", idleProactive.recals),
		check("idle-parity", idleProactive.span <= idleReactive.span*11/10,
			"proactive %v vs reactive %v on the idle grid", idleProactive.span, idleReactive.span),
		check("both-adapt-under-ramp", rampReactive.recals >= 1 && rampProactive.recals >= 1,
			"reactive=%d proactive=%d recals", rampReactive.recals, rampProactive.recals),
		check("proactive-fires-earlier", rampProactive.recalAt < rampReactive.recalAt,
			"proactive at %v vs reactive at %v", rampProactive.recalAt, rampReactive.recalAt),
		check("proactive-wins-makespan", rampProactive.span < rampReactive.span,
			"proactive %v vs reactive %v", rampProactive.span, rampReactive.span),
	)
	return Result{ID: "E19", Title: "Reactive vs proactive adaptation", Table: table, Checks: checks}
}

// runnerE19 registers E19 in the experiment index.
var runnerE19 = Runner{ID: "E19", Title: "Reactive vs proactive adaptation under a load ramp", Run: E19Proactive}
