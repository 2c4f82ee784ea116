package experiments

import (
	"time"

	"grasp/internal/core"
	"grasp/internal/grid"
	"grasp/internal/loadgen"
	"grasp/internal/report"
	"grasp/internal/rt"
	"grasp/internal/trace"
)

// E1Lifecycle reproduces Fig. 1: the four-phase GRASP methodology observed
// end to end on a live run, including the execution→calibration feedback
// edge (a forced recalibration).
//
// Setup: 8 equal nodes; the four initially chosen collapse under external
// pressure mid-run, so the threshold triggers and the calibration phase
// re-enters — exactly the loop the figure draws.
func E1Lifecycle(seed int64) Result {
	const (
		nodes     = 8
		speed     = 100.0
		taskCost  = 100.0 // 1s per task on an idle node
		nTasks    = 200
		pressure  = 0.95
		pressAt   = 10 * time.Second
		selectK   = 4
		threshold = 3
	)
	specs := make([]grid.NodeSpec, nodes)
	for i := range specs {
		specs[i] = grid.NodeSpec{BaseSpeed: speed}
		if i < selectK {
			// The tie-break chooses workers 0..3 first; pressure lands on
			// exactly that set.
			specs[i].Load = loadgen.NewStep(pressAt, 0, pressure)
		}
	}
	w := newWorld(grid.Config{Nodes: specs}, 0, seed)
	log := trace.New()
	var rep core.Report
	var err error
	w.run(func(c rt.Ctx) {
		rep, err = core.RunFarm(w.pf, c, fixedTasks(nTasks, taskCost, 0, 0), core.Config{
			SelectK:         selectK,
			ThresholdFactor: threshold,
			Log:             log,
		})
	})
	if err != nil {
		panic(err)
	}

	table := report.NewTable("E1 — GRASP lifecycle phases (Fig. 1)",
		"phase", "start", "end", "span")
	seen := map[string]bool{}
	for _, span := range log.Phases() {
		end := "open"
		spanStr := "-"
		if span.End >= 0 {
			end = secs(span.End)
			spanStr = secs(span.End - span.Start)
		}
		table.AddRow(span.Name, secs(span.Start), end, spanStr)
		seen[span.Name] = true
	}
	table.AddNote("recalibrations=%d tasks=%d calibration-tasks=%d makespan=%s",
		rep.Recalibrations, len(rep.Results), rep.CalibrationTasks, secs(rep.Makespan))

	var checks []Check
	for _, phase := range []string{core.PhaseProgramming, core.PhaseCompilation, core.PhaseCalibration, core.PhaseExecution} {
		checks = append(checks, check("phase:"+phase, seen[phase], "phase %q observed", phase))
	}
	checks = append(checks,
		check("feedback-loop", rep.Recalibrations >= 1,
			"recalibrations=%d (execution fed back to calibration)", rep.Recalibrations),
		check("all-tasks-complete", len(rep.Results) == nTasks,
			"%d of %d tasks", len(rep.Results), nTasks),
		check("calibration-contributes", rep.CalibrationTasks > 0,
			"%d sample tasks counted toward the job", rep.CalibrationTasks),
		check("multiple-calibration-spans", countSpans(log, core.PhaseCalibration) >= 2,
			"calibration entered %d times", countSpans(log, core.PhaseCalibration)),
	)
	return Result{ID: "E1", Title: "GRASP lifecycle (Fig. 1)", Table: table, Checks: checks}
}

// countSpans counts the phase spans with the given name.
func countSpans(log *trace.Log, name string) int {
	n := 0
	for _, s := range log.Phases() {
		if s.Name == name {
			n++
		}
	}
	return n
}

// runnerE1 registers E1 in the experiment index.
var runnerE1 = Runner{ID: "E1", Title: "GRASP lifecycle (Fig. 1)", Run: E1Lifecycle}
