package experiments

import (
	"strings"
	"time"

	"grasp/internal/grid"
	"grasp/internal/loadgen"
	"grasp/internal/monitor"
	"grasp/internal/report"
	"grasp/internal/rt"
	"grasp/internal/skel/engine"
	"grasp/internal/skel/farm"
	"grasp/internal/trace"
)

// E29PredictiveAdaptation pits the reactive threshold detector against the
// predictive policy on the same slow-node degradation. A 4-node grid runs
// one streaming farm; one node's external load (chosen by the seed) ramps
// from near-idle to heavy contention across the middle of the run — the
// gradual failure mode Algorithm 2 only notices after tasks have already
// straggled past Z. The reactive run carries the detector alone; the
// predictive run carries the same detector plus the forecast policy, which
// reweights the membership and re-derives Z as soon as the degrading
// node's trend crosses the margin — while the detector statistic is still
// under the threshold.
//
// Expected shape: both runs deliver every task exactly once; the reactive
// run breaches repeatedly as the victim straggles, while the predictive
// run recalibrates first (its first predictive reweight precedes the
// reactive run's first threshold trip in virtual time) and suffers
// strictly fewer breaches on the identical schedule.
func E29PredictiveAdaptation(seed int64) Result {
	const (
		nodes    = 4
		nTasks   = 280
		taskCost = 25.0 // 0.25 virtual seconds per task at BaseSpeed 100
		horizon  = 12 * time.Second
		z        = 800 * time.Millisecond
		margin   = 1.3
	)

	loads := loadgen.DegradationSchedule(seed, nodes, horizon)
	specs := func() []grid.NodeSpec {
		s := make([]grid.NodeSpec, nodes)
		for i := range s {
			s[i] = grid.NodeSpec{BaseSpeed: 100, Load: loads[i]}
		}
		return s
	}

	type outcome struct {
		rep         engine.StreamReport
		firstBreach time.Duration // first threshold event (0: never tripped)
		firstPred   time.Duration // first predictive recalibration (0: none)
		forecasts   int
		distinct    int
		span        time.Duration
	}
	run := func(pred *engine.Predict) outcome {
		w := newWorld(grid.Config{Nodes: specs()}, 0, seed)
		log := trace.New()
		var rep engine.StreamReport
		span := w.run(func(c rt.Ctx) {
			in := w.pf.Runtime().NewChan("e29.in", 1)
			c.Go("producer", func(cc rt.Ctx) {
				for _, task := range fixedTasks(nTasks, taskCost, 0, 0) {
					in.Send(cc, task)
				}
				in.Close(cc)
			})
			rep = farm.Stream(nil)(w.pf, c, in, engine.StreamOptions{
				Window: 8,
				// MaxOver: any single task past Z trips — the rule that can
				// see a single straggling node in a mixed stream.
				Detector: &monitor.Detector{Z: z, Rule: monitor.RuleMaxOver, Window: 3},
				Predict:  pred,
				Log:      log,
			})
		})
		out := outcome{rep: rep, span: span}
		ids := make(map[int]bool, len(rep.Results))
		for _, r := range rep.Results {
			ids[r.Task.ID] = true
		}
		out.distinct = len(ids)
		for _, e := range log.Events() {
			switch {
			case e.Kind == trace.KindThreshold && out.firstBreach == 0:
				out.firstBreach = e.At
			case e.Kind == trace.KindRecalibrate && out.firstPred == 0 &&
				strings.Contains(e.Msg, "predictive=true"):
				out.firstPred = e.At
			case e.Kind == trace.KindForecast:
				out.forecasts++
			}
		}
		return out
	}

	reactive := run(nil)
	predictive := run(&engine.Predict{Margin: margin, Cooldown: 4})

	fmtAt := func(d time.Duration) string {
		if d == 0 {
			return "-"
		}
		return secs(d)
	}
	table := report.NewTable("E29 — reactive vs predictive adaptation under slow-node degradation",
		"variant", "breaches", "predictive recals", "first breach", "first predictive recal", "makespan")
	table.AddRow("reactive", reactive.rep.Breaches, reactive.rep.PredictiveRecals,
		fmtAt(reactive.firstBreach), fmtAt(reactive.firstPred), secs(reactive.span))
	table.AddRow("predictive", predictive.rep.Breaches, predictive.rep.PredictiveRecals,
		fmtAt(predictive.firstBreach), fmtAt(predictive.firstPred), secs(predictive.span))
	table.AddNote("one of %d nodes ramps to heavy load over the middle of a %v horizon (seeded); Z=%v max-over, margin %.1f",
		nodes, horizon, z, margin)

	checks := []Check{
		check("reactive-complete", reactive.distinct == nTasks && len(reactive.rep.Results) == nTasks,
			"%d results, %d distinct", len(reactive.rep.Results), reactive.distinct),
		check("predictive-complete", predictive.distinct == nTasks && len(predictive.rep.Results) == nTasks,
			"%d results, %d distinct", len(predictive.rep.Results), predictive.distinct),
		check("reactive-breaches", reactive.rep.Breaches >= 1 && reactive.firstBreach > 0,
			"breaches=%d first=%v", reactive.rep.Breaches, reactive.firstBreach),
		check("predictive-recalibrates", predictive.rep.PredictiveRecals >= 1 && predictive.firstPred > 0,
			"predictive recals=%d first=%v", predictive.rep.PredictiveRecals, predictive.firstPred),
		check("predictive-fires-before-breach", predictive.firstPred > 0 &&
			predictive.firstPred < reactive.firstBreach,
			"predictive recal at %v vs reactive breach at %v", predictive.firstPred, reactive.firstBreach),
		check("strictly-fewer-breaches", predictive.rep.Breaches < reactive.rep.Breaches,
			"predictive=%d reactive=%d", predictive.rep.Breaches, reactive.rep.Breaches),
		check("forecast-events-traced", predictive.forecasts >= 1 && reactive.forecasts == 0,
			"predictive=%d reactive=%d forecast events", predictive.forecasts, reactive.forecasts),
	}
	return Result{ID: "E29", Title: "Predictive adaptation under slow-node degradation", Table: table, Checks: checks}
}

// runnerE29 registers E29 in the experiment index.
var runnerE29 = Runner{ID: "E29", Title: "Predictive vs reactive adaptation under slow-node degradation", Run: E29PredictiveAdaptation}
