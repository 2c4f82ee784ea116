package experiments

import (
	"time"

	"grasp/internal/core"
	"grasp/internal/grid"
	"grasp/internal/loadgen"
	"grasp/internal/monitor"
	"grasp/internal/report"
	"grasp/internal/rt"
)

// E11ThresholdRule ablates Algorithm 2's trigger statistic. The paper's
// rule is `min T > Z` — recalibrate only when even the *fastest* recent
// task is too slow — which is maximally conservative: it cannot see a
// partial degradation of the chosen set, because the surviving healthy
// nodes keep the minimum low. The mean rule reacts to partial degradation;
// the max rule reacts to any single slow node (and to noise).
//
// Setup: 4 of 8 nodes are chosen; *half of the chosen* collapse mid-run
// while the others stay healthy. Expected shape: the min rule never fires
// and rides the collapsed nodes to the end; mean (and max) escape; the
// trigger counts order min ≤ mean ≤ max.
func E11ThresholdRule(seed int64) Result {
	const (
		nodes    = 8
		selectK  = 4
		nTasks   = 300
		taskCost = 100.0
		pressAt  = 15 * time.Second
		factor   = 3
	)
	rules := []monitor.Rule{monitor.RuleMinOver, monitor.RuleMeanOver, monitor.RuleMaxOver}

	specs := func() []grid.NodeSpec {
		s := make([]grid.NodeSpec, nodes)
		for i := range s {
			base := 100.0
			var tr loadgen.Trace = loadgen.NewConstant(0.02)
			if i < selectK {
				base = 120 // chosen first
			}
			if i < selectK/2 {
				// Half of the chosen collapse for good.
				tr = loadgen.NewStep(pressAt, 0.02, 0.9)
			}
			s[i] = grid.NodeSpec{BaseSpeed: base, Load: tr}
		}
		return s
	}

	table := report.NewTable("E11 — Threshold rule ablation under partial degradation",
		"rule", "makespan", "recalibrations")
	spans := map[monitor.Rule]time.Duration{}
	recals := map[monitor.Rule]int{}
	for _, rule := range rules {
		w := newWorld(grid.Config{Nodes: specs()}, 0, seed)
		var rep core.Report
		w.run(func(c rt.Ctx) {
			var err error
			rep, err = core.RunFarm(w.pf, c, fixedTasks(nTasks, taskCost, 0, 0), core.Config{
				SelectK:           selectK,
				ThresholdFactor:   factor,
				Rule:              rule,
				MaxRecalibrations: 20,
			})
			if err != nil {
				panic(err)
			}
		})
		spans[rule] = rep.Makespan
		recals[rule] = rep.Recalibrations
		table.AddRow(rule.String(), secs(rep.Makespan), rep.Recalibrations)
	}
	table.AddNote("half the chosen set collapses: min>Z is blind to partial degradation")

	checks := []Check{
		check("min-rule-blind", recals[monitor.RuleMinOver] == 0,
			"min rule recalibrated %d times (healthy nodes pin the minimum)",
			recals[monitor.RuleMinOver]),
		check("mean-rule-reacts", recals[monitor.RuleMeanOver] >= 1,
			"mean rule recalibrated %d times", recals[monitor.RuleMeanOver]),
		check("trigger-ordering",
			recals[monitor.RuleMinOver] <= recals[monitor.RuleMeanOver] &&
				recals[monitor.RuleMeanOver] <= recals[monitor.RuleMaxOver],
			"min=%d mean=%d max=%d", recals[monitor.RuleMinOver],
			recals[monitor.RuleMeanOver], recals[monitor.RuleMaxOver]),
		check("mean-beats-min", spans[monitor.RuleMeanOver] < spans[monitor.RuleMinOver],
			"mean %v vs min %v", spans[monitor.RuleMeanOver], spans[monitor.RuleMinOver]),
	}
	return Result{ID: "E11", Title: "Threshold rule ablation", Table: table, Checks: checks}
}

// runnerE11 registers E11 in the experiment index.
var runnerE11 = Runner{ID: "E11", Title: "Ablation: threshold rule (min/mean/max over Z)", Run: E11ThresholdRule}
