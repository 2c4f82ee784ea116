package experiments

import (
	"time"

	"grasp/internal/core"
	"grasp/internal/grid"
	"grasp/internal/loadgen"
	"grasp/internal/report"
	"grasp/internal/rt"
)

// E5Threshold sweeps Algorithm 2's performance threshold Z (expressed as a
// factor of the calibrated mean). The paper's design implies a trade-off:
// a tight threshold mistakes transient pressure for degradation — and every
// recalibration costs a probe barrier over all nodes, including collapsed
// ones — while a loose threshold never escapes genuine pressure. Expected
// shape: recalibration count falls monotonically with the factor, and the
// best makespan sits strictly between the extremes (a U-shaped curve).
//
// Setup: 8 nodes; all carry a synchronized square-wave pressure (3s at 50%
// load every 10s — transient, tolerable) and nodes 0–3 (slightly faster,
// hence always chosen first) additionally collapse for good at t=20s
// (persistent, must be escaped). Calibration at t=0 lands in the wave's low
// phase, so a tight Z sits below the high-phase task time and triggers on
// every wave crest.
func E5Threshold(seed int64) Result {
	const (
		nodes    = 8
		selectK  = 4
		nTasks   = 300
		taskCost = 100.0
		pressAt  = 20 * time.Second
		collapse = 0.93
	)
	factors := []float64{1.2, 2, 4, 8, 24}

	wave := func() loadgen.Trace {
		// Low 0.05 for 7s, high 0.5 for 3s; first crest at t=7s.
		return loadgen.NewSquareWave(0.05, 0.5, 3*time.Second, 7*time.Second, 7*time.Second)
	}
	specs := func() []grid.NodeSpec {
		s := make([]grid.NodeSpec, nodes)
		for i := range s {
			base := 100.0
			var tr loadgen.Trace = wave()
			if i < selectK {
				base = 120 // chosen first at calibration
				tr = overlay{a: tr, b: loadgen.NewStep(pressAt, 0, collapse)}
			}
			s[i] = grid.NodeSpec{BaseSpeed: base, Load: tr}
		}
		return s
	}

	table := report.NewTable("E5 — Threshold Z sensitivity (Z = factor × calibrated mean)",
		"factor", "makespan", "recalibrations")
	var spans []time.Duration
	var recals []int
	for _, f := range factors {
		w := newWorld(grid.Config{Nodes: specs()}, 0, seed)
		var rep core.Report
		w.run(func(c rt.Ctx) {
			var err error
			rep, err = core.RunFarm(w.pf, c, fixedTasks(nTasks, taskCost, 0, 0), core.Config{
				SelectK:           selectK,
				ThresholdFactor:   f,
				MaxRecalibrations: 50,
			})
			if err != nil {
				panic(err)
			}
		})
		spans = append(spans, rep.Makespan)
		recals = append(recals, rep.Recalibrations)
		table.AddRow(f, secs(rep.Makespan), rep.Recalibrations)
	}

	// Locate the best factor.
	best := 0
	for i, s := range spans {
		if s < spans[best] {
			best = i
		}
	}
	table.AddNote("best factor = %v; wave crests are tolerable, the collapse is not", factors[best])

	recalsMono := true
	for i := 1; i < len(recals); i++ {
		if recals[i] > recals[i-1] {
			recalsMono = false
		}
	}
	checks := []Check{
		check("recals-monotone-decreasing", recalsMono, "recals=%v", recals),
		check("tight-threshold-thrashes", recals[0] >= 3,
			"factor %.1f caused %d recalibrations", factors[0], recals[0]),
		check("loose-threshold-frozen", recals[len(recals)-1] == 0,
			"factor %.0f caused %d recalibrations", factors[len(factors)-1], recals[len(recals)-1]),
		check("u-shape", best != 0 && best != len(factors)-1,
			"best factor %v is interior (spans=%v)", factors[best], spans),
		check("interior-beats-extremes",
			spans[best] < spans[0] && spans[best] < spans[len(spans)-1],
			"best %v vs tight %v vs loose %v", spans[best], spans[0], spans[len(spans)-1]),
	}
	return Result{ID: "E5", Title: "Threshold sensitivity", Table: table, Checks: checks}
}

// overlay combines two traces by taking the maximum load at each instant:
// transient jitter plus a persistent collapse.
type overlay struct {
	a, b loadgen.Trace
}

// At implements loadgen.Trace.
func (o overlay) At(t time.Duration) float64 {
	la, lb := o.a.At(t), o.b.At(t)
	if la > lb {
		return la
	}
	return lb
}

// NextChange implements loadgen.Trace: the earliest change of either
// component at which the combined value differs. A component can change
// forever underneath a masking constant (a periodic wave under a permanent
// collapse), so the masked-change walk is bounded; past the bound the
// masked instant itself is reported. That is a spurious change-to-the-same-
// value, which the grid integrator tolerates (it merely splits an
// integration window).
func (o overlay) NextChange(t time.Duration) (time.Duration, bool) {
	cur := o.At(t)
	cand := time.Duration(-1)
	if na, ok := o.a.NextChange(t); ok {
		cand = na
	}
	if nb, ok := o.b.NextChange(t); ok && (cand < 0 || nb < cand) {
		cand = nb
	}
	for step := 0; cand >= 0; step++ {
		if o.At(cand) != cur || step >= 64 {
			return cand, true
		}
		// This component change was masked; look past it.
		next := time.Duration(-1)
		if na, ok := o.a.NextChange(cand); ok {
			next = na
		}
		if nb, ok := o.b.NextChange(cand); ok && (next < 0 || nb < next) {
			next = nb
		}
		cand = next
	}
	return 0, false
}

// runnerE5 registers E5 in the experiment index.
var runnerE5 = Runner{ID: "E5", Title: "Threshold Z sensitivity (Alg. 2)", Run: E5Threshold}
