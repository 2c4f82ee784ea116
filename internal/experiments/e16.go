package experiments

import (
	"fmt"
	"time"

	"grasp/internal/grid"
	"grasp/internal/report"
	"grasp/internal/rt"
	"grasp/internal/skel/dc"
)

// E16DivideConquer sweeps the divide-and-conquer skeleton's grain — the
// "adjustment of algorithmic parameters (granularity)" the paper names as
// a key challenge — on a heterogeneous grid with non-trivial transfer
// costs.
//
// A binary tree of fixed total work is divided to depth d, yielding 2^d
// leaves. Expected shape: a U-curve. Too coarse (d small) and the few big
// leaves cannot balance the heterogeneous nodes, so stragglers dominate;
// too fine (d large) and per-leaf transfer overhead plus the deepening
// combine critical path erode the win; the optimum sits in the interior.
func E16DivideConquer(seed int64) Result {
	const (
		nodes     = 8
		speed     = 100.0
		cv        = 0.5
		totalWork = 6400.0 // ≈8 s on 8 mean nodes when perfectly balanced
		leafBytes = 2e7    // 0.2 s on the default 100 MB/s link
	)
	depths := []int{1, 2, 3, 4, 5, 6, 7, 8}

	op := func(depth int) dc.Op {
		return dc.Op{
			Divide: func(p any) []any {
				u := p.(float64)
				return []any{u / 2, u / 2}
			},
			Indivisible: dc.DepthGrain(depth),
			BaseCost:    func(p any) float64 { return p.(float64) },
			CombineCost: func(int) float64 { return 20 },
			Bytes:       func(p any) float64 { return leafBytes },
		}
	}

	table := report.NewTable("E16 — Divide-and-conquer grain sweep",
		"depth", "leaves", "makespan", "leaf span", "round-trips")
	var checks []Check
	spans := make([]time.Duration, 0, len(depths))

	for _, d := range depths {
		w := newWorld(grid.Config{Nodes: grid.HeterogeneousSpecs(seed, nodes, speed, cv)}, 0, seed)
		var rep dc.Report
		w.run(func(c rt.Ctx) {
			rep = dc.Run(w.pf, c, totalWork, op(d), dc.Options{})
		})
		if rep.Incomplete {
			panic(fmt.Sprintf("E16: depth %d incomplete", d))
		}
		spans = append(spans, rep.Makespan)
		table.AddRow(d, rep.Leaves, secs(rep.Makespan), secs(rep.LeafSpan), rep.Requests)
		checks = append(checks, check(fmt.Sprintf("leaves@d%d", d),
			rep.Leaves == 1<<d, "%d leaves", rep.Leaves))
	}

	best := 0
	for i, s := range spans {
		if s < spans[best] {
			best = i
		}
	}
	checks = append(checks,
		check("optimum-is-interior", best > 0 && best < len(depths)-1,
			"best depth %d (spans=%v)", depths[best], spans),
		check("coarse-grain-straggles", spans[0] > spans[best]*3/2,
			"depth 1 %v vs best %v: big leaves cannot balance CV=%.1f", spans[0], spans[best], cv),
		check("fine-grain-overhead-shows", spans[len(spans)-1] > spans[best],
			"depth %d %v vs best %v: transfer+combine overhead", depths[len(depths)-1], spans[len(spans)-1], spans[best]),
	)
	table.AddNote("U-curve: grain balances stragglers (coarse) against overhead (fine)")
	return Result{ID: "E16", Title: "D&C grain sweep", Table: table, Checks: checks}
}

// runnerE16 registers E16 in the experiment index.
var runnerE16 = Runner{ID: "E16", Title: "Divide-and-conquer grain sweep", Run: E16DivideConquer}
