package experiments

import (
	"fmt"
	"time"

	"grasp/internal/grid"
	"grasp/internal/report"
	"grasp/internal/rt"
	"grasp/internal/skel/compose"
	"grasp/internal/skel/pipeline"
)

// E15Compose evaluates skeleton nesting — the pipe-of-farms — against the
// plain pipeline on a stage-imbalanced workload: stage costs 1:1:6:1, so
// the third stage binds a plain pipe to 1/6 of the balanced throughput.
//
// Variants: the plain pipeline (one worker per stage, no adaptation), the
// pipe-of-farms with uniform pools, and the pipe-of-farms with pools sized
// by service demand from the calibrated ranking (compose.PoolsByDemand).
// Expected shape: farming the stages lifts the bottleneck (uniform pools
// beat the plain pipe), and demand-proportional pools beat uniform ones
// because they put the capacity where the service demand is.
func E15Compose(seed int64) Result {
	const (
		nodes  = 12
		speed  = 100.0
		nItems = 120
		buf    = 4
	)
	stageCosts := []float64{100, 100, 600, 100}

	table := report.NewTable("E15 — Skeleton nesting: pipe-of-farms vs plain pipeline",
		"variant", "makespan", "tail items/s", "pools")
	var checks []Check

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

	costFn := func(si int) func(int) float64 {
		return func(int) float64 { return stageCosts[si] }
	}

	// Plain pipeline: stage i on node i, no spares, no detectors.
	runPlain := func() (time.Duration, float64, int) {
		w := newWorld(grid.Config{Nodes: specs()}, 0, seed)
		stages := make([]pipeline.Stage, len(stageCosts))
		mapping := make([]int, len(stageCosts))
		for i := range stages {
			stages[i] = pipeline.Stage{Name: fmt.Sprintf("s%d", i), Cost: costFn(i)}
			mapping[i] = i
		}
		var rep pipeline.Report
		w.run(func(c rt.Ctx) {
			rep = pipeline.Run(w.pf, c, stages, nItems, pipeline.Options{
				Mapping: mapping, BufSize: buf,
			})
		})
		return rep.Makespan, tailThroughput(rep.ExitTimes, 0.25), rep.Items
	}

	runPools := func(pools [][]int) (time.Duration, float64, int) {
		w := newWorld(grid.Config{Nodes: specs()}, 0, seed)
		stages := make([]compose.Stage, len(stageCosts))
		for i := range stages {
			stages[i] = compose.Stage{Name: fmt.Sprintf("s%d", i), Pool: pools[i], Cost: costFn(i)}
		}
		var rep compose.Report
		w.run(func(c rt.Ctx) {
			rep = compose.Run(w.pf, c, stages, nItems, compose.Options{BufSize: buf})
		})
		exits := make([]time.Duration, len(rep.Outputs))
		for i, o := range rep.Outputs {
			exits[i] = o.At
		}
		return rep.Makespan, tailThroughput(exits, 0.25), rep.Items
	}

	plainSpan, plainTP, plainItems := runPlain()
	uniformPools := compose.UniformPools(workers, len(stageCosts))
	uniformSpan, uniformTP, uniformItems := runPools(uniformPools)
	demandPools := compose.PoolsByDemand(workers, stageCosts)
	demandSpan, demandTP, demandItems := runPools(demandPools)

	table.AddRow("plain pipeline", secs(plainSpan), fmt.Sprintf("%.3f", plainTP), "1/1/1/1")
	table.AddRow("pipe-of-farms uniform", secs(uniformSpan), fmt.Sprintf("%.3f", uniformTP), poolSizes(uniformPools))
	table.AddRow("pipe-of-farms by demand", secs(demandSpan), fmt.Sprintf("%.3f", demandTP), poolSizes(demandPools))
	table.AddNote("stage costs 1:1:6:1 over 12 equal nodes; tail throughput over final 25%% of items")

	checks = append(checks,
		check("plain-delivers", plainItems == nItems, "%d items", plainItems),
		check("uniform-delivers", uniformItems == nItems, "%d items", uniformItems),
		check("demand-delivers", demandItems == nItems, "%d items", demandItems),
		check("farming-lifts-bottleneck", uniformSpan < plainSpan,
			"uniform pools %v vs plain pipe %v", uniformSpan, plainSpan),
		check("demand-pools-beat-uniform", demandSpan < uniformSpan,
			"demand %v vs uniform %v", demandSpan, uniformSpan),
		check("heavy-stage-gets-biggest-pool",
			len(demandPools[2]) > len(demandPools[0]) &&
				len(demandPools[2]) > len(demandPools[1]) &&
				len(demandPools[2]) > len(demandPools[3]),
			"pools=%s", poolSizes(demandPools)),
		check("throughput-recovers", demandTP > plainTP*2,
			"demand tail %.3f vs plain %.3f items/s", demandTP, plainTP),
	)
	return Result{ID: "E15", Title: "Pipe-of-farms composition", Table: table, Checks: checks}
}

// poolSizes renders pool cardinalities as "a/b/c/d".
func poolSizes(pools [][]int) string {
	out := ""
	for i, p := range pools {
		if i > 0 {
			out += "/"
		}
		out += fmt.Sprintf("%d", len(p))
	}
	return out
}

// runnerE15 registers E15 in the experiment index.
var runnerE15 = Runner{ID: "E15", Title: "Skeleton nesting: pipe-of-farms vs plain pipeline", Run: E15Compose}
