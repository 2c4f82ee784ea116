// Command gridsim builds a synthetic non-dedicated grid and reports how its
// nodes behave over time: base speeds, external-load traces, and effective
// speeds sampled across a horizon. It is a workbench for understanding the
// substrate the experiments run on.
//
// Usage:
//
//	gridsim -nodes 8 -cv 0.5 -trace walk -horizon 60s -step 10s
//
// Trace kinds: idle, constant, step, square, walk, onoff, spikes. The
// grid's mean base speed (100 ops/s), its load level (0.5) and its seed
// (42) are fixed, so a run is reproducible from its five flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"grasp/internal/grid"
	"grasp/internal/loadgen"
	"grasp/internal/report"
)

// The grid parameters the package comment calls fixed.
const (
	meanSpeed = 100
	level     = 0.5
	seed      = 42
)

func main() {
	var (
		nodes   = flag.Int("nodes", 8, "number of nodes")
		cv      = flag.Float64("cv", 0.5, "coefficient of variation of base speeds")
		kind    = flag.String("trace", "walk", "load trace kind: idle|constant|step|square|walk|onoff|spikes")
		horizon = flag.Duration("horizon", 60*time.Second, "sampling horizon")
		step    = flag.Duration("step", 10*time.Second, "sampling step")
	)
	flag.Parse()

	specs := grid.HeterogeneousSpecs(seed, *nodes, meanSpeed, *cv)
	for i := range specs {
		tr, err := makeTrace(*kind, level, seed+int64(i), *horizon)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridsim: %v\n", err)
			os.Exit(2)
		}
		specs[i].Load = tr
	}

	headers := []string{"node", "base ops/s"}
	for ts := time.Duration(0); ts <= *horizon; ts += *step {
		headers = append(headers, fmt.Sprintf("eff@%s", ts))
	}
	table := report.NewTable(
		fmt.Sprintf("gridsim — %d nodes, speed cv %.2f, trace %s", *nodes, *cv, *kind),
		headers...)
	for i, spec := range specs {
		row := []any{fmt.Sprintf("n%d", i), fmt.Sprintf("%.1f", spec.BaseSpeed)}
		for ts := time.Duration(0); ts <= *horizon; ts += *step {
			load := 0.0
			if spec.Load != nil {
				load = spec.Load.At(ts)
			}
			row = append(row, fmt.Sprintf("%.1f", spec.BaseSpeed*(1-load)))
		}
		table.AddRow(row...)
	}
	table.AddNote("effective speed = base × (1 − external load)")
	fmt.Print(table.String())
}

// makeTrace constructs the requested load trace.
func makeTrace(kind string, level float64, seed int64, horizon time.Duration) (loadgen.Trace, error) {
	switch kind {
	case "idle":
		return loadgen.NewConstant(0), nil
	case "constant":
		return loadgen.NewConstant(level), nil
	case "step":
		return loadgen.NewStep(horizon/3, 0, level), nil
	case "square":
		return loadgen.NewSquareWave(0.05, level, horizon/10, horizon/5, horizon/10), nil
	case "walk":
		return loadgen.RandomWalk(seed, level/2, 0.15, horizon/20, horizon), nil
	case "onoff":
		return loadgen.MarkovOnOff(seed, 0.05, level, horizon/6, horizon/10, horizon), nil
	case "spikes":
		return loadgen.Spikes(0.05, level, 3, horizon/12, horizon), nil
	default:
		return nil, fmt.Errorf("unknown trace kind %q", kind)
	}
}
