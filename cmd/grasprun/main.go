// Command grasprun executes one GRASP skeleton program on a synthetic
// non-dedicated grid and prints the outcome, with the adaptive machinery
// switchable — a command-line pendant to the library's examples.
//
// Usage:
//
//	grasprun -skeleton farm -nodes 16 -tasks 400 -pressure 0.9 -adaptive
//	grasprun -skeleton pipe -nodes 12 -stages 6 -items 100 -adaptive=false
//	grasprun -skeleton map -nodes 16 -tasks 400 -waves 8
//	grasprun -skeleton dc -nodes 8 -tasks 1024 -grain 4
//	grasprun -skeleton pof -nodes 12 -stages 4 -items 120
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"grasp/internal/core"
	"grasp/internal/grid"
	"grasp/internal/loadgen"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/sched"
	"grasp/internal/skel/compose"
	"grasp/internal/skel/dc"
	"grasp/internal/skel/farm"
	"grasp/internal/skel/pipeline"
	"grasp/internal/trace"
	"grasp/internal/vsim"
)

func main() {
	var (
		skeleton = flag.String("skeleton", "farm", "farm, pipe, map, dc, or pof (pipe-of-farms)")
		waves    = flag.Int("waves", 8, "map: decomposition waves per round")
		grain    = flag.Int("grain", 4, "dc: division depth (2^grain leaves)")
		nodes    = flag.Int("nodes", 16, "grid size")
		cv       = flag.Float64("cv", 0.3, "node speed heterogeneity (CV)")
		nTasks   = flag.Int("tasks", 400, "farm: number of tasks")
		nStages  = flag.Int("stages", 6, "pipe: number of stages")
		nItems   = flag.Int("items", 100, "pipe: number of items")
		cost     = flag.Float64("cost", 100, "operations per task/stage-item")
		pressure = flag.Float64("pressure", 0.9, "external load applied mid-run")
		pressAt  = flag.Duration("press-at", 10*time.Second, "when pressure starts")
		loaded   = flag.Int("loaded", 4, "number of nodes that come under pressure")
		adaptive = flag.Bool("adaptive", true, "enable GRASP adaptation")
		factor   = flag.Float64("threshold", 3, "threshold factor (Z = factor × calibrated mean)")
		seed     = flag.Int64("seed", 42, "seed")
		dumpCSV  = flag.String("trace-csv", "", "write the event trace as CSV to this file")
	)
	flag.Parse()

	specs := grid.HeterogeneousSpecs(*seed, *nodes, 100, *cv)
	for i := 0; i < *loaded && i < len(specs); i++ {
		specs[i].Load = loadgen.NewStep(*pressAt, 0, *pressure)
	}
	env := vsim.New()
	sim := rt.NewSim(env)
	g, err := grid.New(env, grid.Config{Nodes: specs})
	if err != nil {
		fmt.Fprintf(os.Stderr, "grasprun: %v\n", err)
		os.Exit(2)
	}
	pf := platform.NewGridPlatform(sim, g, 0.02, *seed)
	log := trace.New()

	switch *skeleton {
	case "farm":
		runFarm(pf, sim, log, *nTasks, *cost, *adaptive, *factor)
	case "pipe":
		runPipe(pf, sim, log, *nStages, *nItems, *cost, *adaptive, *factor)
	case "map":
		runMap(pf, sim, log, *nTasks, *cost, *adaptive, *factor, *waves)
	case "dc":
		runDC(pf, sim, log, *nTasks, *cost, *grain)
	case "pof":
		runPoF(pf, sim, log, *nStages, *nItems, *cost, *adaptive)
	default:
		fmt.Fprintf(os.Stderr, "grasprun: unknown skeleton %q\n", *skeleton)
		os.Exit(2)
	}

	if *dumpCSV != "" {
		f, err := os.Create(*dumpCSV)
		if err != nil {
			fmt.Fprintf(os.Stderr, "grasprun: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := log.WriteCSV(f); err != nil {
			fmt.Fprintf(os.Stderr, "grasprun: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (%d events)\n", *dumpCSV, log.Len())
	}
}

// runFarm drives the task-farm path.
func runFarm(pf *platform.GridPlatform, sim *rt.Sim, log *trace.Log, n int, cost float64, adaptive bool, factor float64) {
	tasks := make([]platform.Task, n)
	for i := range tasks {
		tasks[i] = platform.Task{ID: i, Cost: cost}
	}
	var rep core.Report
	var frep farm.Report
	sim.Go("root", func(c rt.Ctx) {
		if adaptive {
			var err error
			rep, err = core.RunFarm(pf, c, tasks, core.Config{
				ThresholdFactor: factor,
				UseWeights:      true,
				Chunk:           sched.Guided{F: 2},
				Log:             log,
			})
			if err != nil {
				panic(err)
			}
		} else {
			frep = farm.RunStatic(pf, c, tasks, sched.Blocks(n, pf.Size()), nil, log)
		}
	})
	if err := sim.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "grasprun: %v\n", err)
		os.Exit(1)
	}
	if adaptive {
		fmt.Printf("farm (adaptive): %d tasks in %v, %d recalibration(s), %d calibration sample(s)\n",
			len(rep.Results), rep.Makespan, rep.Recalibrations, rep.CalibrationTasks)
		for i, round := range rep.Rounds {
			fmt.Printf("  round %d: chosen=%v Z=%v executed=%d breached=%v\n",
				i, round.Chosen, round.Z, round.TasksExecuted, round.Breached)
		}
	} else {
		fmt.Printf("farm (static): %d tasks in %v\n", len(frep.Results), frep.Makespan)
	}
}

// runMap drives the data-parallel map path: calibrated block decomposition
// with wave re-weighting (adaptive) or a single static deal.
func runMap(pf *platform.GridPlatform, sim *rt.Sim, log *trace.Log, n int, cost float64, adaptive bool, factor float64, waves int) {
	tasks := make([]platform.Task, n)
	for i := range tasks {
		tasks[i] = platform.Task{ID: i, Cost: cost}
	}
	cfg := core.MapConfig{ThresholdFactor: factor, Waves: waves, Log: log}
	if !adaptive {
		cfg.ThresholdFactor = 1e9
		cfg.Waves = 1
	}
	var rep core.Report
	sim.Go("root", func(c rt.Ctx) {
		var err error
		rep, err = core.RunMap(pf, c, tasks, cfg)
		if err != nil {
			panic(err)
		}
	})
	if err := sim.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "grasprun: %v\n", err)
		os.Exit(1)
	}
	mode := "static deal"
	if adaptive {
		mode = fmt.Sprintf("adaptive, %d waves", waves)
	}
	fmt.Printf("map (%s): %d tasks in %v, %d recalibration(s)\n",
		mode, len(rep.Results), rep.Makespan, rep.Recalibrations)
	for i, round := range rep.Rounds {
		fmt.Printf("  round %d: chosen=%d Z=%v executed=%d breached=%v\n",
			i, len(round.Chosen), round.Z, round.TasksExecuted, round.Breached)
	}
}

// runDC drives the divide-and-conquer path: a binary cost tree divided to
// the grain depth, leaves and merges farmed over the calibrated workers.
func runDC(pf *platform.GridPlatform, sim *rt.Sim, log *trace.Log, totalTasks int, cost float64, grain int) {
	totalWork := float64(totalTasks) * cost
	op := dc.Op{
		Divide: func(p any) []any {
			u := p.(float64)
			return []any{u / 2, u / 2}
		},
		Indivisible: dc.DepthGrain(grain),
		BaseCost:    func(p any) float64 { return p.(float64) },
		CombineCost: func(int) float64 { return cost / 10 },
		Bytes:       func(p any) float64 { return 1e4 },
	}
	var rep core.DCReport
	sim.Go("root", func(c rt.Ctx) {
		var err error
		rep, err = core.RunDC(pf, c, totalWork, op, core.DCConfig{
			ProbeCost: totalWork / float64(int(1)<<grain),
			Log:       log,
		})
		if err != nil {
			panic(err)
		}
	})
	if err := sim.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "grasprun: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("dc: depth %d, %d leaves, %d combines in %v (%d recalibration(s))\n",
		rep.DC.Depth, rep.DC.Leaves, rep.DC.Combines, rep.Makespan, rep.Recalibrations)
	fmt.Printf("  leaf farm span %v, %d farmer round-trips, chosen=%d nodes\n",
		rep.DC.LeafSpan, rep.DC.Requests, len(rep.Chosen))
}

// runPoF drives the pipe-of-farms path: stage pools sized by calibrated
// service demand, with worker migration when -adaptive is set.
func runPoF(pf *platform.GridPlatform, sim *rt.Sim, log *trace.Log, nStages, nItems int, cost float64, adaptive bool) {
	stages := make([]compose.Stage, nStages)
	for i := range stages {
		c := cost
		if i == nStages-1 {
			c *= 4 // the last stage is 4× as demanding: the composition's raison d'être
		}
		stages[i] = compose.Stage{Name: fmt.Sprintf("stage%d", i), Cost: func(int) float64 { return c }}
	}
	var rep core.PipeOfFarmsReport
	sim.Go("root", func(c rt.Ctx) {
		var err error
		rep, err = core.RunPipeOfFarms(pf, c, stages, nItems, core.PipeOfFarmsConfig{
			BufSize: 4,
			Migrate: adaptive,
			Log:     log,
		})
		if err != nil {
			panic(err)
		}
	})
	if err := sim.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "grasprun: %v\n", err)
		os.Exit(1)
	}
	mode := "static pools"
	if adaptive {
		mode = "migrating pools"
	}
	fmt.Printf("pipe-of-farms (%s): %d items in %v, %d migration(s)\n",
		mode, rep.Pipe.Items, rep.Pipe.Makespan, len(rep.Pipe.Migrations))
	for i, pool := range rep.Pools {
		fmt.Printf("  stage %d pool: %d workers\n", i, len(pool))
	}
}

// runPipe drives the pipeline path.
func runPipe(pf *platform.GridPlatform, sim *rt.Sim, log *trace.Log, nStages, nItems int, cost float64, adaptive bool, factor float64) {
	stages := make([]pipeline.Stage, nStages)
	for i := range stages {
		stages[i] = pipeline.Stage{
			Name: fmt.Sprintf("stage%d", i),
			Cost: func(int) float64 { return cost },
		}
	}
	var rep core.PipelineReport
	var prep pipeline.Report
	sim.Go("root", func(c rt.Ctx) {
		if adaptive {
			var err error
			rep, err = core.RunPipeline(pf, c, stages, nItems, core.PipelineConfig{
				ThresholdFactor: factor,
				Log:             log,
			})
			if err != nil {
				panic(err)
			}
			prep = rep.Pipeline
		} else {
			mapping := make([]int, nStages)
			for i := range mapping {
				mapping[i] = i
			}
			prep = pipeline.Run(pf, c, stages, nItems, pipeline.Options{Mapping: mapping, Log: log})
		}
	})
	if err := sim.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "grasprun: %v\n", err)
		os.Exit(1)
	}
	mode := "static"
	if adaptive {
		mode = "adaptive"
	}
	fmt.Printf("pipeline (%s): %d items in %v, %d remap(s)\n",
		mode, prep.Items, prep.Makespan, len(prep.Remaps))
	for _, r := range prep.Remaps {
		fmt.Printf("  remap at %v: stage %d %s→%s\n",
			r.At, r.Stage, pf.WorkerName(r.FromWorker), pf.WorkerName(r.ToWorker))
	}
	if adaptive {
		fmt.Printf("  mapping: initial=%v final=%v spares=%v\n",
			rep.Chosen, prep.FinalMapping, rep.Spares)
	}
}
