// GRASP drivers for the extended skeleton set: data-parallel map, map-
// reduce, divide-and-conquer, and the pipe-of-farms composition. Each
// driver follows the same four-phase shape as RunFarm — record the static
// phases, calibrate with Algorithm 1, execute under Algorithm 2's threshold
// rule, feed back to calibration on breach — specialised to the skeleton's
// intrinsic adaptation levers (see each function). RunMap shares RunFarm's
// round loop outright; the others calibrate once or re-run whole.
package core

import (
	"fmt"
	"slices"
	"time"

	"grasp/internal/calibrate"
	"grasp/internal/monitor"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/skel/compose"
	"grasp/internal/skel/dc"
	"grasp/internal/skel/dmap"
	"grasp/internal/skel/engine"
	"grasp/internal/skel/reduce"
	"grasp/internal/trace"
)

// MapConfig parameterises a GRASP data-parallel map run.
type MapConfig struct {
	// Strategy is the calibration ranking mode (Algorithm 1).
	Strategy calibrate.Strategy
	// SelectK is the size of the Chosen table; 0 selects every node.
	SelectK int
	// ThresholdFactor sets Z = factor × calibrated mean (default 4).
	ThresholdFactor float64
	// Rule picks the threshold statistic (default: the paper's min>Z).
	Rule monitor.Rule
	// MaxRecalibrations bounds the feedback loop (default 8).
	MaxRecalibrations int
	// Waves is the number of decomposition rounds per execution phase
	// (default 4). One wave is the fully static deal.
	Waves int
	// Alpha is the inter-wave re-weighting blend (see dmap.Options.Alpha).
	Alpha float64
	// Log receives all trace events (optional).
	Log *trace.Log
}

// RunMap executes tasks as a GRASP data-parallel map from within process c.
//
// The map's adaptation levers differ from the farm's: calibration decides
// the block decomposition (the weights), waves rebalance it from observed
// throughput, and Algorithm 2's threshold — evaluated on the streamed task
// times — feeds the tail of the population back to a fresh calibration.
func RunMap(pf platform.Platform, c rt.Ctx, tasks []platform.Task, cfg MapConfig) (Report, error) {
	waves := cfg.Waves
	if waves <= 0 {
		waves = 4
	}
	return rounds{
		skeleton: "map", note: fmt.Sprintf(" waves=%d", waves),
		strategy: cfg.Strategy, selectK: cfg.SelectK, factor: cfg.ThresholdFactor,
		rule: cfg.Rule, maxRecal: cfg.MaxRecalibrations, log: cfg.Log,
		exec: func(c rt.Ctx, e execution) engine.StreamReport {
			return dmap.Run(pf, c, e.tasks, dmap.Options{
				Workers: e.chosen, Weights: e.weights,
				Waves: waves, Alpha: cfg.Alpha,
				Detector: e.detector, NormCost: e.normCost, Log: cfg.Log,
			})
		},
	}.run(pf, c, tasks)
}

// MapReduceConfig parameterises a GRASP map-reduce run.
type MapReduceConfig struct {
	// Strategy is the calibration ranking mode.
	Strategy calibrate.Strategy
	// SelectK is the size of the Chosen table; 0 selects every node.
	SelectK int
	// Shape is the reduction topology (default reduce.CalibratedTree).
	Shape reduce.Shape
	// CombineCost is the operation count of one combine (simulated
	// platforms).
	CombineCost float64
	// Bytes is the partial-value payload per reduction step.
	Bytes float64
	// Fold folds one task value into a worker's running partial (local
	// platform; optional on simulators). Identity seeds each partial.
	Fold func(acc, v any) any
	// Identity is the fold seed.
	Identity any
	// Combine merges two partials during the reduction (defaults to Fold).
	Combine func(acc, v any) any
	// Log receives all trace events (optional).
	Log *trace.Log
}

// MapReduceReport is the outcome of RunMapReduce.
type MapReduceReport struct {
	// Value is the reduced result (local platform).
	Value any
	// MapResults are the task executions of the map phase (calibration
	// probes included).
	MapResults []platform.Result
	// Reduce is the reduction outcome.
	Reduce reduce.Report
	// Chosen is the Chosen table used by both phases.
	Chosen []int
	// Makespan covers calibration, map, and reduction.
	Makespan time.Duration
}

// RunMapReduce calibrates the platform, maps the tasks over the Chosen
// table with the calibrated weighted decomposition, folds each worker's
// results into a per-worker partial, and reduces the partials with a plan
// shaped by the same ranking — Algorithm 1's output steering two composed
// skeletons at once.
func RunMapReduce(pf platform.Platform, c rt.Ctx, tasks []platform.Task, cfg MapReduceConfig) (MapReduceReport, error) {
	if len(tasks) < pf.Size() {
		return MapReduceReport{}, fmt.Errorf("core: mapreduce needs ≥ %d tasks to probe every node (have %d)", pf.Size(), len(tasks))
	}
	logPhase(cfg.Log, c, PhaseProgramming, "skeleton=mapreduce")
	logPhase(cfg.Log, c, PhaseCompilation, fmt.Sprintf("strategy=%v nodes=%d", cfg.Strategy, pf.Size()))
	start := c.Now()

	out, err := calibrate.Run(pf, c, calibrate.Options{
		Strategy: cfg.Strategy,
		Probes:   tasks[:pf.Size()],
		Log:      cfg.Log,
	})
	if err != nil {
		return MapReduceReport{}, fmt.Errorf("core: mapreduce calibration: %w", err)
	}
	k := cfg.SelectK
	if k <= 0 {
		k = pf.Size()
	}
	chosen := out.Ranking.Select(k)
	rep := MapReduceReport{Chosen: chosen}
	rep.MapResults = append(rep.MapResults, out.Results...)

	// Fold calibration probe values into the partials too: calibration work
	// contributes to the job.
	partials := make(map[int]any, len(chosen))
	inChosen := make(map[int]bool, len(chosen))
	for _, w := range chosen {
		partials[w] = cfg.Identity
		inChosen[w] = true
	}
	fold := func(res platform.Result) {
		if cfg.Fold == nil || !inChosen[res.Worker] {
			return
		}
		partials[res.Worker] = cfg.Fold(partials[res.Worker], res.Value)
	}
	for _, res := range out.Results {
		fold(res)
	}
	remaining := append(append([]platform.Task(nil), out.FailedProbes...), tasks[pf.Size():]...)

	logPhase(cfg.Log, c, PhaseExecution, fmt.Sprintf("map over %d nodes", len(chosen)))
	mrep := dmap.Run(pf, c, remaining, dmap.Options{
		Workers:  chosen,
		Weights:  out.Ranking.Weights(chosen),
		OnResult: fold,
		Log:      cfg.Log,
	})
	rep.MapResults = append(rep.MapResults, mrep.Results...)
	if len(mrep.Remaining) > 0 {
		rep.Makespan = c.Now() - start
		return rep, fmt.Errorf("core: mapreduce map phase left %d tasks unexecuted", len(mrep.Remaining))
	}

	combine := cfg.Combine
	if combine == nil {
		combine = cfg.Fold
	}
	plan := reduce.NewPlan(cfg.Shape, chosen, out.Ranking.Score)
	rep.Reduce = reduce.Run(pf, c, partials, reduce.Op{
		CombineCost: cfg.CombineCost,
		Bytes:       cfg.Bytes,
		Fn:          combine,
	}, plan, cfg.Log)
	rep.Value = rep.Reduce.Value
	endPhase(cfg.Log, c, PhaseExecution)
	rep.Makespan = c.Now() - start
	return rep, nil
}

// DCConfig parameterises a GRASP divide-and-conquer run.
type DCConfig struct {
	// Strategy is the calibration ranking mode.
	Strategy calibrate.Strategy
	// SelectK is the size of the Chosen table; 0 selects every node.
	SelectK int
	// ThresholdFactor sets Z for the leaf farm (default 4; the reference
	// time is the calibration probe normalised by ProbeCost).
	ThresholdFactor float64
	// ProbeCost is the operation count of the calibration probe; it should
	// approximate one leaf's cost (default 1).
	ProbeCost float64
	// MaxRecalibrations bounds breach-triggered re-runs (default 2). Each
	// re-run recalibrates and re-executes the whole tree, so Base and
	// Combine must be idempotent.
	MaxRecalibrations int
	// Log receives all trace events (optional).
	Log *trace.Log
}

// DCReport wraps the divide-and-conquer outcome with GRASP metadata.
type DCReport struct {
	DC              dc.Report
	Chosen          []int
	Recalibrations  int
	CalibrationWork int // probe executions (they are not tree work)
	Makespan        time.Duration
}

// RunDC calibrates the platform, runs the divide-and-conquer tree over the
// Chosen table with calibrated dispatch weights, and — if the leaf farm's
// threshold breaches — feeds back to calibration and re-executes, up to
// MaxRecalibrations times. D&C re-execution is whole-tree (divide state is
// cheap to rebuild and leaves are idempotent by contract), the coarsest of
// the skeleton feedback granularities.
func RunDC(pf platform.Platform, c rt.Ctx, root any, op dc.Op, cfg DCConfig) (DCReport, error) {
	factor := cfg.ThresholdFactor
	if factor <= 0 {
		factor = 4
	}
	probeCost := cfg.ProbeCost
	if probeCost <= 0 {
		probeCost = 1
	}
	maxRecal := cfg.MaxRecalibrations
	if maxRecal <= 0 {
		maxRecal = 2
	}
	logPhase(cfg.Log, c, PhaseProgramming, "skeleton=dc")
	logPhase(cfg.Log, c, PhaseCompilation, fmt.Sprintf("strategy=%v nodes=%d", cfg.Strategy, pf.Size()))
	start := c.Now()
	rep := DCReport{}

	for attempt := 0; ; attempt++ {
		out, err := calibrate.Run(pf, c, calibrate.Options{
			Strategy: cfg.Strategy,
			Probes:   []platform.Task{{ID: -1, Cost: probeCost}},
			Log:      cfg.Log,
		})
		if err != nil {
			return rep, fmt.Errorf("core: dc calibration: %w", err)
		}
		rep.CalibrationWork += len(out.Results)
		k := cfg.SelectK
		if k <= 0 {
			k = pf.Size()
		}
		rep.Chosen = out.Ranking.Select(k)
		z := thresholdFromSamples(out.Ranking, rep.Chosen, probeCost, factor)
		var det *monitor.Detector
		if z > 0 {
			det = &monitor.Detector{
				Z:          z,
				Window:     len(rep.Chosen),
				MinSamples: len(rep.Chosen),
			}
		}

		logPhase(cfg.Log, c, PhaseExecution, fmt.Sprintf("attempt=%d chosen=%d", attempt, len(rep.Chosen)))
		rep.DC = dc.Run(pf, c, root, op, dc.Options{
			Workers:  rep.Chosen,
			Weights:  out.Ranking.Weights(rep.Chosen),
			Detector: det,
			NormCost: probeCost,
			Log:      cfg.Log,
		})
		endPhase(cfg.Log, c, PhaseExecution)
		if !rep.DC.Incomplete {
			break
		}
		if !rep.DC.Breached || rep.Recalibrations >= maxRecal {
			rep.Makespan = c.Now() - start
			return rep, fmt.Errorf("core: dc incomplete after %d recalibrations", rep.Recalibrations)
		}
		rep.Recalibrations++
		if cfg.Log != nil {
			cfg.Log.Append(trace.Event{
				At: c.Now(), Kind: trace.KindRecalibrate,
				Msg: fmt.Sprintf("dc attempt %d breached; recalibrating", attempt),
			})
		}
	}
	rep.Makespan = c.Now() - start
	return rep, nil
}

// PipeOfFarmsConfig parameterises a GRASP pipe-of-farms run.
type PipeOfFarmsConfig struct {
	// Strategy is the calibration ranking mode.
	Strategy calibrate.Strategy
	// ProbeCost is the calibration probe's operation count (default 1).
	ProbeCost float64
	// BufSize is the inter-stage buffer depth (default 1).
	BufSize int
	// Migrate enables dynamic pool rebalancing (compose.Options.Migrate):
	// pool members follow the pressure when the demand profile shifts at
	// run time, as membership updates on the stages' farms. No tuning.
	Migrate bool
	// Log receives all trace events (optional).
	Log *trace.Log
}

// PipeOfFarmsReport wraps the composition outcome (Pipe.Migrations is the
// rebalancing history when Migrate was enabled) with its starting pool
// assignment.
type PipeOfFarmsReport struct {
	Pipe  compose.Report
	Pools [][]int
}

// RunPipeOfFarms calibrates the platform and splits the ranked workers into
// per-stage farm pools proportional to the stages' service demands (cost of
// item 0), then runs the composed skeleton: the calibration phase performs
// the composition's "correct selection of resources". The stages come
// without pools; any they carry are replaced.
func RunPipeOfFarms(pf platform.Platform, c rt.Ctx, stages []compose.Stage, nItems int, cfg PipeOfFarmsConfig) (PipeOfFarmsReport, error) {
	if len(stages) == 0 || len(stages) > pf.Size() {
		return PipeOfFarmsReport{}, fmt.Errorf("core: %d stages need at most %d nodes", len(stages), pf.Size())
	}
	probeCost := cfg.ProbeCost
	if probeCost <= 0 {
		probeCost = 1
	}
	logPhase(cfg.Log, c, PhaseProgramming, fmt.Sprintf("skeleton=pipe-of-farms stages=%d", len(stages)))
	logPhase(cfg.Log, c, PhaseCompilation, fmt.Sprintf("strategy=%v nodes=%d", cfg.Strategy, pf.Size()))

	out, err := calibrate.Run(pf, c, calibrate.Options{
		Strategy: cfg.Strategy,
		Probes:   []platform.Task{{ID: -1, Cost: probeCost}},
		Log:      cfg.Log,
	})
	if err != nil {
		return PipeOfFarmsReport{}, fmt.Errorf("core: pipe-of-farms calibration: %w", err)
	}
	demands := make([]float64, len(stages))
	for i, st := range stages {
		demands[i] = 1
		if st.Cost != nil {
			if d := st.Cost(0); d > 0 {
				demands[i] = d
			}
		}
	}
	pools := compose.PoolsByDemand(out.Ranking.Order, demands)
	full := slices.Clone(stages)
	for i := range full {
		full[i].Pool = pools[i]
	}
	logPhase(cfg.Log, c, PhaseExecution, "")
	pipe := compose.Run(pf, c, full, nItems, compose.Options{
		BufSize: cfg.BufSize,
		Migrate: cfg.Migrate,
		Log:     cfg.Log,
	})
	endPhase(cfg.Log, c, PhaseExecution)
	return PipeOfFarmsReport{Pipe: pipe, Pools: pools}, nil
}
