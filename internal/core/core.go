// Package core implements the GRASP methodology itself: the four-phase
// lifecycle of Fig. 1 (programming, compilation, calibration, execution)
// and the coupling of Algorithm 1 (calibration) with Algorithm 2
// (threshold-monitored execution with feedback to recalibration).
//
// That coupling is written once (rounds): each round runs sample tasks
// over all nodes (the samples contribute to the job, as the paper
// requires), selects the fittest subset, derives the threshold Z from the
// calibrated mean, and executes the remaining tasks on the skeleton until
// completion or breach; on breach it feeds back to calibration, re-ranking
// nodes under the new resource conditions. RunFarm and RunMap are that
// loop over farm.Run and dmap.Run, each adding only its skeleton's levers.
// RunPipeline uses calibration to derive the stage→node mapping and spare
// pool for the self-remapping pipeline.
package core

import (
	"fmt"
	"sync"
	"time"

	"grasp/internal/calibrate"
	"grasp/internal/monitor"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/sched"
	"grasp/internal/skel/engine"
	"grasp/internal/skel/farm"
	"grasp/internal/skel/pipeline"
	"grasp/internal/trace"
)

// Phase names of the GRASP methodology (Fig. 1).
const (
	PhaseProgramming = "programming"
	PhaseCompilation = "compilation"
	PhaseCalibration = "calibration"
	PhaseExecution   = "execution"
)

// Config parameterises a GRASP program, mirroring the knobs the paper's
// methodology exposes.
type Config struct {
	// Strategy is the calibration ranking mode (Algorithm 1).
	Strategy calibrate.Strategy
	// SelectK is the size of the Chosen table; 0 selects every node.
	SelectK int
	// ThresholdFactor sets Z = factor × calibrated mean task time. The
	// skeleton tolerates "performance variations up to the threshold".
	// Non-positive values default to 4; very large values effectively
	// disable adaptation.
	ThresholdFactor float64
	// Rule picks the threshold statistic (default: the paper's min>Z).
	Rule monitor.Rule
	// MaxRecalibrations bounds the feedback loop (default 8).
	MaxRecalibrations int
	// Chunk is the farm dispatch granularity (default sched.Single).
	Chunk sched.ChunkPolicy
	// UseWeights passes calibrated speed weights to the chunk policy.
	UseWeights bool
	// Proactive arms forecast-driven recalibration alongside the reactive
	// threshold: a periodic monitor samples the chosen nodes' load sensors
	// and stops the farm when the forecasted load trend crosses the bound —
	// before task times themselves degrade (nil = reactive only).
	Proactive *Proactive
	// Log receives all trace events (optional).
	Log *trace.Log
}

// Proactive parameterises forecast-driven recalibration (see Config).
type Proactive struct {
	// Every is the sensor sampling period (default 1s).
	Every time.Duration
	// LoadBound is the forecasted load fraction that counts as pressure
	// (default 0.6).
	LoadBound float64
	// MinWorkers is how many chosen workers must forecast above the bound
	// to trigger (default 1).
	MinWorkers int
	// Window is the linear-trend window in samples (default 4).
	Window int
}

func (p *Proactive) withDefaults() Proactive {
	out := *p
	if out.Every <= 0 {
		out.Every = time.Second
	}
	if out.LoadBound <= 0 {
		out.LoadBound = 0.6
	}
	if out.MinWorkers < 1 {
		out.MinWorkers = 1
	}
	if out.Window < 2 {
		out.Window = 4
	}
	return out
}

// RoundInfo summarises one calibrate→execute round.
type RoundInfo struct {
	Chosen        []int
	Z             time.Duration
	CalibratedAt  time.Duration
	TasksExecuted int
	Breached      bool
}

// Report is the outcome of a GRASP farm run.
type Report struct {
	// Results covers every executed task, calibration samples included.
	Results []platform.Result
	// Makespan is total virtual/real time from start to completion.
	Makespan time.Duration
	// Recalibrations counts threshold-triggered feedbacks to calibration.
	Recalibrations int
	// Rounds details each calibrate→execute round in order.
	Rounds []RoundInfo
	// CalibrationTasks counts tasks consumed as calibration samples.
	CalibrationTasks int
}

// meanCost returns the mean task cost of a population (1 if unknown), used
// to normalise observed times for the detector and to scale Z.
func meanCost(tasks []platform.Task) float64 {
	if len(tasks) == 0 {
		return 1
	}
	var sum float64
	for _, t := range tasks {
		sum += t.Cost
	}
	m := sum / float64(len(tasks))
	if m <= 0 {
		return 1
	}
	return m
}

// RunFarm executes tasks as a GRASP task farm from within process c.
// It implements the full methodology: the static phases are recorded, then
// calibration and execution alternate per Algorithms 1 and 2 until the task
// pool drains. The farm's levers on top of the shared round loop are the
// chunk policy, the calibrated dispatch weights (UseWeights), and the
// proactive load-trend stop.
func RunFarm(pf platform.Platform, c rt.Ctx, tasks []platform.Task, cfg Config) (Report, error) {
	return rounds{
		skeleton: "farm",
		strategy: cfg.Strategy, selectK: cfg.SelectK, factor: cfg.ThresholdFactor,
		rule: cfg.Rule, maxRecal: cfg.MaxRecalibrations, log: cfg.Log,
		exec: func(c rt.Ctx, e execution) engine.StreamReport {
			opts := farm.Options{
				Workers: e.chosen, Chunk: cfg.Chunk,
				Detector: e.detector, NormCost: e.normCost, Log: cfg.Log,
			}
			if cfg.UseWeights {
				opts.Weights = e.weights
			}
			if cfg.Proactive != nil && e.chosen != nil {
				watch, done := startTrendWatch(pf, c, e, cfg.Proactive.withDefaults())
				defer done.set()
				opts.Stop = watch.Triggered
			}
			return farm.Run(pf, c, e.tasks, opts)
		},
	}.run(pf, c, tasks)
}

// startTrendWatch spawns the proactive monitor for one execution phase: a
// process sampling the chosen nodes' load sensors every pro.Every until
// the returned flag is set.
func startTrendWatch(pf platform.Platform, c rt.Ctx, e execution, pro Proactive) (*monitor.TrendWatch, *atomicFlag) {
	sensors := make([]monitor.Sensor, len(e.chosen))
	for i, cw := range e.chosen {
		sensors[i] = pf.LoadSensor(cw)
	}
	watch := monitor.NewTrendWatch(pro.LoadBound, pro.MinWorkers, pro.Window, e.chosen, sensors)
	done := &atomicFlag{}
	c.Go(fmt.Sprintf("core.promon.%d", e.round), func(cc rt.Ctx) {
		for !done.get() {
			watch.Sample()
			cc.Sleep(pro.Every)
		}
	})
	return watch, done
}

// execution is one execution phase the round loop hands to a skeleton's
// batch executor.
type execution struct {
	round int
	tasks []platform.Task
	// chosen is nil (as are weights and detector) for the final run that
	// finishes the job unmonitored over every platform worker.
	chosen   []int
	weights  map[int]float64
	detector *monitor.Detector
	normCost float64
}

// rounds is the coupling of Algorithm 1 with Algorithm 2, written once for
// every skeleton with a stop-on-breach batch executor: calibrate over all
// nodes (the probes are real tasks and contribute to the job), select the
// fittest subset, derive Z from the calibrated mean, execute under the
// threshold rule, and on a breach feed the unexecuted tail back to a fresh
// calibration — until the pool drains or the recalibration budget is spent.
type rounds struct {
	skeleton string // names the skeleton in phase notes, events and errors
	note     string // skeleton-specific suffix of the execution phase note
	strategy calibrate.Strategy
	selectK  int
	factor   float64 // Z = factor × calibrated mean (default 4)
	rule     monitor.Rule
	maxRecal int // default 8
	log      *trace.Log
	// exec runs one execution phase on the skeleton: until the tasks are
	// done, the detector breaches, or no worker is left.
	exec func(c rt.Ctx, e execution) engine.StreamReport
}

func (r rounds) run(pf platform.Platform, c rt.Ctx, tasks []platform.Task) (Report, error) {
	factor := r.factor
	if factor <= 0 {
		factor = 4
	}
	maxRecal := r.maxRecal
	if maxRecal <= 0 {
		maxRecal = 8
	}
	logPhase(r.log, c, PhaseProgramming, "skeleton="+r.skeleton)
	logPhase(r.log, c, PhaseCompilation, fmt.Sprintf("strategy=%v nodes=%d", r.strategy, pf.Size()))

	rep := Report{}
	start := c.Now()
	remaining := tasks
	norm := meanCost(tasks)

	for round := 0; ; round++ {
		// --- Calibration phase (Algorithm 1). ---
		var chosen []int
		var weights map[int]float64
		var z time.Duration
		if len(remaining) >= pf.Size() {
			probes := remaining[:pf.Size()]
			remaining = remaining[pf.Size():]
			out, err := calibrate.Run(pf, c, calibrate.Options{
				Strategy: r.strategy,
				Probes:   probes,
				Log:      r.log,
			})
			if err != nil {
				return rep, fmt.Errorf("core: %s calibration round %d: %w", r.skeleton, round, err)
			}
			rep.Results = append(rep.Results, out.Results...)
			rep.CalibrationTasks += len(out.Results)
			// Probes lost to node crashes are real tasks: put them back at
			// the head of the queue.
			if len(out.FailedProbes) > 0 {
				remaining = append(append([]platform.Task(nil), out.FailedProbes...), remaining...)
			}
			k := r.selectK
			if k <= 0 {
				k = pf.Size()
			}
			chosen = out.Ranking.Select(k)
			weights = out.Ranking.Weights(chosen)
			z = thresholdFromSamples(out.Ranking, chosen, norm, factor)
		} else if len(rep.Rounds) > 0 {
			// Not enough tasks left to probe every node: reuse the previous
			// round's choice, or all nodes on the first round.
			prev := rep.Rounds[len(rep.Rounds)-1]
			chosen = prev.Chosen
			z = prev.Z
		} else {
			chosen = allWorkers(pf)
		}

		if len(remaining) == 0 {
			rep.Rounds = append(rep.Rounds, RoundInfo{Chosen: chosen, Z: z, CalibratedAt: c.Now()})
			break
		}

		// --- Execution phase (Algorithm 2). ---
		logPhase(r.log, c, PhaseExecution, fmt.Sprintf("round=%d chosen=%d%s", round, len(chosen), r.note))
		var det *monitor.Detector
		if z > 0 {
			det = &monitor.Detector{
				Z:          z,
				Rule:       r.rule,
				Window:     len(chosen),
				MinSamples: len(chosen),
			}
		}
		erep := r.exec(c, execution{
			round: round, tasks: remaining,
			chosen: chosen, weights: weights, detector: det, normCost: norm,
		})
		rep.Results = append(rep.Results, erep.Results...)
		remaining = erep.Remaining
		rep.Rounds = append(rep.Rounds, RoundInfo{
			Chosen: chosen, Z: z, CalibratedAt: c.Now(),
			TasksExecuted: len(erep.Results), Breached: erep.Breached,
		})
		endPhase(r.log, c, PhaseExecution)

		if len(remaining) == 0 {
			break
		}
		if !erep.Breached || rep.Recalibrations >= maxRecal {
			// Budget exhausted, or the chosen set died under us without a
			// threshold breach: finish without monitoring over every
			// platform worker (the skeleton itself routes around dead nodes).
			final := r.exec(c, execution{round: round, tasks: remaining})
			rep.Results = append(rep.Results, final.Results...)
			if len(final.Remaining) > 0 {
				rep.Makespan = c.Now() - start
				return rep, fmt.Errorf("core: %d tasks unexecutable: no live workers", len(final.Remaining))
			}
			break
		}
		rep.Recalibrations++
		if r.log != nil {
			r.log.Append(trace.Event{
				At: c.Now(), Kind: trace.KindRecalibrate,
				Msg: fmt.Sprintf("%s round %d breached (stat %v > Z %v)", r.skeleton, round, erep.BreachStat, z),
			})
		}
	}
	rep.Makespan = c.Now() - start
	return rep, nil
}

// thresholdFromSamples derives Z: the calibrated mean per-unit-cost time of
// the chosen nodes, scaled to the workload's mean task cost, times the
// tolerance factor.
func thresholdFromSamples(r calibrate.Ranking, chosen []int, norm, factor float64) time.Duration {
	var sum float64
	var n int
	inChosen := make(map[int]bool, len(chosen))
	for _, w := range chosen {
		inChosen[w] = true
	}
	for _, s := range r.Samples {
		if !inChosen[s.Worker] {
			continue
		}
		cost := s.ProbeCost
		if cost <= 0 {
			cost = norm
		}
		sum += s.Time.Seconds() * norm / cost
		n++
	}
	if n == 0 {
		return 0
	}
	mean := sum / float64(n)
	return time.Duration(mean * factor * float64(time.Second))
}

// atomicFlag is a tiny mutex-guarded bool: the proactive sampler runs in
// its own process, so the flag must be safe on the goroutine runtime too.
type atomicFlag struct {
	mu sync.Mutex
	v  bool
}

func (f *atomicFlag) set() {
	f.mu.Lock()
	f.v = true
	f.mu.Unlock()
}

func (f *atomicFlag) get() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.v
}

// allWorkers lists every platform worker.
func allWorkers(pf platform.Platform) []int {
	ws := make([]int, pf.Size())
	for i := range ws {
		ws[i] = i
	}
	return ws
}

// logPhase emits a phase_start event.
func logPhase(l *trace.Log, c rt.Ctx, phase, msg string) {
	if l == nil {
		return
	}
	l.Append(trace.Event{At: c.Now(), Kind: trace.KindPhaseStart, Msg: phase})
	if msg != "" {
		l.Append(trace.Event{At: c.Now(), Kind: trace.KindNote, Msg: phase + ": " + msg})
	}
}

// endPhase emits a phase_end event.
func endPhase(l *trace.Log, c rt.Ctx, phase string) {
	if l == nil {
		return
	}
	l.Append(trace.Event{At: c.Now(), Kind: trace.KindPhaseEnd, Msg: phase})
}

// PipelineConfig parameterises a GRASP pipeline run.
type PipelineConfig struct {
	// Strategy is the calibration ranking mode.
	Strategy calibrate.Strategy
	// ProbeCost is the operation count of the calibration probe (default:
	// mean per-item stage cost of item 0).
	ProbeCost float64
	// ThresholdFactor sets each stage's Z = factor × expected per-item
	// stage time on its assigned node (default 4).
	ThresholdFactor float64
	// BufSize is the inter-stage buffer depth (default 1).
	BufSize int
	// MaxReplicas caps how many workers a Replicable stage may grow to on
	// persistent threshold breaches (≤1 keeps remapping as the only lever;
	// see pipeline.Options.MaxReplicas).
	MaxReplicas int
	// Log receives trace events (optional).
	Log *trace.Log
}

// PipelineReport wraps the pipeline outcome with calibration metadata.
type PipelineReport struct {
	Pipeline pipeline.Report
	Chosen   []int // stage mapping (fittest nodes) chosen by calibration
	Spares   []int // remaining nodes, fittest first
}

// RunPipeline calibrates the platform, maps stages onto the fittest nodes,
// keeps the rest as a spare pool, and runs the self-remapping pipeline.
func RunPipeline(pf platform.Platform, c rt.Ctx, stages []pipeline.Stage, nItems int, cfg PipelineConfig) (PipelineReport, error) {
	if len(stages) == 0 || len(stages) > pf.Size() {
		return PipelineReport{}, fmt.Errorf("core: %d stages need at most %d nodes", len(stages), pf.Size())
	}
	factor := cfg.ThresholdFactor
	if factor <= 0 {
		factor = 4
	}
	probeCost := cfg.ProbeCost
	if probeCost <= 0 {
		probeCost = 1
		if stages[0].Cost != nil {
			if pc := stages[0].Cost(0); pc > 0 {
				probeCost = pc
			}
		}
	}
	logPhase(cfg.Log, c, PhaseProgramming, fmt.Sprintf("skeleton=pipeline stages=%d", len(stages)))
	logPhase(cfg.Log, c, PhaseCompilation, fmt.Sprintf("strategy=%v nodes=%d", cfg.Strategy, pf.Size()))

	out, err := calibrate.Run(pf, c, calibrate.Options{
		Strategy: cfg.Strategy,
		Probes:   []platform.Task{{ID: -1, Cost: probeCost}},
		Log:      cfg.Log,
	})
	if err != nil {
		return PipelineReport{}, fmt.Errorf("core: pipeline calibration: %w", err)
	}
	mappingWorkers := out.Ranking.Select(len(stages))
	spares := out.Ranking.Order[len(stages):]

	// Per-stage thresholds reference the lesser of the stage's own expected
	// cost and the pipeline's mean stage cost. Referencing the stage's own
	// cost alone would only catch node degradation; the mean-cost bound
	// additionally surfaces *structural* bottlenecks — a stage far above
	// the pipe's mean service time throttles throughput no matter how
	// healthy its node is — which is what replication (MaxReplicas) and
	// remapping resolve.
	stageCost := func(stage int) float64 {
		if stages[stage].Cost != nil {
			if sc := stages[stage].Cost(0); sc > 0 {
				return sc
			}
		}
		return probeCost
	}
	var meanStageCost float64
	for si := range stages {
		meanStageCost += stageCost(si)
	}
	meanStageCost /= float64(len(stages))
	detFor := func(stage int) *monitor.Detector {
		w := mappingWorkers[stage]
		perUnit := out.Ranking.Score[w] / probeCost // seconds per op on this node
		ref := stageCost(stage)
		if meanStageCost < ref {
			ref = meanStageCost
		}
		z := time.Duration(perUnit * ref * factor * float64(time.Second))
		if z <= 0 {
			return nil
		}
		d := monitor.NewDetector(z)
		d.Window = 2
		d.MinSamples = 2
		return d
	}

	logPhase(cfg.Log, c, PhaseExecution, "")
	prep := pipeline.Run(pf, c, stages, nItems, pipeline.Options{
		Mapping:     mappingWorkers,
		Spares:      append([]int(nil), spares...),
		DetectorFor: detFor,
		BufSize:     cfg.BufSize,
		MaxReplicas: cfg.MaxReplicas,
		Log:         cfg.Log,
	})
	endPhase(cfg.Log, c, PhaseExecution)
	return PipelineReport{Pipeline: prep, Chosen: mappingWorkers, Spares: spares}, nil
}
