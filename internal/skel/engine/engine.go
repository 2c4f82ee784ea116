// Package engine is the skeleton-agnostic adaptive execution contract: the
// one runtime mechanism the paper applies to every structured-parallelism
// skeleton, extracted from the per-skeleton copies that used to live in
// farm, dmap, pipeline, dc, reduce, and compose.
//
// The contract is the paper's calibrate → execute → monitor → recalibrate
// loop, factored into pieces any skeleton can drive:
//
//   - calibrated weights in: a Core starts from the dispatch weights
//     Algorithm 1's ranking produced and answers Weight queries for
//     whatever dispatch structure the skeleton uses (chunk sizes, block
//     decompositions, stage mappings);
//   - breach events and per-worker observed times out: every completed
//     execution feeds the Core's per-worker recent-time windows and the
//     job's monitor.Detector — Algorithm 2's threshold rule evaluated
//     uniformly for every skeleton;
//   - a Recalibrate hook: on breach the Core consults the caller's
//     OnRecalibrate hook, then the skeleton adapter's structural default
//     (reweight for task-parallel skeletons, remap/swap for pipelines),
//     and applies the resulting Update in place — or, in ModeStop, halts
//     dispatch so a batch caller can recalibrate and resume;
//   - streaming ingestion with the bounded admission-credit window: an
//     Intake pump admits tasks only while credits remain, so backpressure
//     propagates from the skeleton all the way to the producer;
//   - failure/retire handling: Faults records executions lost to worker
//     crashes and retires dead workers from every future dispatch
//     decision; the OnFailure hook may admit a replacement on the spot;
//   - elastic membership: the worker set is a live, versioned view, not a
//     start-time constant — control Updates carry Add/Remove deltas, the
//     Core applies them mid-stream (a crash retire is the remove path's
//     special case), and each adapter absorbs grow/shrink through its own
//     recalibration lever (the farm spawns/parks demand loops, the deal
//     map re-partitions the next wave, the pipeline folds joiners into
//     its spare pool and remaps stages off leavers).
//
// A skeleton adapter is a Runner: it owns the dispatch topology (demand
// pulls, scatter waves, stage graphs) and delegates every adaptive decision
// to the engine. The service layer holds only Runners, which is what makes
// the daemon skeleton-agnostic. The Mode is the only thing that separates
// a skeleton's streaming and finite-population entry points: farm and dmap
// drive one coordinator loop in ModeRecalibrate from a live channel and in
// ModeStop over a pre-admitted task slice (an input already closed).
package engine

import (
	"time"

	"grasp/internal/monitor"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/trace"
)

// StreamOptions is the adaptive contract every skeleton adapter accepts:
// nothing in here names a dispatch structure — those are the adapter's own
// parameters.
type StreamOptions struct {
	// Workers are the chosen worker indices (default: all platform workers).
	Workers []int
	// Weights are initial dispatch weights per worker, typically from the
	// calibration ranking (optional); live recalibration may replace them.
	Weights map[int]float64
	// Detector observes normalised execution times; on breach the engine
	// recalibrates (ModeRecalibrate) or stops (ModeStop). Nil disables
	// adaptation.
	Detector *monitor.Detector
	// NormCost, when positive, normalises observed times by task cost
	// before feeding the detector: observed · NormCost / task.Cost.
	NormCost float64
	// Window bounds how many admitted-but-uncompleted tasks the skeleton
	// holds (default 2× the worker count) — the admission-credit window.
	Window int
	// RecalWindow is how many recent per-worker times inform a live
	// recalibration (default 8).
	RecalWindow int
	// Log receives dispatch/complete/threshold/recalibrate events.
	Log *trace.Log
	// OnResult is invoked once per finished task (for a pipeline: once per
	// item leaving the last stage). A streaming run with the hook set does
	// not also retain the results in its report.
	OnResult func(platform.Result)
	// OnRecalibrate is consulted on every detector breach. Returning
	// ok=true applies the update; ok=false falls back to the adapter's
	// structural default (or the built-in inverse-recent-mean reweight).
	OnRecalibrate func(Breach) (Update, bool)
	// OnFailure is consulted once per crashed worker, when its first lost
	// execution retires it and before the lost work is re-queued. Returning
	// ok=true applies the update — the lever for admitting a spare in the
	// dead worker's place.
	OnFailure func(worker int) (Update, bool)
	// Predict, when non-nil, enables the predictive adaptation policy: the
	// Core feeds each worker's normalised completion times to a
	// stats.TrendWindow forecaster and reweights
	// the membership pre-breach when a worker's forecast trend crosses the
	// margin. Nil keeps adaptation purely reactive (the paper's policy).
	Predict *Predict
	// OnForecast, when set alongside Predict, receives each worker's
	// refreshed completion-time forecast once its forecaster is warm.
	// triggered is true for the observation that fired a predictive
	// recalibration. Invoked from the coordinator process.
	OnForecast func(worker int, forecast time.Duration, triggered bool)
	// Control, if non-nil, is polled for externally injected Update values
	// (live re-calibration without draining). Non-Update values are
	// ignored.
	Control rt.Chan
}

// Breach describes a mid-run detector breach to recalibration hooks.
type Breach struct {
	// Stat is the statistic that crossed the threshold.
	Stat time.Duration
	// At is the runtime clock at the breach.
	At time.Duration
	// RecentMean maps worker → mean of its recent (RecalWindow) normalised
	// execution times. Workers with no recent completions are absent.
	RecentMean map[int]time.Duration
}

// Member is one worker of a run's live membership: the platform worker
// index plus its initial dispatch weight. Membership deltas (Update.Add)
// carry Members so a worker joining mid-stream arrives already weighted —
// from the cached calibration ranking for local jobs, from the node's
// register-time benchmark for cluster jobs.
type Member struct {
	// Worker is the platform worker index.
	Worker int
	// Weight is the worker's initial dispatch weight (non-positive: the
	// mean of the current members' weights, so an unknown worker is
	// neither starved nor favoured until it reports in).
	Weight float64
}

// Update is a live re-calibration applied to a running skeleton. Beyond
// threshold and weight replacement it carries membership deltas: the
// worker set is not a start-time constant but a live view that grows and
// shrinks mid-stream (elastic membership). Deltas are applied before
// Weights, so one Update can admit workers and install the re-normalised
// weight map covering them atomically.
type Update struct {
	// Weights replaces the dispatch weights when non-nil.
	Weights map[int]float64
	// Z replaces the detector threshold when positive.
	Z time.Duration
	// ResetDetector discards the detector's current observation round.
	// Breach-triggered updates always reset regardless of this flag.
	ResetDetector bool
	// Add admits workers into the live membership mid-stream. Workers
	// already members (or retired by a crash this run) are ignored.
	Add []Member
	// Remove retires workers from the live membership gracefully: in-flight
	// work on them completes normally, they just receive no further
	// dispatches, and — unlike crashed workers — they may be re-added
	// later. A removal that would leave no live worker is refused.
	Remove []int
}

// StreamReport is the skeleton-agnostic outcome of an adaptive run: every
// adapter fills the same fields, so the service layer can account for any
// skeleton identically.
type StreamReport struct {
	// Results holds one entry per finished task, in completion order. A
	// streaming run (ModeRecalibrate) whose StreamOptions.OnResult is set
	// delivers results through the hook only and leaves this empty.
	Results []platform.Result
	// Remaining are tasks the run could not finish (all workers dead, or a
	// ModeStop breach with work left).
	Remaining []platform.Task
	// Breached reports whether the detector ever triggered.
	Breached bool
	// BreachStat is the statistic of the most recent breach.
	BreachStat time.Duration
	// Makespan is the time from start to the last completion.
	Makespan time.Duration
	// BusyByWorker sums execution time per worker index (for a pipeline,
	// per-stage executions included).
	BusyByWorker map[int]time.Duration
	// TasksByWorker counts executions per worker index.
	TasksByWorker map[int]int
	// Requests counts dispatch round-trips (farm chunk requests, dmap
	// scatters) — the dispatch-traffic cost coarser granularity amortises.
	Requests int
	// Failures counts executions lost to worker crashes.
	Failures int
	// DeadWorkers lists workers that crashed, in detection order.
	DeadWorkers []int
	// Admitted counts tasks taken from the input channel (for a ModeStop run
	// over a task slice: the slice, admitted up front).
	Admitted int
	// MaxInFlight is the peak number of admitted-but-uncompleted tasks —
	// never above the window when backpressure is working.
	MaxInFlight int
	// Recalibrations counts live re-calibrations (breaches plus applied
	// control updates plus predictive reweights).
	Recalibrations int
	// PredictiveRecals counts the forecast-driven (pre-breach) subset of
	// Recalibrations — zero unless the predictive policy was enabled.
	PredictiveRecals int
	// Breaches counts detector breaches.
	Breaches int
	// WorkersAdded counts workers admitted into the membership mid-run.
	WorkersAdded int
	// WorkersRemoved counts workers gracefully removed mid-run (crashes
	// are counted in Failures/DeadWorkers instead).
	WorkersRemoved int
	// MembershipVersion is the final membership version: 0 when the worker
	// set never changed, bumped once per applied add/remove/retire.
	MembershipVersion int
	// FinalWorkers is the live membership at the end of the run, in
	// admission order.
	FinalWorkers []int
}

// Runner is the uniform entry point every skeleton adapter satisfies:
// tasks are read from in (values must be platform.Task) until it is
// closed, admission is bounded by the credit window, results stream out
// through OnResult, and breaches adapt the run in place. A Runner returns
// once the input is closed and every admitted task has finished (or been
// recorded in Remaining).
type Runner func(pf platform.Platform, c rt.Ctx, in rt.Chan, opts StreamOptions) StreamReport

// Normalise scales an observed execution time to the reference cost so the
// detector compares like with like on irregular workloads.
func Normalise(res platform.Result, normCost float64) time.Duration {
	if normCost <= 0 || res.Task.Cost <= 0 {
		return res.Time
	}
	return time.Duration(float64(res.Time) * normCost / res.Task.Cost)
}

// NormalisedWeights builds a positive weight per worker summing to 1,
// falling back to uniform when the input carries no positive mass.
func NormalisedWeights(workers []int, in map[int]float64) map[int]float64 {
	w := make(map[int]float64, len(workers))
	var total float64
	for _, id := range workers {
		v := 0.0
		if in != nil {
			v = in[id]
		}
		if v < 0 {
			v = 0
		}
		w[id] = v
		total += v
	}
	if total <= 0 {
		for _, id := range workers {
			w[id] = 1 / float64(len(workers))
		}
		return w
	}
	for id := range w {
		w[id] /= total
	}
	return w
}
