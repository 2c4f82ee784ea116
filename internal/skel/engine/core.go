package engine

import (
	"fmt"
	"time"

	"grasp/internal/monitor"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/stats"
	"grasp/internal/trace"
)

// Mode selects what a detector breach does to the run.
type Mode int

const (
	// ModeStop halts dispatch on a breach so the caller can recalibrate
	// and resume — Algorithm 2's batch feedback ("feeding back to the
	// calibration phase").
	ModeStop Mode = iota
	// ModeRecalibrate adapts in place on a breach and keeps running — the
	// streaming feedback, computed from live execution times instead of
	// fresh probes.
	ModeRecalibrate
)

// recentWindow is how many recent completions per worker a live
// recalibration averages over, and how many the predictive policy fits
// its trend line to and waits for before it trusts a forecast.
const recentWindow = 8

// Core is the engine's adaptive state: the versioned live worker
// membership, calibrated weights, per-worker recent times, the threshold
// detector, failure/retire bookkeeping, and the accumulated report. One
// Core serves one skeleton run and must be
// driven from a single coordinator process (the farmer, the dmap master,
// the pipeline monitor); it is not safe for concurrent use.
type Core struct {
	// Rep accumulates the run's outcome; adapters write the fields the
	// engine does not own (Requests, Admitted, MaxInFlight, Remaining).
	Rep StreamReport

	pf            platform.Platform
	workers       []int        // live membership, in admission order
	member        map[int]bool // membership set (crashed workers are removed)
	version       int          // bumped on every applied add/remove/retire
	mode          Mode
	weights       map[int]float64
	det           *monitor.Detector
	normCost      float64
	log           *trace.Log
	onResult      func(platform.Result)
	onRecalibrate func(Breach) (Update, bool)
	onFailure     func(worker int) (Update, bool)
	defaultRecal  func(Breach) (Update, bool)
	onMembership  func(added []Member, removed []int)

	faults   Faults
	recent   map[int]*stats.Window
	pred     *predictor // nil unless the predictive policy is enabled
	start    time.Duration
	lastDone time.Duration
	done     int // finished tasks, whether or not Rep.Results retains them
}

// NewCore builds the adaptive state for one run starting at time start.
func NewCore(pf platform.Platform, workers []int, mode Mode, start time.Duration, opts StreamOptions) *Core {
	member := make(map[int]bool, len(workers))
	for _, w := range workers {
		member[w] = true
	}
	var pred *predictor
	if opts.Predict != nil {
		pred = newPredictor(opts, len(workers))
	}
	return &Core{
		Rep: StreamReport{
			BusyByWorker:  make(map[int]time.Duration, len(workers)),
			TasksByWorker: make(map[int]int, len(workers)),
		},
		pf:            pf,
		workers:       append([]int(nil), workers...),
		member:        member,
		mode:          mode,
		weights:       opts.Weights,
		det:           opts.Detector,
		normCost:      opts.NormCost,
		log:           opts.Log,
		onResult:      opts.OnResult,
		onRecalibrate: opts.OnRecalibrate,
		onFailure:     opts.OnFailure,
		pred:          pred,
		start:         start,
		recent:        make(map[int]*stats.Window, len(workers)),
	}
}

// SetDefaultRecal installs the adapter's structural recalibration (remap a
// pipeline stage, rebuild a decomposition...). It runs on breaches the
// OnRecalibrate hook declined; the returned Update is applied on top of
// whatever side effects the function performed, and changed reports
// whether anything was actually adapted — a no-op outcome (no spare, no
// distinguishable bottleneck) only resets the detector round and is not
// counted as a recalibration. When no default is installed the engine
// reweights workers by inverse recent mean time.
func (co *Core) SetDefaultRecal(f func(Breach) (u Update, changed bool)) { co.defaultRecal = f }

// SetOnMembership installs the adapter's membership hook, fired once per
// applied Update that changed the worker set — with the workers actually
// admitted and removed — so the adapter can adjust its dispatch topology
// (spawn a demand loop, fold a spare in, remap a stage). Crash retires do
// not fire the hook: the adapter's own failure path already observed them.
func (co *Core) SetOnMembership(f func(added []Member, removed []int)) { co.onMembership = f }

// Weight returns worker w's current dispatch weight (uniform when no
// weights were calibrated).
func (co *Core) Weight(w int) float64 {
	if co.weights == nil {
		return 1 / float64(len(co.workers))
	}
	return co.weights[w]
}

// Weights returns a copy of the current weight map (uniform when none were
// set).
func (co *Core) Weights() map[int]float64 {
	out := make(map[int]float64, len(co.workers))
	for _, w := range co.workers {
		out[w] = co.Weight(w)
	}
	return out
}

// WeightSliceFor projects current weights onto the given worker order.
func (co *Core) WeightSliceFor(workers []int) []float64 {
	out := make([]float64, len(workers))
	for i, w := range workers {
		out[i] = co.Weight(w)
	}
	return out
}

// SetWeights replaces the dispatch weights without counting a
// recalibration — the lever for routine between-wave reweighting.
func (co *Core) SetWeights(w map[int]float64) {
	if w != nil {
		co.weights = w
	}
}

// Alive reports whether worker w is a live member: admitted into the
// membership and not retired by a crash.
func (co *Core) Alive(w int) bool { return co.member[w] && co.faults.Alive(w) }

// Live returns the live members, in admission order. Every exit path —
// graceful Remove and crash Retire alike — goes through dropMember, so
// co.workers holds exactly the live membership and needs no re-filtering.
func (co *Core) Live() []int { return append([]int(nil), co.workers...) }

// LiveCount counts the live members without allocating — for per-dispatch
// hot paths that only need the width of the platform.
func (co *Core) LiveCount() int { return len(co.workers) }

// dropMember removes w from the membership order — the shared tail of the
// graceful-remove and crash-retire paths.
func (co *Core) dropMember(w int) {
	delete(co.member, w)
	for i, x := range co.workers {
		if x == w {
			co.workers = append(co.workers[:i], co.workers[i+1:]...)
			break
		}
	}
	co.version++
}

// Add admits worker m.Worker into the live membership mid-run. Workers
// already members, retired by a crash this run, or outside the platform
// are refused. A non-positive weight defaults to the mean of the current
// members' weights.
func (co *Core) Add(c rt.Ctx, m Member) bool {
	w := m.Worker
	if w < 0 || w >= co.pf.Size() || co.member[w] || !co.faults.Alive(w) {
		return false
	}
	co.member[w] = true
	co.workers = append(co.workers, w)
	co.version++
	if co.weights != nil {
		weight := m.Weight
		if weight <= 0 {
			var sum float64
			for _, v := range co.weights {
				sum += v
			}
			if n := len(co.weights); n > 0 {
				weight = sum / float64(n)
			} else {
				weight = 1
			}
		}
		co.weights[w] = weight
	}
	co.Rep.WorkersAdded++
	if co.log != nil {
		co.log.Append(trace.Event{
			At: c.Now(), Kind: trace.KindNote,
			Node: co.pf.WorkerName(w), Msg: "worker joined membership",
		})
	}
	return true
}

// Remove gracefully retires worker w from the live membership: it
// receives no further dispatches, but in-flight work on it completes
// normally and it may be re-added later. A removal that would leave no
// live worker is refused — the allocator must never be able to strand a
// stream (crash retires, which report reality rather than policy, are not
// so constrained).
func (co *Core) Remove(c rt.Ctx, w int, note string) bool {
	if !co.member[w] {
		return false
	}
	if live := co.Live(); len(live) == 1 && live[0] == w {
		return false
	}
	co.dropMember(w)
	co.Rep.WorkersRemoved++
	if co.log != nil {
		co.log.Append(trace.Event{
			At: c.Now(), Kind: trace.KindNote,
			Node: co.pf.WorkerName(w), Msg: note,
		})
	}
	return true
}

// Retire marks worker w dead, logging the note on first detection and
// reporting whether this call was it. A retire is the remove path's
// special case: the worker leaves the membership like a graceful Remove,
// but it is additionally recorded dead and can never be re-added this run.
// On first detection the OnFailure hook gets to replace it.
func (co *Core) Retire(c rt.Ctx, w int, note string) bool {
	if !co.faults.Retire(w) {
		return false
	}
	if co.member[w] {
		co.dropMember(w)
	}
	co.Rep.DeadWorkers = co.faults.Dead
	if co.log != nil {
		co.log.Append(trace.Event{
			At: c.Now(), Kind: trace.KindNote,
			Node: co.pf.WorkerName(w), Msg: note,
		})
	}
	if co.onFailure != nil {
		if u, ok := co.onFailure(w); ok {
			co.ApplyUpdate(c, u, false)
		}
	}
	return true
}

// Fail records one execution lost to a worker crash and retires the
// worker. disposition names what the adapter does with the task
// ("re-queued", "retried after remap", ...) so traces stay truthful.
// Rep.Failures is the authoritative count; co.faults serves retire
// bookkeeping only.
func (co *Core) Fail(c rt.Ctx, res platform.Result, disposition string) {
	co.Rep.Failures++
	co.Retire(c, res.Worker, fmt.Sprintf("worker %s failed; task %d %s",
		co.pf.WorkerName(res.Worker), res.Task.ID, disposition))
}

// Record books one finished task: completion time noted, OnResult fired,
// and the result appended to Results — unless this is a live stream whose
// consumer takes results through OnResult, where retaining every one as
// well would grow without bound for as long as the job runs. For
// multi-execution skeletons (pipelines) this is called once per task, at
// exit.
func (co *Core) Record(c rt.Ctx, res platform.Result) {
	co.done++
	co.lastDone = c.Now()
	if co.onResult != nil {
		co.onResult(res)
	}
	if co.onResult == nil || co.mode == ModeStop {
		co.Rep.Results = append(co.Rep.Results, res)
	}
}

// Observe books one successful execution — per-worker busy/count
// attribution, the recent-time window, the completion trace event — and
// feeds the detector. It returns true when this observation breached the
// threshold (after the breach has been handled per the Mode).
func (co *Core) Observe(c rt.Ctx, res platform.Result) bool {
	co.Rep.BusyByWorker[res.Worker] += res.Time
	co.Rep.TasksByWorker[res.Worker]++
	norm := Normalise(res, co.normCost)
	win := co.recent[res.Worker]
	if win == nil {
		win = stats.NewWindow(recentWindow)
		co.recent[res.Worker] = win
	}
	win.Push(norm.Seconds())
	if co.log != nil {
		co.log.Append(trace.Event{
			At: c.Now(), Kind: trace.KindComplete,
			Node: co.pf.WorkerName(res.Worker), Task: res.Task.ID, Dur: res.Time,
		})
	}
	breached := co.observeDetector(c, norm)
	if co.pred != nil {
		co.observeForecast(c, res.Worker, norm, breached)
	}
	return breached
}

// Complete is Record plus Observe: the whole bookkeeping for skeletons
// where one execution finishes one task (farm, dmap).
func (co *Core) Complete(c rt.Ctx, res platform.Result) bool {
	co.Record(c, res)
	return co.Observe(c, res)
}

// observeDetector feeds one normalised time to the detector and handles a
// breach: ModeStop marks the report and returns; ModeRecalibrate consults
// the OnRecalibrate hook, then the adapter default, then the built-in
// inverse-recent-mean reweight, and applies the update in place.
func (co *Core) observeDetector(c rt.Ctx, norm time.Duration) bool {
	if co.det == nil {
		return false
	}
	if co.mode == ModeStop && co.Rep.Breached {
		return false
	}
	co.det.Observe(norm)
	breached, stat := co.det.Breached()
	if !breached {
		return false
	}
	co.Rep.Breached = true
	co.Rep.BreachStat = stat
	co.Rep.Breaches++
	if co.log != nil {
		co.log.Append(trace.Event{
			At: c.Now(), Kind: trace.KindThreshold,
			Value: co.det.Ratio(),
			Msg:   fmt.Sprintf("breach: %s stat %v", co.det.Rule, stat),
		})
	}
	if co.mode == ModeStop {
		return true
	}
	b := Breach{Stat: stat, At: c.Now(), RecentMean: co.RecentMeans()}
	if co.onRecalibrate != nil {
		if u, ok := co.onRecalibrate(b); ok {
			co.ApplyUpdate(c, u, true)
			return true
		}
	}
	var u Update
	changed := false
	if co.defaultRecal != nil {
		u, changed = co.defaultRecal(b)
	} else {
		u = co.reweightByRecentMean(b.RecentMean)
		changed = u.Weights != nil
	}
	if changed {
		co.ApplyUpdate(c, u, true)
	} else {
		// Nothing could be adapted (no spare, no recent observations): end
		// the detector round so the same breach does not re-fire on every
		// observation, but do not report a recalibration that never
		// happened.
		co.det.Reset()
	}
	return true
}

// ApplyUpdate applies a live re-calibration: membership deltas are
// admitted and removed (and the adapter's membership hook fired with what
// actually changed), weights and threshold are replaced, the detector
// round resets (always after a breach), and the recalibration is counted
// and logged. Deltas apply before Weights so one Update can admit workers
// and install a weight map covering them atomically.
func (co *Core) ApplyUpdate(c rt.Ctx, u Update, breach bool) {
	co.applyUpdate(c, u, breach, false)
}

// applyUpdate is ApplyUpdate plus the predictive tag: forecast-driven
// updates count into PredictiveRecals and their recalibrate event carries
// predictive=true, so traces distinguish pre-breach reweights from the
// reactive ones without changing the breach=... vocabulary readers parse.
func (co *Core) applyUpdate(c rt.Ctx, u Update, breach, predictive bool) {
	var added []Member
	var removed []int
	for _, m := range u.Add {
		if co.Add(c, m) {
			added = append(added, m)
		}
	}
	for _, w := range u.Remove {
		if co.Remove(c, w, "worker removed from membership") {
			removed = append(removed, w)
		}
	}
	if u.Weights != nil {
		co.weights = u.Weights
	}
	if co.det != nil {
		if u.Z > 0 {
			co.det.Z = u.Z
		}
		if breach || u.ResetDetector {
			co.det.Reset()
		}
	}
	co.Rep.Recalibrations++
	if predictive {
		co.Rep.PredictiveRecals++
	}
	if co.log != nil {
		msg := fmt.Sprintf("recalibration %d (breach=%v)", co.Rep.Recalibrations, breach)
		if predictive {
			msg += " predictive=true"
		}
		co.log.Append(trace.Event{At: c.Now(), Kind: trace.KindRecalibrate, Msg: msg})
	}
	if (len(added) > 0 || len(removed) > 0) && co.onMembership != nil {
		co.onMembership(added, removed)
	}
}

// DrainControl applies every Update queued on the control channel. Values
// of any other type are ignored. Adapters call this before each dispatch
// decision so external updates always precede the next observation.
func (co *Core) DrainControl(c rt.Ctx, control rt.Chan) {
	if control == nil {
		return
	}
	for {
		v, ok, polled := control.TryRecv(c)
		if !polled || !ok {
			return
		}
		if u, isUpdate := v.(Update); isUpdate {
			co.ApplyUpdate(c, u, false)
		}
	}
}

// RecentMeans maps each worker with recent completions to the mean of its
// recent normalised execution times.
func (co *Core) RecentMeans() map[int]time.Duration {
	means := make(map[int]time.Duration, len(co.recent))
	for w, win := range co.recent {
		if win.Len() > 0 {
			means[w] = time.Duration(win.Mean() * float64(time.Second))
		}
	}
	return means
}

// reweightByRecentMean re-weights the live workers by inverse recent mean
// time — calibration from live observations, the streaming stand-in for
// re-running Algorithm 1's probes. Workers without recent completions get
// the mean observed speed so they are neither starved nor favoured until
// they report in.
func (co *Core) reweightByRecentMean(means map[int]time.Duration) Update {
	inv := make(map[int]float64, len(co.workers))
	var sum float64
	var n int
	for _, w := range co.workers {
		if m, ok := means[w]; ok && m > 0 && co.Alive(w) {
			inv[w] = 1 / m.Seconds()
			sum += inv[w]
			n++
		}
	}
	if n == 0 {
		return Update{}
	}
	neutral := sum / float64(n)
	for _, w := range co.workers {
		if _, ok := inv[w]; !ok && co.Alive(w) {
			inv[w] = neutral
			sum += neutral
		}
	}
	for w := range inv {
		inv[w] /= sum
	}
	return Update{Weights: inv}
}

// Finish computes the makespan, snapshots the final membership, and
// returns the completed report.
func (co *Core) Finish() StreamReport {
	if co.done > 0 {
		co.Rep.Makespan = co.lastDone - co.start
	}
	co.Rep.MembershipVersion = co.version
	co.Rep.FinalWorkers = co.Live()
	return co.Rep
}
