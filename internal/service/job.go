package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"grasp/internal/cluster"
	"grasp/internal/metrics"
	"grasp/internal/monitor"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/skel/adapt"
	"grasp/internal/skel/engine"
	"grasp/internal/trace"
)

// Limits on job structure; wire-level work caps live in http.go.
const (
	maxStages     = 8
	maxCostFactor = 8
	// maxShare keeps the allocator's share sum finite: past it, two shares
	// (or one the predictive policy boosts) add up to +Inf and the split
	// stops owning every slot.
	maxShare = 1e6
	// maxThresholdFactor keeps Z = factor × warm-up mean inside a
	// time.Duration for any mean under 100 days, so a larger factor never
	// installs a smaller Z.
	maxThresholdFactor = 1e3
)

// Placements a job may declare. Per the paper's portability claim the
// semantics are identical: the same skeleton, the same adaptive engine,
// the same endpoints — only the execution substrate changes.
const (
	PlacementLocal   = "local"
	PlacementCluster = "cluster"
)

// Adaptation policies a job may declare.
const (
	// AdaptReactive is the paper's policy: recalibrate only after the
	// detector's threshold trips. The default.
	AdaptReactive = "reactive"
	// AdaptPredictive layers forecast-driven adaptation on top: the engine
	// reweights pre-breach when a worker's completion-time trend crosses
	// the margin, and the service forecasts the job's queue depth — boosting
	// its fair share (or requesting cluster nodes) under pressure and
	// shedding pushes with ErrOverloaded once the forecast exceeds the
	// admission bound.
	AdaptPredictive = "predictive"
)

// JobSpec are the per-job knobs a submitter may set.
type JobSpec struct {
	// Skeleton selects the dispatch topology: "farm" (default), "pipeline",
	// or "dmap". Every skeleton runs under the same engine contract — one
	// calibration ranking, one admission window, one detector rule, the
	// same cursor endpoints.
	Skeleton string `json:"skeleton,omitempty"`
	// Placement selects the execution substrate: "local" (default) runs on
	// the daemon's own worker slots; "cluster" dispatches to the remote
	// graspworker processes — those live at submission plus any that
	// register while the job runs (elastic membership).
	Placement string `json:"placement,omitempty"`
	// Share is the job's weight in the fair-share partition of the local
	// worker slots: a job with share 3 holds ~3× the workers of a
	// concurrent job with share 1, every slot is always owned by some job
	// (shares are relative, not caps), and the split rebalances live as
	// jobs come and go. Omitted: the daemon's default (1, or
	// -default-share). Values outside (0, 1e6] are rejected.
	Share *float64 `json:"share,omitempty"`
	// Window is the job's bounded in-flight window (default the service's
	// DefaultWindow).
	Window int `json:"window,omitempty"`
	// ThresholdFactor sets Z = factor × warm-up mean (default the
	// service's; at most 1000).
	ThresholdFactor float64 `json:"threshold_factor,omitempty"`
	// WarmupTasks is how many completions seed the threshold (default the
	// service's).
	WarmupTasks int `json:"warmup,omitempty"`
	// MaxResults bounds how many completed results the job retains for
	// polling; older results are discarded and the results cursor advances
	// past them (default 100000, capped at 1000000). This is the retention
	// bound that keeps a long-lived job's memory finite.
	MaxResults int `json:"max_results,omitempty"`
	// Stages describes a pipeline job's stages (pipeline only, 2..8).
	Stages []StageSpec `json:"stages,omitempty"`
	// WaveSize caps a dmap job's decomposition wave (dmap only; default
	// the window).
	WaveSize int `json:"wave_size,omitempty"`
	// Alpha is a dmap job's EWMA re-weighting factor in (0, 1] (dmap
	// only; default 0.5).
	Alpha float64 `json:"alpha,omitempty"`
	// Adapt selects the adaptation policy: "reactive" (the default — the
	// paper's breach-driven recalibration only) or "predictive" (forecast
	// worker trends and the queue depth, reweight pre-breach, autoscale the
	// share, and shed overload with 429s). Omitted: the daemon's default.
	Adapt string `json:"adapt,omitempty"`
}

// StageSpec describes one stage of a pipeline job: each submitted task
// flows through every stage, performing its own work scaled by the
// stage's cost factor.
type StageSpec struct {
	Name string `json:"name,omitempty"`
	// CostFactor scales the task's declared work at this stage (default 1,
	// max 8). The per-execution sleep/spin caps still apply after scaling.
	CostFactor float64 `json:"cost_factor,omitempty"`
}

func (js JobSpec) withDefaults(cfg Config) JobSpec {
	if js.Share == nil {
		share := cfg.DefaultShare
		js.Share = &share
	}
	if js.Window <= 0 {
		js.Window = cfg.DefaultWindow
	}
	if js.ThresholdFactor <= 0 {
		js.ThresholdFactor = cfg.ThresholdFactor
	}
	if js.WarmupTasks <= 0 {
		js.WarmupTasks = cfg.WarmupTasks
	}
	if js.MaxResults <= 0 {
		js.MaxResults = cfg.MaxResults
	}
	if js.MaxResults > 1_000_000 {
		js.MaxResults = 1_000_000
	}
	if js.Adapt == "" {
		js.Adapt = cfg.DefaultAdapt
	}
	return js
}

// Validate rejects malformed job parameters up front — negative knobs and
// cross-skeleton parameter mixups are client bugs the HTTP layer reports
// as 400, never silently substituted with defaults.
func (js JobSpec) Validate() error {
	if js.Window < 0 || js.Window > maxWindow {
		return fmt.Errorf("window must be in [0, %d], got %d", maxWindow, js.Window)
	}
	if js.WarmupTasks < 0 {
		return fmt.Errorf("warmup must be non-negative, got %d", js.WarmupTasks)
	}
	if js.MaxResults < 0 {
		return fmt.Errorf("max_results must be non-negative, got %d", js.MaxResults)
	}
	if !(js.ThresholdFactor >= 0 && js.ThresholdFactor <= maxThresholdFactor) {
		return fmt.Errorf("threshold_factor must be in [0, %g], got %g", maxThresholdFactor, js.ThresholdFactor)
	}
	if js.Share != nil && !(*js.Share > 0 && *js.Share <= maxShare) {
		return fmt.Errorf("share must be in (0, %g], got %g", maxShare, *js.Share)
	}
	if !adapt.Known(js.Skeleton) {
		return fmt.Errorf("unknown skeleton %q (have %v)", js.Skeleton, adapt.Names())
	}
	switch js.Placement {
	case "", PlacementLocal, PlacementCluster:
	default:
		return fmt.Errorf("unknown placement %q (have local, cluster)", js.Placement)
	}
	switch js.Adapt {
	case "", AdaptReactive, AdaptPredictive:
	default:
		return fmt.Errorf("unknown adapt policy %q (have reactive, predictive)", js.Adapt)
	}
	switch js.Skeleton {
	case adapt.Pipeline:
		if len(js.Stages) < 2 || len(js.Stages) > maxStages {
			return fmt.Errorf("pipeline job needs 2..%d stages, got %d", maxStages, len(js.Stages))
		}
		for i, st := range js.Stages {
			if st.CostFactor < 0 || st.CostFactor > maxCostFactor {
				return fmt.Errorf("stage %d: cost_factor must be in [0, %d], got %g", i, maxCostFactor, st.CostFactor)
			}
		}
		if js.WaveSize != 0 || js.Alpha != 0 {
			return fmt.Errorf("wave_size/alpha apply to dmap jobs only")
		}
	case adapt.DMap:
		if len(js.Stages) != 0 {
			return fmt.Errorf("stages apply to pipeline jobs only")
		}
		if js.WaveSize < 0 {
			return fmt.Errorf("wave_size must be non-negative, got %d", js.WaveSize)
		}
		if js.Alpha < 0 || js.Alpha > 1 {
			return fmt.Errorf("alpha must be in [0, 1], got %g", js.Alpha)
		}
	default: // farm
		if len(js.Stages) != 0 || js.WaveSize != 0 || js.Alpha != 0 {
			return fmt.Errorf("stages/wave_size/alpha apply to pipeline/dmap jobs only")
		}
	}
	return nil
}

// skeleton names the job's topology for statuses and metrics.
func (js JobSpec) skeleton() string {
	if js.Skeleton == "" {
		return adapt.Farm
	}
	return js.Skeleton
}

// placement names the job's execution substrate for statuses and metrics.
func (js JobSpec) placement() string {
	if js.Placement == "" {
		return PlacementLocal
	}
	return js.Placement
}

// adapt names the job's adaptation policy for statuses and metrics.
func (js JobSpec) adapt() string {
	if js.Adapt == "" {
		return AdaptReactive
	}
	return js.Adapt
}

// predictive reports whether the job runs the forecast-driven policy.
func (js JobSpec) predictive() bool { return js.adapt() == AdaptPredictive }

// share returns the resolved fair-share weight (after withDefaults).
func (js JobSpec) share() float64 {
	if js.Share == nil || *js.Share <= 0 {
		return 1
	}
	return *js.Share
}

// TaskSpec is one unit of submitted work in wire form. SleepUS models
// IO-bound work (the closure sleeps, and on Linux wakes like I/O
// completing: within tens of µs of the declared time, never before it),
// Spin models CPU-bound work (a busy loop); both may be combined. The
// closure returns the task ID.
type TaskSpec struct {
	ID      int     `json:"id"`
	Cost    float64 `json:"cost,omitempty"`
	SleepUS int64   `json:"sleep_us,omitempty"`
	Spin    int64   `json:"spin,omitempty"`
}

// task converts the wire form into a platform task. The TaskSpec rides
// along as Data so pipeline jobs can re-derive per-stage work.
func (ts TaskSpec) task() platform.Task {
	cost := ts.Cost
	if cost <= 0 {
		cost = 1
	}
	return platform.Task{ID: ts.ID, Cost: cost, Data: ts, Fn: func() any {
		// cluster.ExecWork is the one sleep+spin kernel, shared with remote
		// nodes so the two placements measure the same computation.
		cluster.ExecWork(ts.ClusterWork())
		return ts.ID
	}}
}

// ClusterWork implements cluster.WorkCarrier: the same sleep/spin
// parameters execute on a remote node that the closure above executes
// locally, which is what makes local and cluster placements semantically
// identical.
func (ts TaskSpec) ClusterWork() cluster.Work {
	return cluster.Work{Cost: ts.Cost, SleepUS: ts.SleepUS, Spin: ts.Spin}
}

// TaskResult is one completed task in wire form. Node names the cluster
// node that executed the task (empty for local placement).
type TaskResult struct {
	ID     int    `json:"id"`
	Worker int    `json:"worker"`
	Micros int64  `json:"micros"`
	Node   string `json:"node,omitempty"`
}

// Job states.
const (
	JobAccepting = "accepting"
	JobDraining  = "draining"
	JobDone      = "done"
	// JobRecovering is the limbo of a durable job replayed from the journal
	// whose runner has not been re-attached yet (a cluster job waiting for
	// its worker fleet to re-register). It accepts pushes — journaled, fed
	// to the engine at resume — and CloseInput (after which it reads
	// draining), and its recovered results serve the cursor API throughout.
	JobRecovering = "recovering"
)

// JobStatus is a point-in-time snapshot of a job, JSON-ready.
type JobStatus struct {
	Name      string `json:"name"`
	Skeleton  string `json:"skeleton"`
	Placement string `json:"placement"`
	State     string `json:"state"`
	// Share is the job's fair-share weight in the allocator's partition.
	Share float64 `json:"share"`
	// Workers counts the job's currently allocated workers — the live
	// membership, which grows and shrinks as competing jobs come and go
	// (local placement) or cluster nodes join and leave (cluster).
	Workers int `json:"workers"`
	// AllocatedWorkers lists the allocated worker indices.
	AllocatedWorkers []int `json:"allocated_workers,omitempty"`
	Submitted        int   `json:"submitted"`
	Completed        int   `json:"completed"`
	InFlight         int   `json:"in_flight"`
	Window           int   `json:"window"`
	ZMicros          int64 `json:"z_micros"`
	Breaches         int   `json:"breaches"`
	Recalibrations   int   `json:"recalibrations"`
	Failures         int   `json:"failures"`
	MaxInFlight      int   `json:"max_in_flight"`
	MakespanMicros   int64 `json:"makespan_micros"`
	// Adapt names the job's adaptation policy ("reactive" or "predictive").
	Adapt string `json:"adapt,omitempty"`
	// DetectorRatio is the detector's current stat/Z — how close the job is
	// to a reactive breach (0 until the threshold is installed and a round
	// has observations; >1 means breached).
	DetectorRatio float64 `json:"detector_ratio,omitempty"`
	// PredictiveRecals counts forecast-driven (pre-breach) recalibrations.
	PredictiveRecals int `json:"predictive_recals,omitempty"`
	// ForecastMicros maps worker index → the engine's current forecast of
	// that worker's next normalised completion time (predictive jobs only,
	// once each worker's forecaster is warm).
	ForecastMicros map[int]int64 `json:"forecast_micros,omitempty"`
	// QueueForecast is the service's forecast of the job's queue depth
	// (submitted − completed, one sampling step ahead; predictive only).
	QueueForecast float64 `json:"queue_forecast,omitempty"`
	// Shedding reports whether admission control is currently rejecting
	// pushes with 429 (predictive jobs whose queue-depth forecast exceeded
	// the bound).
	Shedding bool `json:"shedding,omitempty"`
	// Shed counts task batches rejected by admission control.
	Shed int `json:"shed,omitempty"`
	// EffectiveShare is the job's live fair-share weight after the
	// predictive autoscaler's adjustment (equal to Share when the policy is
	// off or the queue is calm).
	EffectiveShare float64 `json:"effective_share,omitempty"`
	// Lost counts accepted tasks that will never execute because the job's
	// run ended without them (every cluster node died mid-stream). Zero for
	// any job whose substrate survived.
	Lost int `json:"lost,omitempty"`
	// Nodes tallies a cluster job's executions per worker node (absent for
	// local placement).
	Nodes []cluster.NodeCount `json:"nodes,omitempty"`
}

// Job is one named streaming workload multiplexed onto the service. Its
// skeleton is opaque here: the job only ever touches the engine contract
// (the control channel, the breach hook, per-result callbacks).
type Job struct {
	name string
	svc  *Service
	spec JobSpec
	// pf is the job's execution platform; pool is its cluster view when the
	// placement is remote (nil for local jobs). Both are fixed at submission.
	pf      platform.Platform
	pool    *cluster.Pool
	in      rt.Chan
	control rt.Chan
	// det is constructed by the service and then owned by the skeleton's
	// coordinator; the job never touches it after submission (Status reads
	// zMicros instead).
	det  *monitor.Detector
	done chan struct{}
	// tr is the job's bounded timeline: the engine appends
	// dispatch/complete/threshold/recalibrate events, the service brackets
	// the calibrate/warmup/stream phases and records membership adaptations.
	// Shared clock: every event is stamped with the local runtime's Now.
	tr *trace.Log
	// clusterUnsub cancels the coordinator membership subscription feeding
	// node join/leave into this job (cluster placement only).
	clusterUnsub func()

	// sendMu guards the input channel's close against blocked senders:
	// pushers hold the read side — the input is a native channel, so
	// concurrent sends are safe, and concurrent pushers' journal commits
	// coalesce into shared fsync batches instead of serialising — while
	// CloseInput and recovery's resume hold the write side, so the channel
	// is never closed (and the journaled backlog never re-delivered) with
	// a push in flight.
	sendMu sync.RWMutex

	// wj is the job's task pool (see wal.go), guarded by the wal's lock:
	// written only by committing records, read through wal.view. ack is
	// onResult's scratch record (acks are serial; commit does not keep it).
	wj  *walJob
	ack [1]TaskResult

	mu sync.Mutex
	// running reports an attached runner (false for a recovered job until
	// resume); the rest of the lifecycle is wj.Closed and the done channel.
	running bool
	// completed is the visibility watermark: how many of wj's results
	// pollers may see. It advances only after the ack's commit returns, so
	// visible implies durable though the wal applies before it fsyncs.
	completed int
	// changed releases the results polls parked at the watermark (waitPast):
	// a waiter makes it, and the next watermark advance or lifecycle move
	// closes it and clears it (wakeLocked). nil while no poll waits.
	changed        chan struct{}
	breaches       int
	recalibrations int
	zMicros        int64
	warmTotal      time.Duration
	warmSeen       int
	zInstalled     bool
	rep            engine.StreamReport

	// Predictive-policy observability and admission state (zero-valued for
	// reactive jobs): the engine's per-worker forecasts and trigger count
	// arrive through onForecast, the detector ratio is sampled in onResult,
	// and the service's forecast loop drives queueForecast/shedding/effShare.
	detRatio         float64
	forecasts        map[int]int64
	predictiveRecals int
	queueForecast    float64
	shedding         bool
	shed             int
	effShare         float64

	// Membership: workerSet is the desired membership — the allocator's
	// (or the cluster subscription's) view of this job's workers — and
	// engineSet is the membership as of the last successfully flushed
	// control update. A flush sends the diff between the two through a
	// non-blocking send — from the delta source and, while a send that
	// found the control buffer full is outstanding (deltaPending), again on
	// each result — so the allocator is never blocked on a slow job and any
	// sequence of failed flushes still converges: the diff is recomputed
	// from the authoritative sets each time, never maintained
	// incrementally.
	workerSet      map[int]bool
	engineSet      map[int]bool
	deltaPending   bool
	memberWeights  map[int]float64 // initial weight per desired worker
	pendingWeights map[int]float64 // full re-normalised map to install
}

// Name returns the job's name.
func (j *Job) Name() string { return j.name }

// Trace returns the job's bounded event timeline.
func (j *Job) Trace() *trace.Log { return j.tr }

// Done is closed once the job's stream has drained and its completion is durable.
func (j *Job) Done() <-chan struct{} { return j.done }

// finished reports whether Done is closed.
func (j *Job) finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// lifecycle derives a job's state from the three facts that make it up:
// Done is closed, wj.Closed is set, a runner is attached.
func lifecycle(done, closed, running bool) string {
	switch {
	case done:
		return JobDone
	case closed:
		return JobDraining
	case !running:
		return JobRecovering
	}
	return JobAccepting
}

// state reads the job's lifecycle state alone — Status().State without the
// rest of the snapshot — taking Status's locks in Status's order.
func (j *Job) state() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	done := j.finished()
	return lifecycle(done, j.svc.wal.view(j.wj).Closed, j.running)
}

// waitPast returns a channel that closes at the next change a results poll
// at cursor after waits for: the watermark advances or the lifecycle moves
// (Done closing is the caller's to watch). It returns nil when there is
// nothing to wait for: results past after are visible, or the job is done.
func (j *Job) waitPast(after int) <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	if after < j.completed || j.finished() {
		return nil
	}
	if j.changed == nil {
		j.changed = make(chan struct{})
	}
	return j.changed
}

// wakeLocked releases the results polls parked in waitPast; with none
// parked it is one nil check. Callers hold j.mu.
func (j *Job) wakeLocked() {
	if j.changed != nil {
		close(j.changed)
		j.changed = nil
	}
}

// Push submits tasks to the job, blocking under backpressure: the engine's
// in-flight window is the only bound on admitted work, so once it is full
// the rest of the batch waits here, in the blocked push, and is handed
// over one task at a time (service_push_wait_seconds is that wait). It
// returns how many tasks were accepted. A job whose run finishes while a
// push is blocked — every cluster node died and the engine abandoned the
// stream — unblocks with an error instead of hanging the submitter: the
// runner no longer drains the input, so a plain channel send would never
// return. The batch stays in the submitted count (it was committed); the
// part that never ran is counted lost when the job ends.
func (j *Job) Push(specs []TaskSpec) (int, error) {
	j.sendMu.RLock()
	defer j.sendMu.RUnlock()
	w := j.svc.wal
	closed := w.view(j.wj).Closed
	j.mu.Lock()
	state := lifecycle(j.finished(), closed, j.running)
	if state != JobAccepting && state != JobRecovering {
		j.mu.Unlock()
		return 0, fmt.Errorf("service: job %q is %s, not accepting tasks", j.name, state)
	}
	// Admission control: while the queue-depth forecast is over the bound
	// the whole batch is rejected before it touches the journal or the
	// input channel — the caller gets 429 + Retry-After instead of a Push
	// blocked on backpressure, and accepted-task accounting stays exact.
	if j.shedding {
		j.shed++
		j.mu.Unlock()
		j.svc.cShed.Add(int64(len(specs)))
		return 0, fmt.Errorf("service: job %q queue-depth forecast over the admission bound: %w", j.name, ErrOverloaded)
	}
	j.mu.Unlock()
	// Commit the batch before a single task becomes observable: when a
	// durable service says "accepted", the tasks survive a crash. Recovery
	// re-delivers exactly the journaled-but-unacknowledged remainder. The
	// whole HTTP batch is one walTasks record, and concurrent pushers'
	// records group-commit under a single fsync, so durable ingest scales
	// with pusher concurrency instead of the disk's serial fsync rate.
	if err := w.commit(walRecord{Kind: walTasks, Job: j.name, Tasks: specs}); err != nil {
		return 0, fmt.Errorf("service: job %q: journal: %w", j.name, err)
	}
	// With no runner to feed yet the batch waits in the pending set: resume
	// delivers it with the rest of the backlog.
	accepted, pushErr := len(specs), error(nil)
	if state == JobAccepting {
		start := time.Now()
		accepted, pushErr = j.feed(specs)
		j.svc.hPushWait.ObserveDuration(time.Since(start))
	}
	j.svc.cSubmitted.Add(int64(accepted))
	return accepted, pushErr
}

// feed delivers tasks into the job's input channel — the send half of
// Push, also used by recovery to re-deliver the journaled backlog.
// Callers hold sendMu (Push the read side, resume the write side).
func (j *Job) feed(specs []TaskSpec) (int, error) {
	// A finished job is checked for before every send, not only when the
	// hand-off slot is taken: once a cluster job's runner abandons the
	// stream (all nodes dead) nothing drains j.in, so a send into its free
	// slot would be reported accepted though it can only be lost. A send
	// that does block parks until the runner takes it or the job finishes.
	// (A local job's workers cannot all die: its runner drains the input
	// until close, and the done arm never fires mid-push.)
	for accepted, ts := range specs {
		if j.finished() || !rt.SendOrDone(j.in, ts.task(), j.done) {
			return accepted, fmt.Errorf("service: job %q finished mid-push (workers lost); %d of %d tasks accepted",
				j.name, accepted, len(specs))
		}
	}
	return len(specs), nil
}

// CloseInput ends submission; the job drains its in-flight tasks and then
// completes. Closing an already-closed job is an error for callers but
// harmless. The close is committed first (recovery re-delivers a closed
// job's backlog, then drains); with no runner yet, resume closes the input.
func (j *Job) CloseInput() error {
	j.sendMu.Lock()
	defer j.sendMu.Unlock()
	w := j.svc.wal
	closed := w.view(j.wj).Closed
	j.mu.Lock()
	state := lifecycle(j.finished(), closed, j.running)
	j.mu.Unlock()
	if state != JobAccepting && state != JobRecovering {
		return fmt.Errorf("service: job %q already %s", j.name, state)
	}
	if err := w.commit(walRecord{Kind: walClose, Job: j.name}); err != nil {
		return fmt.Errorf("service: job %q: journal: %w", j.name, err)
	}
	j.mu.Lock()
	j.wakeLocked() // parked polls answer draining
	j.mu.Unlock()
	if state == JobAccepting {
		j.in.Close(nil)
	}
	return nil
}

// stageTask derives the work pipeline stage si performs on a flowing
// task: the submitted TaskSpec scaled by the stage's cost factor, with
// the per-execution work caps re-applied so a multi-stage job cannot
// amplify past them.
func (j *Job) stageTask(stage int, t platform.Task) platform.Task {
	ts, ok := t.Data.(TaskSpec)
	if !ok || stage >= len(j.spec.Stages) {
		return t
	}
	f := j.spec.Stages[stage].CostFactor
	if f <= 0 {
		f = 1
	}
	scaled := TaskSpec{
		ID:      ts.ID,
		Cost:    ts.Cost * f,
		SleepUS: capWork(int64(float64(ts.SleepUS)*f), maxSleepUS),
		Spin:    capWork(int64(float64(ts.Spin)*f), maxSpin),
	}
	return scaled.task()
}

// capWork clamps scaled work into [0, cap].
func capWork(v, max int64) int64 {
	if v < 0 {
		return 0
	}
	if v > max {
		return max
	}
	return v
}

// applyDelta records a membership change — added workers with their
// initial weights, removed workers, and optionally a full re-normalised
// weight map covering the new set — in the desired membership and tries
// to flush the engine's view up to date. Delta sources (the allocator's
// rebalance callback, the cluster membership subscription) call this
// synchronously; it never blocks.
func (j *Job) applyDelta(added []engine.Member, removed []int, weights map[int]float64) {
	j.mu.Lock()
	if j.finished() {
		// An in-flight membership event can outlive the unsubscribe; a
		// finished job must not grow phantom workers or resurrect its
		// deleted gauge.
		j.mu.Unlock()
		return
	}
	for _, m := range added {
		j.workerSet[m.Worker] = true
		j.memberWeights[m.Worker] = m.Weight
	}
	for _, w := range removed {
		if len(j.workerSet) == 1 && j.workerSet[w] {
			// Mirror the engine's floor: a graceful removal that would
			// leave no worker is refused there, so the status view keeps
			// the last worker too (a truly dead substrate ends the job
			// through the crash path shortly anyway).
			continue
		}
		delete(j.workerSet, w)
		delete(j.memberWeights, w)
	}
	if weights != nil {
		j.pendingWeights = weights
	}
	workers := int64(len(j.workerSet))
	j.flushDeltaLocked()
	j.mu.Unlock()
	if len(added) > 0 || len(removed) > 0 {
		j.tr.Append(trace.Event{
			At: j.svc.l.Now(), Kind: trace.KindAdapt,
			Msg:   fmt.Sprintf("membership +%d -%d", len(added), len(removed)),
			Value: float64(workers),
		})
	}
	j.svc.reg.Gauge("service_job_workers_" + metrics.LabelSafe(j.name)).Set(workers)
}

// flushDeltaLocked tries to bring the engine's membership up to the
// desired one: the Update carries the diff between workerSet and
// engineSet, recomputed fresh each call so interleaved failed flushes can
// never strand a stale delta. TrySend never blocks; on failure (control
// buffer full) nothing changes but deltaPending, and the next result's
// flush retries — the coordinator drains control on every message, so a
// job with traffic converges promptly.
func (j *Job) flushDeltaLocked() {
	j.deltaPending = false
	var u engine.Update
	for w := range j.workerSet {
		if !j.engineSet[w] {
			u.Add = append(u.Add, engine.Member{Worker: w, Weight: j.memberWeights[w]})
		}
	}
	for w := range j.engineSet {
		if !j.workerSet[w] {
			u.Remove = append(u.Remove, w)
		}
	}
	u.Weights = j.pendingWeights
	if len(u.Add) == 0 && len(u.Remove) == 0 && u.Weights == nil {
		return
	}
	sort.Slice(u.Add, func(a, b int) bool { return u.Add[a].Worker < u.Add[b].Worker })
	sort.Ints(u.Remove)
	if !j.control.TrySend(nil, u) {
		j.deltaPending = true
		return
	}
	j.engineSet = make(map[int]bool, len(j.workerSet))
	for w := range j.workerSet {
		j.engineSet[w] = true
	}
	j.pendingWeights = nil
	j.svc.reg.Counter("service_membership_updates_total").Inc()
}

// onAllocDelta adapts the fair-share allocator's rebalance callback: the
// added workers get weights from the cached calibration ranking, and the
// whole new allocation's re-normalised weight map rides along so dispatch
// shares stay consistent after the membership change.
func (j *Job) onAllocDelta(added, removed []int) {
	gone := make(map[int]bool, len(removed))
	for _, w := range removed {
		gone[w] = true
	}
	j.mu.Lock()
	full := make([]int, 0, len(j.workerSet)+len(added))
	for w := range j.workerSet {
		if !gone[w] {
			full = append(full, w)
		}
	}
	j.mu.Unlock()
	for _, w := range added {
		full = append(full, w)
	}
	sort.Ints(full)
	weights := j.svc.ranking.Weights(full)
	members := make([]engine.Member, len(added))
	for i, w := range added {
		members[i] = engine.Member{Worker: w, Weight: weights[w]}
	}
	j.applyDelta(members, removed, weights)
}

// onResult records a completion and, during warm-up, accumulates times
// toward the live threshold installation.
func (j *Job) onResult(res platform.Result) {
	j.svc.cCompleted.Inc()
	j.svc.hTaskLatency.ObserveDuration(res.Time)
	node := ""
	if j.pool != nil {
		node = j.pool.NodeName(res.Worker)
	}
	tr := TaskResult{
		ID:     res.Task.ID,
		Worker: res.Worker,
		Micros: res.Time.Microseconds(),
		Node:   node,
	}
	// The acknowledgement is committed before the watermark moves past the
	// result: once a client's cursor is beyond it, no crash can make the
	// service deliver that task again — the replayed pending set no longer
	// contains it. Each job's coordinator commits its acks serially, but
	// acks from different jobs — and acks racing pushes — coalesce through
	// the wal's group commit, so a busy daemon pays one fsync for a convoy of
	// acknowledgements. A latched journal error does not suppress
	// publication (the wal still applies the ack; new accepts fail loudly
	// instead); a wal already shut down applied nothing, and the next Open
	// re-delivers the task, so publishing it here would deliver it twice.
	j.ack[0] = tr
	if err := j.svc.wal.commit(walRecord{Kind: walResults, Job: j.name, Results: j.ack[:]}); errors.Is(err, errWALClosed) {
		return
	}
	j.mu.Lock()
	j.completed++
	j.wakeLocked()
	var install time.Duration
	if !j.zInstalled {
		j.warmTotal += res.Time
		j.warmSeen++
		if j.warmSeen >= j.spec.WarmupTasks {
			mean := j.warmTotal / time.Duration(j.warmSeen)
			install = time.Duration(float64(mean) * j.spec.ThresholdFactor)
			if install <= 0 {
				install = time.Microsecond
			}
			j.zInstalled = true
			j.zMicros = install.Microseconds()
		}
	}
	if j.deltaPending {
		// Retry the membership delta a full control buffer deferred.
		j.flushDeltaLocked()
	}
	if j.spec.predictive() && j.zInstalled {
		// The detector belongs to the coordinator and onResult runs inside
		// it, so reading the ratio here is the one safe place to surface
		// "how close to a breach" without racing Observe.
		if r := j.det.Ratio(); r == r { // filter NaN (no round yet)
			j.detRatio = r
		}
	}
	j.mu.Unlock()
	if install > 0 {
		// The coordinator polls the control channel between events; TrySend
		// from inside OnResult (which runs in the coordinator) cannot block.
		j.control.TrySend(nil, engine.Update{Z: install, ResetDetector: true})
		j.svc.reg.Counter("service_thresholds_installed_total").Inc()
		// The warm-up phase ends at threshold installation: from here on the
		// detector is armed and breaches can recalibrate the job.
		j.tr.Append(trace.Event{
			At: j.svc.l.Now(), Kind: trace.KindPhaseEnd, Msg: "warmup",
			Dur: install,
		})
		j.svc.log.Info("job threshold installed",
			"job", j.name, "z", install, "warmup_tasks", j.spec.WarmupTasks)
	}
}

// onForecast records the engine's per-worker completion-time forecasts
// (predictive policy only). It runs in the skeleton's coordinator, once
// per completion after a worker's forecaster warms; triggered marks the
// observation that fired a pre-breach reweight.
func (j *Job) onForecast(worker int, forecast time.Duration, triggered bool) {
	j.mu.Lock()
	if j.forecasts == nil {
		j.forecasts = make(map[int]int64)
	}
	j.forecasts[worker] = forecast.Microseconds()
	if triggered {
		j.predictiveRecals++
	}
	j.mu.Unlock()
	if triggered {
		j.svc.reg.Counter("service_predictive_recals_total").Inc()
	}
}

// onRecalibrate counts the breach and defers to the skeleton's own
// recalibration default (reweighting for farm/dmap, remapping for
// pipelines).
func (j *Job) onRecalibrate(engine.Breach) (engine.Update, bool) {
	j.svc.reg.Counter("service_breaches_total").Inc()
	j.svc.reg.Counter("service_recalibrations_total").Inc()
	j.mu.Lock()
	j.breaches++
	j.recalibrations++
	j.mu.Unlock()
	return engine.Update{}, false
}

// finish stores the final report and ends the job in the order results
// obey: durable first, visible second. The done record settles the task
// pool — whatever was accepted and has not completed (the engine's
// Remaining, tasks buffered in the input, a push cut short by the last
// node's death) becomes the lost count — and only after its commit returns
// is Done closed, so observing done means done is on disk, lost count
// included. A crash before the record lands replays the job as an
// unfinished stream, which re-runs this same path and converges.
func (j *Job) finish(rep engine.StreamReport) {
	j.mu.Lock()
	j.rep = rep
	j.mu.Unlock()
	j.tr.Append(trace.Event{At: j.svc.l.Now(), Kind: trace.KindPhaseEnd, Msg: "stream"})
	// An error is the journal's latch (the record still applied) or a
	// service already shut down: nothing a waiter should keep waiting for.
	_ = j.svc.wal.commit(walRecord{Kind: walDone, Job: j.name})
	// Return the job's workers to the pool before announcing completion:
	// the allocator's rebalance hands them to the surviving jobs (work
	// conservation), and a waiter observing Done must already see the
	// post-rebalance allocations. A cluster job instead stops watching
	// node membership.
	if j.clusterUnsub != nil {
		j.clusterUnsub()
	}
	if j.pool == nil {
		j.svc.alloc.Leave(j.name)
	}
	close(j.done)
	pool := j.svc.wal.view(j.wj)
	j.svc.log.Info("job finished",
		"job", j.name, "completed", pool.completed(), "lost", pool.Lost,
		"failures", rep.Failures, "makespan", rep.Makespan)
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	// done before the view: a status that says done has the settled lost
	// count. View under j.mu: the watermark cannot pass its submitted count.
	done := j.finished()
	pool := j.svc.wal.view(j.wj)
	allocated := make([]int, 0, len(j.workerSet))
	for w := range j.workerSet {
		allocated = append(allocated, w)
	}
	sort.Ints(allocated)
	st := JobStatus{
		Name:             j.name,
		Skeleton:         j.spec.skeleton(),
		Placement:        j.spec.placement(),
		State:            lifecycle(done, pool.Closed, j.running),
		Share:            j.spec.share(),
		Workers:          len(allocated),
		AllocatedWorkers: allocated,
		Submitted:        pool.Submitted,
		Completed:        j.completed,
		InFlight:         pool.Submitted - j.completed,
		Window:           j.spec.Window,
		ZMicros:          j.zMicros,
		Breaches:         j.breaches,
		Recalibrations:   j.recalibrations,
		Adapt:            j.spec.adapt(),
		DetectorRatio:    j.detRatio,
		PredictiveRecals: j.predictiveRecals,
		QueueForecast:    j.queueForecast,
		Shedding:         j.shedding,
		Shed:             j.shed,
		EffectiveShare:   j.effShare,
	}
	if len(j.forecasts) > 0 {
		st.ForecastMicros = make(map[int]int64, len(j.forecasts))
		for w, f := range j.forecasts {
			st.ForecastMicros[w] = f
		}
	}
	if done {
		st.Failures = j.rep.Failures
		st.MaxInFlight = j.rep.MaxInFlight
		st.MakespanMicros = j.rep.Makespan.Microseconds()
		st.Lost = pool.Lost
		// Breaches/Recalibrations stay the job's own breach-driven counts:
		// the engine report additionally counts control updates (the warm-up
		// threshold install), which would make the numbers jump at
		// completion for jobs that never adapted.
	}
	if j.pool != nil {
		st.Nodes = j.pool.NodeCounts()
	}
	return st
}

// Results returns completed results from cursor after onward plus the
// next cursor value, serving only below the visibility watermark. It never
// waits; the results endpoint parks a poll at the watermark (waitPast)
// before calling it. Cursors predating the retention bound are advanced to
// the oldest retained result, so a slow poller loses trimmed results but
// never stalls: next − len(results) − after is how many it lost, which the
// endpoint reports as the page's gap. The returned slice aliases the
// retained results and must not be modified.
func (j *Job) Results(after int) ([]TaskResult, int) {
	// j.mu is held across the view so the watermark cannot pass it; the trim
	// keeps ≥ 1 result and at most one is invisible, so base ≤ completed.
	j.mu.Lock()
	next := j.completed
	pool := j.svc.wal.view(j.wj)
	j.mu.Unlock()
	base := pool.ResultsBase
	after = min(max(after, base), next)
	if after == next {
		return nil, next
	}
	return pool.Results[after-base : next-base : next-base], next
}

// Report returns the final engine report (zero until the job is done).
func (j *Job) Report() engine.StreamReport {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rep
}
