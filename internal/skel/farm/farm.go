// Package farm implements the task-farm algorithmic skeleton (the paper's
// first skeleton, detailed in its ref [6], "Self-adaptive skeletal task farm
// for computational grids").
//
// The farm is demand-driven: a farmer process hands chunks of tasks to
// worker processes as they ask for more, so fast (or lightly loaded) nodes
// naturally pull more work. Granularity is controlled by a sched.ChunkPolicy
// and dispatch shares by calibrated weights. Everything adaptive — the
// weights, the monitor.Detector implementing Algorithm 2's threshold rule,
// failure/retire handling, live recalibration, elastic membership — is
// delegated to the shared skel/engine contract; this package owns only the
// demand-driven dispatch topology, and owns it once: one farmer loop (run)
// serves both entry points. Stream feeds it from a live channel under the
// engine's admission-credit window and recalibrates in place on a breach.
// Run feeds it a finite task slice as an already-closed input and, on a
// breach, stops dispatching and returns the unexecuted tail so the GRASP
// core can recalibrate and resume ("feeding back to the calibration
// phase").
//
// RunStatic provides the non-adaptive baseline the experiments compare
// against: a fixed task-to-node partition decided up front.
package farm

import (
	"fmt"
	"time"

	"grasp/internal/monitor"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/sched"
	"grasp/internal/skel/engine"
	"grasp/internal/trace"
)

// Options configures a farm run.
type Options struct {
	// Workers are the chosen worker indices (default: all platform workers).
	Workers []int
	// Chunk is the granularity policy (default sched.Single).
	Chunk sched.ChunkPolicy
	// Weights are dispatch weights per worker from calibration (optional).
	Weights map[int]float64
	// Detector observes normalised task times and triggers the adaptive
	// stop (optional: nil farms never stop early).
	Detector *monitor.Detector
	// NormCost, when positive, normalises observed task times by task cost
	// before feeding the detector: observed · NormCost / task.Cost. This
	// keeps the threshold meaningful for irregular workloads.
	NormCost float64
	// Log receives dispatch/complete/threshold events (optional).
	Log *trace.Log
	// OnResult is invoked at the farmer for every completed task (optional).
	OnResult func(platform.Result)
	// Stop is an external stop predicate, polled at every farmer event
	// (optional). When it returns true the farm stops dispatching exactly
	// as on a detector breach — the hook proactive monitors (forecasted
	// pressure, deadline watchdogs) use to interrupt execution before task
	// times themselves degrade.
	Stop func() bool
}

// Report is the outcome of a farm run: the engine's skeleton-agnostic
// report. Remaining holds the tasks never executed — the undispatched tail
// after a breach or Stop, or whatever was left when every worker died;
// Requests counts farmer round-trips (worker chunk requests), the
// dispatch-traffic cost a coarser chunk policy amortises.
type Report = engine.StreamReport

// message is the farmer's multiplexed inbox entry.
type message struct {
	kind   msgKind
	worker int
	reply  rt.Chan         // request: where to send the chunk
	result platform.Result // result
	task   platform.Task   // task: forwarded by the intake pump
}

type msgKind int

const (
	msgRequest msgKind = iota
	msgResult
	msgDone
	msgTask
	msgEOF
)

// Run executes a finite task population from within process c, blocking
// until all work completes, the detector or Options.Stop halts the farm,
// or every worker has died. It is the coordinator loop run over an
// already-closed input: the tasks are the pre-admitted backlog, and a
// breach stops dispatch (engine.ModeStop) instead of recalibrating in
// place, so the caller can feed the tail back to calibration.
func Run(pf platform.Platform, c rt.Ctx, tasks []platform.Task, opts Options) Report {
	return run(pf, c, nil, tasks, engine.ModeStop, opts.Chunk, opts.Stop, engine.StreamOptions{
		Workers:  opts.Workers,
		Weights:  opts.Weights,
		Detector: opts.Detector,
		NormCost: opts.NormCost,
		Log:      opts.Log,
		OnResult: opts.OnResult,
	})
}

// Stream returns the farm's engine runner: demand-driven dispatch with the
// given chunk policy (default sched.Single) over a live input channel,
// admission bounded by the engine's credit window, breaches recalibrating
// in place. This is what the skeleton-agnostic service layer holds.
func Stream(chunk sched.ChunkPolicy) engine.Runner {
	return func(pf platform.Platform, c rt.Ctx, in rt.Chan, opts engine.StreamOptions) engine.StreamReport {
		return run(pf, c, in, nil, engine.ModeRecalibrate, chunk, nil, opts)
	}
}

// run is the farm's one coordinator loop. Tasks reach the pending queue
// from backlog (admitted before the first worker request, so chunk
// policies see the whole population) and, when in is non-nil, from the
// intake pump under the credit window; a nil in is an input already
// closed. Idle worker requests are parked and served chunks of pending
// tasks; a task lost to a crash joins the retry queue, which is served
// ahead of pending, and goes to the next parked worker. In ModeStop a
// breach or the stop predicate ends dispatch: chunks in flight finish and
// what is still queued is returned as Remaining.
// Membership is elastic: a worker admitted mid-run gets its own demand
// loop spawned on the spot, and a removed worker simply stops being fed —
// its next request is answered with an empty chunk and its loop exits (to
// be respawned if the worker is later re-admitted).
func run(pf platform.Platform, c rt.Ctx, in rt.Chan, backlog []platform.Task, mode engine.Mode, policy sched.ChunkPolicy, stop func() bool, opts engine.StreamOptions) engine.StreamReport {
	workers := opts.Workers
	if len(workers) == 0 {
		workers = make([]int, pf.Size())
		for i := range workers {
			workers[i] = i
		}
	}
	if policy == nil {
		policy = sched.Single{}
	}

	co := engine.NewCore(pf, workers, mode, c.Now(), opts)
	runtime := pf.Runtime()
	window := opts.Window
	if window <= 0 {
		window = 2 * len(workers)
	}
	inbox := runtime.NewChan("farm.inbox", engine.InboxCap(window, len(workers)))
	var intake *engine.Intake
	if in != nil {
		intake = engine.NewIntake(runtime, c, "farm.credits", window)
		intake.Pump(c, "farm.pump", in,
			func(cc rt.Ctx, t platform.Task) { inbox.Send(cc, message{kind: msgTask, task: t}) },
			func(cc rt.Ctx) { inbox.Send(cc, message{kind: msgEOF}) },
		)
	}

	type parkedReq struct {
		worker int
		reply  rt.Chan
	}
	var (
		// pending is admitted, not yet dispatched; capped at the backlog's
		// length so no append can write into the caller's slice.
		pending = backlog[:len(backlog):len(backlog)]
		// retry holds tasks whose execution failed; serve drains it before
		// pending — their loss already cost one execution, so delaying
		// them lengthens the tail.
		retry     []platform.Task
		parked    []parkedReq // idle workers awaiting work
		executing int         // dispatched, result not yet back
		eof       = in == nil
		stopped   bool // ModeStop breach or stop predicate: no more dispatch
		released  bool // empty chunks sent: workers are shutting down
		live      = len(workers)
	)
	co.Rep.Admitted = len(backlog)
	co.Rep.MaxInFlight = len(backlog)
	// loopActive tracks which worker indices currently have a demand
	// loop, so a worker that leaves and rejoins the membership while its
	// old loop is still draining never ends up with two loops.
	loopActive := make(map[int]bool, len(workers))
	for _, w := range workers {
		loopActive[w] = true
		spawnWorker(pf, c, inbox, w)
	}

	// queued is how many admitted tasks await dispatch.
	queued := func() int { return len(retry) + len(pending) }

	// serve hands the front parked worker a chunk of queued tasks.
	// Membership cannot change inside one serve call, so the live
	// count is hoisted out of the dispatch loop.
	serve := func() {
		nLive := co.LiveCount()
		for !stopped && len(parked) > 0 && queued() > 0 {
			p := parked[0]
			parked = parked[0:copy(parked, parked[1:])]
			if !co.Alive(p.worker) {
				p.reply.Send(c, []platform.Task{})
				continue
			}
			n := policy.Chunk(queued(), nLive, co.Weight(p.worker))
			if wc, isWC := policy.(sched.WorkerChunker); isWC {
				// Worker-aware policies (e.g. sched.AdaptiveChunk) size the
				// chunk for the specific requester.
				n = wc.ChunkFor(p.worker, queued(), nLive, co.Weight(p.worker))
			}
			n = max(1, min(n, queued()))
			// pending only ever moves forward, so the chunk's slots are never
			// written again and it can be handed out without a copy; only a
			// chunk that carries retried tasks is assembled.
			var chunk []platform.Task
			if k := min(n, len(retry)); k > 0 {
				chunk = append(make([]platform.Task, 0, n), retry[:k]...)
				retry = retry[:copy(retry, retry[k:])]
				chunk = append(chunk, pending[:n-k]...)
				pending = pending[n-k:]
			} else {
				chunk = pending[:n:n]
				pending = pending[n:]
			}
			executing += n
			if opts.Log != nil {
				for _, task := range chunk {
					opts.Log.Append(trace.Event{
						At: c.Now(), Kind: trace.KindDispatch,
						Node: pf.WorkerName(p.worker), Task: task.ID,
					})
				}
			}
			p.reply.Send(c, chunk)
		}
	}

	// release shuts the workers down once nothing is executing and nothing
	// more will be dispatched: the input is drained, or the farm stopped.
	release := func() {
		if released || executing > 0 || !(stopped || eof && queued() == 0) {
			return
		}
		released = true
		for _, p := range parked {
			p.reply.Send(c, []platform.Task{})
		}
		parked = parked[:0]
	}

	// Membership deltas from the control channel: an admitted worker
	// gets a demand loop on the spot; a removed worker needs nothing
	// here — serve() stops feeding it, its loop exits on the next empty
	// chunk, and msgDone below retires (or respawns) the loop.
	co.SetOnMembership(func(added []engine.Member, removed []int) {
		if released {
			return
		}
		for _, m := range added {
			if loopActive[m.Worker] {
				continue // the old loop is still draining; it resumes serving
			}
			loopActive[m.Worker] = true
			live++
			spawnWorker(pf, c, inbox, m.Worker)
		}
	})

	for live > 0 {
		v, ok := inbox.Recv(c)
		if !ok {
			break
		}
		// Drain after Recv, not before: a control update (threshold,
		// weights, membership) that arrives while the farmer is parked
		// must apply before the message that woke it is served, or the
		// first dispatch after an idle period would use the stale
		// membership.
		co.DrainControl(c, opts.Control)
		if !stopped && stop != nil && stop() {
			stopped = true
			co.Rep.Breached = true
			if opts.Log != nil {
				opts.Log.Append(trace.Event{
					At: c.Now(), Kind: trace.KindThreshold,
					Msg: "farm stop: external stop predicate",
				})
			}
		}
		m := v.(message)
		switch m.kind {
		case msgTask:
			co.Rep.Admitted++
			pending = append(pending, m.task)
			if n := queued() + executing; n > co.Rep.MaxInFlight {
				co.Rep.MaxInFlight = n
			}
			serve()
		case msgEOF:
			eof = true
			release()
		case msgRequest:
			co.Rep.Requests++
			if released || !co.Alive(m.worker) {
				m.reply.Send(c, []platform.Task{})
				continue
			}
			parked = append(parked, parkedReq{worker: m.worker, reply: m.reply})
			serve()
			release()
		case msgResult:
			res := m.result
			executing--
			if res.Failed() {
				// The worker crashed mid-task: stop feeding that worker and
				// re-queue the task ahead of pending.
				co.Fail(c, res, "re-queued")
				retry = append(retry, res.Task)
				serve()
				release()
				continue
			}
			if intake != nil {
				intake.Release(c)
			}
			if obs, isObs := policy.(sched.TimeObserver); isObs {
				obs.ObserveTime(res.Worker, res.Time)
			}
			if co.Complete(c, res) && mode == engine.ModeStop {
				stopped = true
			}
			release()
		case msgDone:
			if !released && co.Alive(m.worker) {
				// The worker rejoined the membership while its old loop
				// was exiting: restart the loop in place.
				spawnWorker(pf, c, inbox, m.worker)
				continue
			}
			loopActive[m.worker] = false
			live--
		}
	}
	if intake != nil {
		// If every worker died mid-stream the pump may still hold or await a
		// credit; closing the credit channel stops it. Tasks the pump had
		// already forwarded when the farmer stopped are recovered from the
		// inbox so they surface as Remaining rather than vanishing; tasks
		// still buffered in `in` (or in a blocked producer's hand) stay on
		// the producer's side and are detectable by comparing Admitted with
		// what was sent.
		intake.Close(c)
		for {
			v, ok, polled := inbox.TryRecv(c)
			if !polled || !ok {
				break
			}
			if m, isMsg := v.(message); isMsg && m.kind == msgTask {
				pending = append(pending, m.task)
			}
		}
	}
	co.Rep.Remaining = append(retry, pending...)
	return co.Finish()
}

// spawnWorker starts one demand-driven worker process: request a chunk on
// inbox, execute it as one dispatch group, stream each result back as it
// arrives, and exit on an empty chunk or a closed reply channel,
// announcing the exit with msgDone. An empty chunk only ever means
// shutdown: the farmer parks idle requests instead of answering them.
func spawnWorker(pf platform.Platform, c rt.Ctx, inbox rt.Chan, w int) {
	reply := pf.Runtime().NewChan(fmt.Sprintf("farm.reply.%d", w), 1)
	c.Go(fmt.Sprintf("farm.worker.%s", pf.WorkerName(w)), func(cc rt.Ctx) {
		report := func(res platform.Result) {
			inbox.Send(cc, message{kind: msgResult, worker: w, result: res})
		}
		for {
			inbox.Send(cc, message{kind: msgRequest, worker: w, reply: reply})
			v, ok := reply.Recv(cc)
			if !ok {
				break
			}
			chunk := v.([]platform.Task)
			if len(chunk) == 0 {
				break
			}
			platform.ExecChunk(pf, cc, w, chunk, report)
		}
		inbox.Send(cc, message{kind: msgDone, worker: w})
	})
}

// RunStatic executes tasks under a fixed task-to-worker partition: the
// non-adaptive baseline. partition[i] holds task indices for workers[i]
// (or worker i when workers is nil). No monitoring, no early stop.
func RunStatic(pf platform.Platform, c rt.Ctx, tasks []platform.Task, partition sched.Partition, workers []int, log *trace.Log) Report {
	if len(workers) == 0 {
		workers = make([]int, len(partition))
		for i := range workers {
			workers[i] = i
		}
	}
	if len(workers) != len(partition) {
		panic(fmt.Sprintf("farm: %d workers for %d partitions", len(workers), len(partition)))
	}
	start := c.Now()
	rep := Report{
		BusyByWorker:  make(map[int]time.Duration, len(workers)),
		TasksByWorker: make(map[int]int, len(workers)),
	}
	runtime := pf.Runtime()
	results := runtime.NewChan("farm.static.results", len(tasks)+1)

	total := 0
	for i, idxs := range partition {
		w := workers[i]
		mine := make([]platform.Task, len(idxs))
		for k, ti := range idxs {
			mine[k] = tasks[ti]
		}
		total += len(idxs)
		c.Go(fmt.Sprintf("farm.static.%s", pf.WorkerName(w)), func(cc rt.Ctx) {
			platform.ExecChunk(pf, cc, w, mine, func(res platform.Result) { results.Send(cc, res) })
		})
	}
	var lastCompletion time.Duration
	var faults engine.Faults
	for i := 0; i < total; i++ {
		v, ok := results.Recv(c)
		if !ok {
			break
		}
		res := v.(platform.Result)
		if res.Failed() {
			// The static farm has no re-dispatch: the task is simply lost,
			// which is exactly the weakness the adaptive farm removes.
			faults.Failures++
			faults.Retire(res.Worker)
			rep.Remaining = append(rep.Remaining, res.Task)
			continue
		}
		rep.Results = append(rep.Results, res)
		rep.BusyByWorker[res.Worker] += res.Time
		rep.TasksByWorker[res.Worker]++
		lastCompletion = c.Now()
		if log != nil {
			log.Append(trace.Event{
				At: c.Now(), Kind: trace.KindComplete,
				Node: pf.WorkerName(res.Worker), Task: res.Task.ID, Dur: res.Time,
			})
		}
	}
	rep.Failures = faults.Failures
	rep.DeadWorkers = faults.Dead
	if len(rep.Results) > 0 {
		rep.Makespan = lastCompletion - start
	}
	return rep
}
