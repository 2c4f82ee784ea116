// Package dmap implements the data-parallel map ("deal") algorithmic
// skeleton: the task population is decomposed into one contiguous block
// per worker and scattered in a single round-trip, in contrast to the
// farm's per-request dispatch.
//
// The skeleton's intrinsic properties, in GRASP terms, are
//
//   - minimal dispatch traffic: one scatter per worker per wave, so the
//     farmer round-trips the granularity experiments count collapse to P;
//   - coarse adaptation granularity: once a block is scattered it cannot be
//     rebalanced, so decomposition quality is decided by the weights the
//     calibration phase supplies.
//
// Adaptivity therefore happens *between* waves: each wave's observed
// per-worker throughput re-weights the next (an EWMA blend), every wave is
// partitioned over the engine's membership at fire time — so a worker
// admitted mid-run joins the next wave and a removed or crashed one is
// left out of it — and the shared skel/engine contract supplies everything
// else: the calibrated weights, the monitor.Detector implementing
// Algorithm 2's threshold rule, and failure/retire handling.
//
// One coordinator loop (run) serves both entry points. Stream feeds it
// from a live channel under the engine's admission-credit window: a wave
// fires as soon as the previous one has drained, sized by whatever the
// window has buffered (up to WaveSize), and a breach recalibrates the
// weights in place. Run feeds it a finite task slice as an already-closed
// input split into Options.Waves even rounds and, on a breach, returns the
// remaining waves so the GRASP core can recalibrate, exactly as the farm
// does.
//
// Workers that crash mid-block (grid.ErrNodeFailed) lose the rest of their
// block; the lost tasks are re-queued at the head of the next wave (or
// returned in Remaining after Run's last one).
package dmap

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

// Options configures a map run.
type Options struct {
	// Workers are the chosen worker indices (default: all platform workers).
	Workers []int
	// Weights are initial decomposition weights per worker, typically the
	// calibrated speed shares (default: uniform).
	Weights map[int]float64
	// Waves is the number of successive decomposition rounds (default 1:
	// a fully static single-scatter map).
	Waves int
	// Alpha is the EWMA blend factor for throughput-derived re-weighting in
	// (0, 1]; 0 defaults to 0.5. Higher values trust the latest wave more.
	Alpha float64
	// Detector observes normalised task times and, on breach, stops the map
	// after the current wave (optional).
	Detector *monitor.Detector
	// NormCost, when positive, normalises observed task times by task cost
	// before feeding the detector (see farm.Options.NormCost).
	NormCost float64
	// Log receives dispatch/complete/threshold events (optional).
	Log *trace.Log
	// OnResult is invoked at the master for every completed task (optional).
	OnResult func(platform.Result)
}

// Report is the outcome of a map run: the engine's skeleton-agnostic
// report. Remaining holds the tail waves after a detector breach plus any
// tasks lost to crashes on the final wave; Requests counts block
// dispatches, one per live worker per wave, the deal skeleton's whole
// dispatch traffic.
type Report = engine.StreamReport

// StreamParams are the streaming map's own knobs; everything adaptive
// comes from engine.StreamOptions.
type StreamParams struct {
	// WaveSize caps how many tasks one decomposition wave scatters
	// (default: the admission window).
	WaveSize int
	// Alpha is the EWMA blend factor for between-wave re-weighting in
	// (0, 1]; 0 defaults to 0.5.
	Alpha float64
}

// blockOutcome is what one worker reports back after processing its block.
type blockOutcome struct {
	worker   int
	busy     time.Duration
	lost     []platform.Task // tasks not executed because the worker crashed
	executed float64         // summed cost of completed tasks
}

// message is the coordinator's multiplexed inbox entry.
type message struct {
	kind msgKind
	task platform.Task   // msgTask: forwarded by the intake pump
	res  platform.Result // msgResult: one finished task of a block
	out  blockOutcome    // msgOutcome: a block is done
}

type msgKind int

const (
	msgTask msgKind = iota
	msgEOF
	msgResult
	msgOutcome
)

// Run executes a finite task population with block decomposition from
// within process c, blocking until all waves complete, the detector stops
// the map, or every worker has died. It is the coordinator loop run over
// an already-closed input: the tasks are the pre-admitted backlog, each
// wave takes an even share of what remains (so later waves can still
// rebalance; the final wave drains the queue), and a breach stops the map
// after the current wave (engine.ModeStop).
func Run(pf platform.Platform, c rt.Ctx, tasks []platform.Task, opts Options) Report {
	waves := opts.Waves
	if waves < 1 {
		waves = 1
	}
	return run(pf, c, nil, tasks, engine.ModeStop,
		func(buffered, wave int) int {
			if wave >= waves {
				return 0
			}
			return waveSize(buffered, waves-wave)
		},
		opts.Alpha,
		engine.StreamOptions{
			Workers:  opts.Workers,
			Weights:  opts.Weights,
			Detector: opts.Detector,
			NormCost: opts.NormCost,
			Log:      opts.Log,
			OnResult: opts.OnResult,
		})
}

// RunStatic executes tasks as a single-wave map with the given weights: the
// non-adaptive deal baseline (equivalent to Run with Waves=1 and no
// detector, provided for symmetry with farm.RunStatic).
func RunStatic(pf platform.Platform, c rt.Ctx, tasks []platform.Task, weights map[int]float64, workers []int, log *trace.Log) Report {
	return Run(pf, c, tasks, Options{
		Workers: workers,
		Weights: weights,
		Waves:   1,
		Log:     log,
	})
}

// Stream returns the deal skeleton's engine runner: waves are
// demand-driven, so the skeleton degrades to fine scatters under light
// load and amortises dispatch under pressure.
func Stream(params StreamParams) engine.Runner {
	return func(pf platform.Platform, c rt.Ctx, in rt.Chan, opts engine.StreamOptions) engine.StreamReport {
		if opts.Window <= 0 {
			// The credit window's default: 2× the worker count.
			opts.Window = 2 * pf.Size()
			if n := len(opts.Workers); n > 0 {
				opts.Window = 2 * n
			}
		}
		waveCap := params.WaveSize
		if waveCap <= 0 || waveCap > opts.Window {
			waveCap = opts.Window
		}
		return run(pf, c, in, nil, engine.ModeRecalibrate,
			func(buffered, _ int) int { return min(buffered, waveCap) },
			params.Alpha, opts)
	}
}

// run is the deal skeleton's one coordinator loop. Tasks reach the buffer
// from backlog (admitted before the first wave, so its sizing sees the
// whole population) and, when in is non-nil, from the intake pump under
// the credit window (opts.Window, resolved by the caller); a nil in is an
// input already closed. Whenever no wave is active, take(buffered, wave)
// sizes the next one (0: no further waves) and it is scattered over the
// live membership by the engine's current weights. When a wave's last
// block outcome is back, crashed blocks' lost tasks return to the head of
// the buffer and the wave's observed throughput is blended into the
// weights. In ModeStop a breach ends the run after the current wave;
// whatever is still buffered is returned as Remaining.
func run(pf platform.Platform, c rt.Ctx, in rt.Chan, backlog []platform.Task, mode engine.Mode,
	take func(buffered, wave int) int, alpha float64,
	opts engine.StreamOptions) engine.StreamReport {
	workers := opts.Workers
	if len(workers) == 0 {
		workers = make([]int, pf.Size())
		for i := range workers {
			workers[i] = i
		}
	}
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	opts.Weights = engine.NormalisedWeights(workers, opts.Weights)

	co := engine.NewCore(pf, workers, mode, c.Now(), opts)
	runtime := pf.Runtime()
	window := 0
	if in != nil {
		window = opts.Window
	}
	inbox := runtime.NewChan("dmap.inbox", engine.InboxCap(window, len(workers)))
	var intake *engine.Intake
	if in != nil {
		intake = engine.NewIntake(runtime, c, "dmap.credits", window)
		intake.Pump(c, "dmap.pump", in,
			func(cc rt.Ctx, t platform.Task) { inbox.Send(cc, message{kind: msgTask, task: t}) },
			func(cc rt.Ctx) { inbox.Send(cc, message{kind: msgEOF}) },
		)
	}

	var (
		// buffer is admitted, not yet scattered; capped at the backlog's
		// length so no append can write into the caller's slice.
		buffer   = backlog[:len(backlog):len(backlog)]
		inflight = len(backlog) // admitted minus completed
		eof      = in == nil
		stopped  bool // no further waves: ModeStop breach, or take said so
		waveSeq  int
		owed     int // block outcomes the active wave still owes
		outcomes []blockOutcome
	)
	co.Rep.Admitted = inflight
	co.Rep.MaxInFlight = inflight

	fireWave := func() {
		for !stopped && owed == 0 && len(buffer) > 0 && co.LiveCount() > 0 {
			n := take(len(buffer), waveSeq)
			if n == 0 {
				stopped = true
				return
			}
			waveTasks := buffer[:n] // scatterWave copies each block out of it
			buffer = buffer[n:]
			outcomes = outcomes[:0]
			owed = scatterWave(pf, c, co, inbox, waveTasks, waveSeq, opts.Log)
			waveSeq++
		}
	}
	fireWave()

	for owed > 0 || !stopped && co.LiveCount() > 0 && !(eof && len(buffer) == 0) {
		v, ok := inbox.Recv(c)
		if !ok {
			break
		}
		// Drain after Recv, not before: an update arriving while the
		// coordinator is parked must apply before the event that woke
		// it fires a wave on the stale membership.
		co.DrainControl(c, opts.Control)
		m := v.(message)
		switch m.kind {
		case msgTask:
			co.Rep.Admitted++
			inflight++
			if inflight > co.Rep.MaxInFlight {
				co.Rep.MaxInFlight = inflight
			}
			buffer = append(buffer, m.task)
			fireWave()
		case msgEOF:
			eof = true
			fireWave()
		case msgResult:
			inflight--
			if intake != nil {
				intake.Release(c)
			}
			co.Complete(c, m.res)
		case msgOutcome:
			owed--
			outcomes = append(outcomes, m.out)
			if owed > 0 {
				continue
			}
			// Wave complete: absorb crashes — lost tasks go back to the head
			// of the buffer, dead workers are retired — then blend the wave's
			// observed throughput into the decomposition weights.
			for _, out := range outcomes {
				if len(out.lost) == 0 {
					continue
				}
				co.Rep.Failures += len(out.lost)
				co.Retire(c, out.worker, fmt.Sprintf("worker %s failed; %d tasks re-queued",
					pf.WorkerName(out.worker), len(out.lost)))
				buffer = append(append([]platform.Task(nil), out.lost...), buffer...)
			}
			co.SetWeights(reweight(co.Weights(), outcomes, alpha))
			if mode == engine.ModeStop && co.Rep.Breached {
				stopped = true
				if opts.Log != nil {
					opts.Log.Append(trace.Event{
						At: c.Now(), Kind: trace.KindNote,
						Msg: fmt.Sprintf("map stop after wave %d", waveSeq-1),
					})
				}
			}
			fireWave()
		}
	}

	if intake != nil {
		// Shut the pump down and recover any tasks it had already forwarded
		// as Remaining, along with the unscattered buffer.
		intake.Close(c)
		for {
			v, ok, polled := inbox.TryRecv(c)
			if !polled || !ok {
				break
			}
			if m, isMsg := v.(message); isMsg && m.kind == msgTask {
				buffer = append(buffer, m.task)
			}
		}
	}
	co.Rep.Remaining = append([]platform.Task(nil), buffer...)
	return co.Finish()
}

// scatterWave spawns one block process per live worker for the wave's
// tasks, partitioned by the engine's current weights, and returns how many
// outcomes the coordinator must gather.
func scatterWave(pf platform.Platform, c rt.Ctx, co *engine.Core, inbox rt.Chan, waveTasks []platform.Task, wave int, log *trace.Log) int {
	live := co.Live()
	part := sched.WeightedBlocks(len(waveTasks), co.WeightSliceFor(live))
	spawned := 0
	for i, w := range live {
		w := w
		block := indexTasks(waveTasks, part[i])
		if len(block) == 0 {
			continue
		}
		spawned++
		co.Rep.Requests++
		if log != nil {
			for _, t := range block {
				log.Append(trace.Event{
					At: c.Now(), Kind: trace.KindDispatch,
					Node: pf.WorkerName(w), Task: t.ID,
				})
			}
		}
		c.Go(fmt.Sprintf("dmap.worker.%s.w%d", pf.WorkerName(w), wave), func(cc rt.Ctx) {
			out := blockOutcome{worker: w}
			blockStart := cc.Now()
			platform.ExecChunk(pf, cc, w, block, func(res platform.Result) {
				if res.Failed() {
					// Lost work: a dead node fails this execution and every
					// one of the block after it.
					out.lost = append(out.lost, res.Task)
					return
				}
				out.executed += res.Task.Cost
				inbox.Send(cc, message{kind: msgResult, res: res})
			})
			out.busy = cc.Now() - blockStart
			inbox.Send(cc, message{kind: msgOutcome, out: out})
		})
	}
	return spawned
}

// waveSize returns how many tasks the next wave takes when wavesLeft rounds
// (including this one) must drain n tasks: the ceiling share, so the final
// wave is never larger than the others.
func waveSize(n, wavesLeft int) int {
	if wavesLeft <= 1 {
		return n
	}
	size := (n + wavesLeft - 1) / wavesLeft
	if size < 1 {
		size = 1
	}
	if size > n {
		size = n
	}
	return size
}

// indexTasks selects tasks by index list.
func indexTasks(tasks []platform.Task, idxs []int) []platform.Task {
	out := make([]platform.Task, len(idxs))
	for i, ti := range idxs {
		out[i] = tasks[ti]
	}
	return out
}

// reweight blends one wave's throughput-derived shares into the full
// weight map: the wave's workers redistribute their combined prior mass by
// observed rate (cost per second), EWMA-blended so one noisy wave cannot
// capsize the decomposition; workers outside the wave (empty block, joined
// since) keep their shares, and dead ones are excluded from the next wave
// by the engine's membership.
func reweight(prev map[int]float64, outcomes []blockOutcome, alpha float64) map[int]float64 {
	rates := make(map[int]float64, len(outcomes))
	var totalRate, groupMass float64
	for _, o := range outcomes {
		groupMass += prev[o.worker]
		if o.busy > 0 && o.executed > 0 {
			r := o.executed / o.busy.Seconds()
			rates[o.worker] = r
			totalRate += r
		}
	}
	if totalRate <= 0 {
		return prev
	}
	next := make(map[int]float64, len(prev))
	var total float64
	for w, v := range prev {
		next[w] = v
	}
	for _, o := range outcomes {
		w := o.worker
		target := prev[w]
		if r, ok := rates[w]; ok {
			target = groupMass * r / totalRate
		}
		next[w] = alpha*target + (1-alpha)*prev[w]
	}
	for _, v := range next {
		total += v
	}
	if total <= 0 {
		return prev
	}
	for w := range next {
		next[w] /= total
	}
	return next
}
