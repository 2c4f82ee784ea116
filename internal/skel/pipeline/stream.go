package pipeline

import (
	"fmt"
	"sort"
	"time"

	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/skel/engine"
	"grasp/internal/trace"
)

// The streaming pipeline is the stage-graph skeleton under the engine's
// shared adaptive contract: admitted tasks flow through S stages over
// buffers bounded by the credit window alone (each holds a whole window,
// so a stage waits only for input, never for room downstream), every
// stage execution feeds the engine's detector and per-worker recent
// times, and a breach recalibrates the stage→worker mapping in place —
// the pipeline's structural instance of the paper's feedback loop. The
// initial mapping is derived from the calibrated weights (fittest workers
// first); recalibration moves the bottleneck stage onto a spare worker
// when one exists and otherwise swaps it with the fastest stage's worker.
//
// A monitoring coordinator owns the detector and the engine core; stage
// processes report each execution as an event, so no adaptive state is
// ever touched concurrently. Membership is elastic through the same
// structural lever: workers joining mid-stream become spares (and host
// any stranded stage immediately), workers leaving are dropped from the
// spare pool and their stages remapped to live spares.

// StreamParams are the pipeline's own knobs; everything adaptive — and the
// one bound on items in flight, Window — comes from engine.StreamOptions.
type StreamParams struct {
	// Stages is the number of pipeline stages (minimum 1).
	Stages int
	// Apply derives the work stage si performs on a flowing task (default:
	// run the task unchanged at every stage). It must preserve the task ID.
	Apply func(stage int, t platform.Task) platform.Task
}

// pevent is the coordinator's inbox entry: one per stage execution, exit,
// failure, lost item, or stage shutdown.
type pevent struct {
	kind  pevKind
	stage int
	res   platform.Result
	task  platform.Task
}

type pevKind int

const (
	pevObs pevKind = iota
	pevExit
	pevFail
	pevLost
	pevStageDone
)

// Stream returns the pipeline's engine runner. Items leave the last stage
// in admission order, and a saturated stream holds exactly opts.Window of
// them (default twice the worker count) in flight.
func Stream(params StreamParams) engine.Runner {
	return func(pf platform.Platform, c rt.Ctx, in rt.Chan, opts engine.StreamOptions) engine.StreamReport {
		workers := opts.Workers
		if len(workers) == 0 {
			workers = make([]int, pf.Size())
			for i := range workers {
				workers[i] = i
			}
		}
		stages := params.Stages
		if stages < 1 {
			stages = 1
		}
		apply := params.Apply
		if apply == nil {
			apply = func(_ int, t platform.Task) platform.Task { return t }
		}
		window := opts.Window
		if window <= 0 {
			window = 2 * len(workers)
		}

		co := engine.NewCore(pf, workers, engine.ModeRecalibrate, c.Now(), opts)

		// Initial mapping from the calibrated weights: stage i runs on the
		// i-th fittest worker; leftover workers are spares for remapping.
		ranked := append([]int(nil), workers...)
		sort.SliceStable(ranked, func(a, b int) bool {
			return co.Weight(ranked[a]) > co.Weight(ranked[b])
		})
		m := &mapping{stage: make([]int, stages)}
		for si := range m.stage {
			m.stage[si] = ranked[si%len(ranked)]
		}
		if len(ranked) > stages {
			m.spares = append([]int(nil), ranked[stages:]...)
		}

		// Structural recalibration: move the bottleneck stage (the one whose
		// worker shows the worst recent mean) onto a live spare, else swap
		// it with the fastest stage's worker. remapAlive keeps retired
		// workers out of the spare pool so a breach can never hand a stage
		// a crashed worker the engine already knows about.
		co.SetDefaultRecal(func(b engine.Breach) (engine.Update, bool) {
			si := extremeStage(m, stages, b.RecentMean, true)
			if from, to, ok := m.remapAlive(si, co.Alive); ok {
				logAdaptEvent(opts.Log, c, pf, fmt.Sprintf("remap stage %d %s→%s (breach stat %v)",
					si, pf.WorkerName(from), pf.WorkerName(to), b.Stat))
				return engine.Update{}, true
			}
			if sj := extremeStage(m, stages, b.RecentMean, false); sj != si {
				m.swapStages(si, sj)
				logAdaptEvent(opts.Log, c, pf, fmt.Sprintf("swap stages %d and %d (breach stat %v)",
					si, sj, b.Stat))
				return engine.Update{}, true
			}
			// No spare and no distinguishable bottleneck: nothing to adapt.
			return engine.Update{}, false
		})

		// Elastic membership through the pipeline's structural lever: a
		// worker admitted mid-stream joins the spare pool (and immediately
		// hosts any stage stranded on a non-live worker); a removed worker
		// is dropped from the spares and any stage it hosts is remapped to
		// a live spare when one exists. With no spare the stage keeps
		// executing on the removed worker — platform slots outlive
		// membership, so a graceful shrink below the stage count degrades
		// to best effort rather than stalling the stream — and the next
		// join migrates it off.
		co.SetOnMembership(func(added []engine.Member, removed []int) {
			for _, mem := range added {
				m.addSpare(mem.Worker)
			}
			for _, w := range removed {
				m.dropSpare(w)
			}
			for si := 0; si < stages; si++ {
				if w := m.workerOf(si); !co.Alive(w) {
					if from, to, ok := m.remapAlive(si, co.Alive); ok {
						logAdaptEvent(opts.Log, c, pf, fmt.Sprintf("remap stage %d %s→%s (membership change)",
							si, pf.WorkerName(from), pf.WorkerName(to)))
					}
				}
			}
		})

		runtime := pf.Runtime()
		events := runtime.NewChan("pipe.stream.events", window*(stages+2)+8)
		// Every inter-stage buffer holds the whole window: at most window
		// items hold credits, so a stage's Send never blocks and a stage
		// stalls only on an empty input — the credit window is the one
		// bound on items in flight.
		chans := make([]rt.Chan, stages)
		for i := range chans {
			chans[i] = runtime.NewChan(fmt.Sprintf("pipe.stream.c%d", i), window)
		}
		intake := engine.NewIntake(runtime, c, "pipe.stream.credits", window)
		intake.Pump(c, "pipe.stream.pump", in,
			func(cc rt.Ctx, t platform.Task) { chans[0].Send(cc, t) },
			func(cc rt.Ctx) { chans[0].Close(cc) },
		)

		// Stage processes: execute the stage's derivation of each task on
		// the currently mapped worker, report to the coordinator, forward.
		for si := 0; si < stages; si++ {
			si := si
			c.Go(fmt.Sprintf("pipe.stream.stage.%d", si), func(cc rt.Ctx) {
				for {
					v, ok := chans[si].Recv(cc)
					if !ok {
						break
					}
					t := v.(platform.Task)
					st := apply(si, t)
					var res platform.Result
					lost := false
					for {
						w := m.workerOf(si)
						res = pf.Exec(cc, w, st)
						if !res.Failed() {
							break
						}
						events.Send(cc, pevent{kind: pevFail, stage: si, res: res})
						if !m.retireFailed(si, w) {
							lost = true
							break
						}
					}
					if lost {
						events.Send(cc, pevent{kind: pevLost, stage: si, task: t})
						continue
					}
					events.Send(cc, pevent{kind: pevObs, stage: si, res: res})
					if si == stages-1 {
						events.Send(cc, pevent{kind: pevExit, res: res, task: t})
					} else {
						chans[si+1].Send(cc, t)
					}
				}
				if si < stages-1 {
					chans[si+1].Close(cc)
				}
				events.Send(cc, pevent{kind: pevStageDone, stage: si})
			})
		}

		// Coordinator: the engine drives every adaptive decision from the
		// event stream; stage processes never touch shared adaptive state.
		// In-flight is admitted-minus-finished (the credit-window
		// definition), sampled at every event since admission happens in
		// the pump.
		finished := 0 // exits plus losses
		sample := func() {
			if cur := intake.Admitted() - finished; cur > co.Rep.MaxInFlight {
				co.Rep.MaxInFlight = cur
			}
		}
		handle := func(ev pevent) {
			sample()
			switch ev.kind {
			case pevObs:
				co.Observe(c, ev.res)
			case pevExit:
				finished++
				intake.Release(c)
				co.Record(c, ev.res)
			case pevFail:
				co.Fail(c, ev.res, "retried after remap")
			case pevLost:
				finished++
				intake.Release(c)
				co.Rep.Remaining = append(co.Rep.Remaining, ev.task)
			}
		}
		stagesDone := 0
		for stagesDone < stages {
			v, ok := events.Recv(c)
			if !ok {
				break
			}
			// Drain after Recv, not before: an update arriving while the
			// coordinator is parked must apply before the event that woke
			// it is handled.
			co.DrainControl(c, opts.Control)
			ev := v.(pevent)
			if ev.kind == pevStageDone {
				stagesDone++
				continue
			}
			handle(ev)
		}
		// Every stage has exited, so all remaining events are buffered:
		// drain them before closing out the report.
		for {
			v, ok, polled := events.TryRecv(c)
			if !polled || !ok {
				break
			}
			if ev := v.(pevent); ev.kind != pevStageDone {
				handle(ev)
			}
		}
		intake.Close(c)
		co.Rep.Admitted = intake.Admitted()
		return co.Finish()
	}
}

// addSpare returns a (re-)admitted worker to the spare pool, unless it is
// already a spare or currently hosts a stage.
func (m *mapping) addSpare(w int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.spares {
		if s == w {
			return
		}
	}
	for _, s := range m.stage {
		if s == w {
			return
		}
	}
	m.spares = append(m.spares, w)
}

// dropSpare removes a worker leaving the membership from the spare pool
// (stages it hosts are handled by the caller's remap pass).
func (m *mapping) dropSpare(w int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, s := range m.spares {
		if s == w {
			m.spares = append(m.spares[:i], m.spares[i+1:]...)
			return
		}
	}
}

// swapStages exchanges the workers of two stages — the sparse-platform
// recalibration when no spare remains.
func (m *mapping) swapStages(a, b int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stage[a], m.stage[b] = m.stage[b], m.stage[a]
}

// remapAlive moves stage si to the first live spare, recycling the
// vacated worker only while it is itself live — a crashed worker must
// never re-enter the pool.
func (m *mapping) remapAlive(si int, alive func(int) bool) (from, to int, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, s := range m.spares {
		if !alive(s) {
			continue
		}
		from = m.stage[si]
		to = s
		m.spares = append(m.spares[:i], m.spares[i+1:]...)
		if alive(from) {
			m.spares = append(m.spares, from)
		}
		m.stage[si] = to
		return from, to, true
	}
	return 0, 0, false
}

// retireFailed removes crashed worker w from the stage's pool: w is
// dropped from the spares (a concurrent breach remap may have recycled it
// there), and only if stage si still maps to w does the stage move to the
// next spare — if the coordinator already remapped the stage, the caller
// simply retries on the new worker. ok=false means no replacement exists
// and the in-flight item is lost.
func (m *mapping) retireFailed(si, w int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, s := range m.spares {
		if s == w {
			m.spares = append(m.spares[:i], m.spares[i+1:]...)
			break
		}
	}
	if m.stage[si] != w {
		return true
	}
	if len(m.spares) == 0 {
		return false
	}
	m.stage[si] = m.spares[0]
	m.spares = m.spares[1:]
	return true
}

// extremeStage returns the stage whose current worker has the worst
// (slowest=true) or best recent mean execution time; stages whose workers
// have no recent observations count as fast.
func extremeStage(m *mapping, stages int, means map[int]time.Duration, slowest bool) int {
	best := 0
	bestMean := means[m.workerOf(0)]
	for si := 1; si < stages; si++ {
		mean := means[m.workerOf(si)]
		if (slowest && mean > bestMean) || (!slowest && mean < bestMean) {
			best, bestMean = si, mean
		}
	}
	return best
}

// logAdaptEvent appends a KindAdapt trace event for a stream adaptation.
func logAdaptEvent(log *trace.Log, c rt.Ctx, pf platform.Platform, msg string) {
	if log == nil {
		return
	}
	log.Append(trace.Event{At: c.Now(), Kind: trace.KindAdapt, Msg: msg})
}
