package compose

import (
	"fmt"
	"sync"
	"time"

	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/skel/engine"
	"grasp/internal/trace"
)

// Rebalance configures dynamic pool rebalancing for RunAdaptive: pool
// members that sit idle migrate to the most pressured stage, so the
// composition tracks demand shifts the static pool sizing could not
// predict — the pipe-of-farms' own instance of the paper's "ability to
// adapt all of these factors dynamically".
type Rebalance struct {
	// Poll is how long an idle worker sleeps between input checks
	// (default 10ms; virtual time on the simulator).
	Poll time.Duration
	// IdlePolls is how many consecutive empty polls a worker tolerates
	// before it looks for a busier stage (default 3). The effective wait is
	// additionally floored at the worker's last item service time, so the
	// hysteresis scales with the workload's grain automatically.
	IdlePolls int
	// MinPressure is the input-buffer occupancy (0..1) a stage must show
	// to attract migrants (default 0.75).
	MinPressure float64
}

func (r Rebalance) withDefaults() Rebalance {
	if r.Poll <= 0 {
		r.Poll = 10 * time.Millisecond
	}
	if r.IdlePolls <= 0 {
		r.IdlePolls = 3
	}
	if r.MinPressure <= 0 || r.MinPressure > 1 {
		r.MinPressure = 0.75
	}
	return r
}

// Migration is one worker-reassignment event.
type Migration struct {
	At     time.Duration
	Worker int
	From   int // stage index
	To     int // stage index
}

// AdaptiveReport extends Report with the rebalancing history.
type AdaptiveReport struct {
	Report
	// Migrations lists worker reassignments in event order.
	Migrations []Migration
}

// balance is the shared coordination state of an adaptive run.
type balance struct {
	mu         sync.Mutex
	active     []int // live workers currently serving each stage
	inflight   []int // items being executed per stage
	finished   []bool
	closedDown []bool
	retries    [][]item
	live       int // live workers across all stages
}

// item is the unit flowing through the adaptive pipe.
type item struct {
	id  int
	val any
}

// RunAdaptive is Run plus decentralised pool rebalancing: every pool
// member that finds its stage idle (or finished) migrates to the open
// stage with the highest input pressure, under the constraint that a stage
// keeps at least one live member unless it is finished or its pool died.
// Crash handling matches Run: an in-flight item of a crashed member is
// retried by a surviving member of the same stage (possibly a migrant).
func RunAdaptive(pf platform.Platform, c rt.Ctx, stages []Stage, nItems int, opts Options, rb Rebalance) AdaptiveReport {
	rep := AdaptiveReport{Report: Report{ItemsByWorker: make(map[int]int)}}
	if len(stages) == 0 {
		return rep
	}
	for si, st := range stages {
		if len(st.Pool) == 0 {
			panic(fmt.Sprintf("compose: stage %d (%s) has an empty pool", si, st.Name))
		}
	}
	rb = rb.withDefaults()
	bufSize := opts.BufSize
	if bufSize < 1 {
		bufSize = 1
	}
	runtime := pf.Runtime()
	start := c.Now()
	rep.ServiceByStage = make([]time.Duration, len(stages))
	var mu sync.Mutex // guards rep and faults

	chans := make([]rt.Chan, len(stages)+1)
	for i := range chans {
		chans[i] = runtime.NewChan(fmt.Sprintf("pofa.c%d", i), bufSize)
	}

	c.Go("pofa.source", func(cc rt.Ctx) {
		for i := 0; i < nItems; i++ {
			chans[0].Send(cc, item{id: i, val: i})
		}
		chans[0].Close(cc)
	})

	bal := &balance{
		active:     make([]int, len(stages)),
		inflight:   make([]int, len(stages)),
		finished:   make([]bool, len(stages)),
		closedDown: make([]bool, len(stages)),
		retries:    make([][]item, len(stages)),
	}
	for si, st := range stages {
		bal.active[si] = len(st.Pool)
		bal.live += len(st.Pool)
	}

	w := &adaptiveRunner{
		pf: pf, stages: stages, chans: chans, bal: bal,
		rb: rb, opts: opts, rep: &rep, repMu: &mu, start: start,
		faults: &engine.Faults{},
	}

	var handles []rt.Handle
	for si, st := range stages {
		for _, worker := range st.Pool {
			si, worker := si, worker
			handles = append(handles, c.Go(
				fmt.Sprintf("pofa.s%d.%s", si, pf.WorkerName(worker)),
				func(cc rt.Ctx) { w.workerLoop(cc, worker, si) },
			))
		}
	}

	for {
		v, ok := chans[len(stages)].Recv(c)
		if !ok {
			break
		}
		it := v.(item)
		rep.Items++
		rep.Outputs = append(rep.Outputs, Output{ID: it.id, Value: it.val, At: c.Now() - start})
	}
	for _, h := range handles {
		c.Join(h)
	}
	rep.Failures = w.faults.Failures
	rep.DeadWorkers = w.faults.Dead
	if rep.Items > 0 {
		rep.Makespan = rep.Outputs[len(rep.Outputs)-1].At
	}
	return rep
}

// adaptiveRunner bundles the shared context of adaptive pool members.
type adaptiveRunner struct {
	pf     platform.Platform
	stages []Stage
	chans  []rt.Chan
	bal    *balance
	rb     Rebalance
	opts   Options
	rep    *AdaptiveReport
	repMu  *sync.Mutex
	start  time.Duration
	faults *engine.Faults
}

// workerLoop serves stage `cur` until everything is finished, migrating
// when idle. worker is the platform worker (grid node) executing items.
func (a *adaptiveRunner) workerLoop(cc rt.Ctx, worker, cur int) {
	bal := a.bal
	idle := 0
	// lastService is the worker's most recent item execution time: the
	// natural hysteresis scale. A worker only migrates after sitting idle
	// (or blocked) for at least one service time, so polling-frequency
	// noise cannot cause ping-ponging on coarse-grained workloads.
	var lastService time.Duration
	minWait := func() int {
		w := a.rb.IdlePolls
		if lastService > 0 {
			if byService := int(lastService / a.rb.Poll); byService > w {
				w = byService
			}
		}
		return w
	}
	for {
		// Migration decision, gated on the service-scaled idle budget.
		if dst, moved := a.maybeMigrate(cc, worker, cur, idle, minWait()); moved {
			cur = dst
			idle = -minWait() // cooldown: stay put a full budget after a move
			continue
		}
		if a.allFinished() {
			return
		}

		// Serve: a crashed sibling's retry first, else the input channel.
		it, have, finishedNow := a.take(cc, cur)
		if finishedNow {
			a.finishStage(cc, cur)
			idle = a.rb.IdlePolls // finished stage: migrate at once
			continue
		}
		if !have {
			idle++
			cc.Sleep(a.rb.Poll)
			continue
		}
		idle = 0

		st := a.stages[cur]
		cost := 0.0
		if st.Cost != nil {
			cost = st.Cost(it.id)
		}
		res := a.pf.Exec(cc, worker, platform.Task{
			ID: it.id, Cost: cost,
			InBytes: st.InBytes, OutBytes: st.OutBytes,
			Fn: wrapFn(st.Fn, it.val),
		})
		if res.Failed() {
			a.repMu.Lock()
			a.faults.Failures++
			a.faults.Retire(worker)
			a.repMu.Unlock()
			bal.mu.Lock()
			bal.retries[cur] = append(bal.retries[cur], it)
			bal.inflight[cur]--
			bal.active[cur]--
			bal.live--
			last := bal.live == 0
			bal.mu.Unlock()
			if a.opts.Log != nil {
				a.opts.Log.Append(trace.Event{
					At: cc.Now(), Kind: trace.KindNote,
					Proc: st.Name, Node: a.pf.WorkerName(worker),
					Msg: fmt.Sprintf("stage %d pool member %s failed", cur, a.pf.WorkerName(worker)),
				})
			}
			if last {
				a.janitor(cc)
			}
			return
		}
		if st.Fn != nil {
			it.val = res.Value
		}
		a.repMu.Lock()
		a.rep.ServiceByStage[cur] += res.Time
		a.rep.ItemsByWorker[worker]++
		a.repMu.Unlock()
		if a.opts.Log != nil {
			a.opts.Log.Append(trace.Event{
				At: cc.Now(), Kind: trace.KindComplete,
				Proc: st.Name, Node: a.pf.WorkerName(worker),
				Task: it.id, Dur: res.Time,
			})
		}
		lastService = res.Time
		newCur := a.push(cc, worker, cur, it, minWait())
		bal.mu.Lock()
		bal.inflight[cur]--
		bal.mu.Unlock()
		if newCur != cur {
			cur = newCur
			idle = -minWait() // same cooldown as idle-pull moves
		}
	}
}

// push delivers a completed item downstream without ever blocking forever.
// Persistent back-pressure means the consumer stage is the bottleneck, so
// after IdlePolls failed attempts the worker migrates to it — carrying the
// item along as that stage's work — when the min-one-member rule allows;
// if the downstream pool has died entirely, the item goes straight to its
// retry queue for a rescuing migrant. Returns the worker's (possibly new)
// stage.
func (a *adaptiveRunner) push(cc rt.Ctx, worker, cur int, it item, minWait int) int {
	next := cur + 1
	blocked := 0
	for !a.chans[next].TrySend(cc, it) {
		if next < len(a.stages) {
			a.bal.mu.Lock()
			if a.bal.active[next] == 0 {
				// Dead pool: park the item as the stage's input for rescue.
				a.bal.retries[next] = append(a.bal.retries[next], it)
				a.bal.mu.Unlock()
				return cur
			}
			if blocked >= minWait && (a.bal.finished[cur] || a.bal.active[cur] > 1) {
				// The consumer is the bottleneck: go help it, item in hand.
				a.bal.active[cur]--
				a.bal.active[next]++
				a.bal.retries[next] = append(a.bal.retries[next], it)
				a.bal.mu.Unlock()
				a.recordMigration(cc, worker, cur, next, "back-pressure")
				return next
			}
			a.bal.mu.Unlock()
		}
		blocked++
		cc.Sleep(a.rb.Poll)
	}
	return cur
}

// recordMigration appends a migration event to the report and the trace.
func (a *adaptiveRunner) recordMigration(cc rt.Ctx, worker, from, to int, why string) {
	a.repMu.Lock()
	a.rep.Migrations = append(a.rep.Migrations, Migration{
		At: cc.Now() - a.start, Worker: worker, From: from, To: to,
	})
	a.repMu.Unlock()
	if a.opts.Log != nil {
		a.opts.Log.Append(trace.Event{
			At: cc.Now(), Kind: trace.KindAdapt,
			Node: a.pf.WorkerName(worker),
			Msg: fmt.Sprintf("pool member %s migrates stage %d→%d (%s)",
				a.pf.WorkerName(worker), from, to, why),
		})
	}
}

// take returns the next item of stage si: a retry if one is queued, else a
// non-blocking read of the input. finishedNow reports that the stage has
// just been observed complete (input closed and drained, no retries, no
// in-flight items) — the caller must finishStage.
func (a *adaptiveRunner) take(cc rt.Ctx, si int) (it item, have, finishedNow bool) {
	bal := a.bal
	// The receive stays under bal.mu (it cannot block): were the item
	// counted in flight only afterwards, a sibling could see the input
	// closed and drained with nothing in flight and close the downstream
	// channel this item is about to be pushed into.
	bal.mu.Lock()
	defer bal.mu.Unlock()
	if len(bal.retries[si]) > 0 {
		it = bal.retries[si][0]
		bal.retries[si] = bal.retries[si][1:]
		bal.inflight[si]++
		return it, true, false
	}
	v, ok, done := a.chans[si].TryRecv(cc)
	if done && ok {
		bal.inflight[si]++
		return v.(item), true, false
	}
	// Closed and drained: finished only once in-flight items have cleared
	// too (no retry is queued, or it would have been taken above).
	fin := done && !bal.finished[si] && bal.inflight[si] == 0
	return item{}, false, fin
}

// finishStage marks si complete and closes its downstream channel once.
func (a *adaptiveRunner) finishStage(cc rt.Ctx, si int) {
	bal := a.bal
	bal.mu.Lock()
	if bal.finished[si] || bal.closedDown[si] {
		bal.mu.Unlock()
		return
	}
	bal.finished[si] = true
	bal.closedDown[si] = true
	bal.mu.Unlock()
	a.chans[si+1].Close(cc)
}

// allFinished reports whether every stage is done.
func (a *adaptiveRunner) allFinished() bool {
	bal := a.bal
	bal.mu.Lock()
	defer bal.mu.Unlock()
	for _, f := range bal.finished {
		if !f {
			return false
		}
	}
	return true
}

// maybeMigrate moves the worker when it has been idle long enough and a
// better stage exists: the open stage with the highest input pressure at
// or above MinPressure, or any open uncovered stage (rescue). A worker may
// not strand an unfinished stage (min one member) except to rescue an
// uncovered one.
func (a *adaptiveRunner) maybeMigrate(cc rt.Ctx, worker, cur, idle, minWait int) (int, bool) {
	bal := a.bal
	bal.mu.Lock()
	curFinished := bal.finished[cur]
	bal.mu.Unlock()
	if idle < minWait && !curFinished {
		return 0, false
	}

	bal.mu.Lock()
	best, bestPressure := -1, 0.0
	for si := range a.stages {
		if si == cur || bal.finished[si] {
			continue
		}
		pressure := a.pressureLocked(si)
		rescue := bal.active[si] == 0
		if !rescue && pressure < a.rb.MinPressure {
			continue
		}
		if rescue {
			pressure += 1 // uncovered stages outrank any queue depth
		}
		if pressure > bestPressure {
			best, bestPressure = si, pressure
		}
	}
	// Leaving must not strand cur, unless cur is finished or this is a
	// rescue of an uncovered stage.
	if best < 0 ||
		(!bal.finished[cur] && bal.active[cur] <= 1 && bal.active[best] > 0) {
		bal.mu.Unlock()
		return 0, false
	}
	bal.active[cur]--
	bal.active[best]++
	bal.mu.Unlock()
	a.recordMigration(cc, worker, cur, best, fmt.Sprintf("pressure %.2f", bestPressure))
	return best, true
}

// pressureLocked is the input occupancy of stage si plus queued retries,
// normalised by buffer capacity. Callers hold bal.mu.
func (a *adaptiveRunner) pressureLocked(si int) float64 {
	capTotal := a.chans[si].Cap()
	if capTotal <= 0 {
		capTotal = 1
	}
	return (float64(a.chans[si].Len()) + float64(len(a.bal.retries[si]))) / float64(capTotal)
}

// janitor runs when the last live pool member crashes: it drains the
// source and every queue (counting the items lost), then closes the sink
// channel so the pipeline terminates instead of deadlocking.
func (a *adaptiveRunner) janitor(cc rt.Ctx) {
	lost := 0
	// The source is still alive: consume until it closes its channel.
	for {
		if _, ok := a.chans[0].Recv(cc); !ok {
			break
		}
		lost++
	}
	// Interior queues: nobody produces into them any more.
	for si := 1; si < len(a.stages); si++ {
		for {
			_, ok, done := a.chans[si].TryRecv(cc)
			if !done || !ok {
				break
			}
			lost++
		}
	}
	a.bal.mu.Lock()
	for si := range a.stages {
		lost += len(a.bal.retries[si])
		a.bal.retries[si] = nil
		a.bal.finished[si] = true
	}
	a.bal.mu.Unlock()
	a.repMu.Lock()
	a.rep.Lost += lost
	a.repMu.Unlock()
	// Close the sink channel (idempotently, via the last stage's guard).
	a.bal.mu.Lock()
	alreadyClosed := a.bal.closedDown[len(a.stages)-1]
	a.bal.closedDown[len(a.stages)-1] = true
	a.bal.mu.Unlock()
	if !alreadyClosed {
		a.chans[len(a.stages)].Close(cc)
	}
}
