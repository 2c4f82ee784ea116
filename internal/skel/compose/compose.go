// Package compose implements skeleton nesting — "parallel programs are
// expressed by interweaving parameterised skeletons" (the paper's opening
// claim). Its first composition is the pipe-of-farms: a pipeline whose
// every stage is internally a demand-driven farm over its own worker pool,
// so a structurally slow stage can be given capacity instead of throttling
// the whole pipe.
//
// The composition inherits both parents' intrinsic properties: per-stage
// pools bound throughput like pipeline stages (the slowest stage's
// aggregate service rate binds the pipe), while demand-driven pulls inside
// a pool absorb heterogeneity like a farm. The GRASP hook is pool sizing:
// PoolsByDemand splits a calibrated worker ranking across stages in
// proportion to their service demand, which is exactly the "correct
// selection of resources" the paper asks the calibration phase to make.
//
// Items may leave a farmed stage out of order (that is the cost of farming
// it); Report.Outputs preserves exit order and carries item IDs so callers
// can reorder when the application needs it.
//
// The nesting is literal: RunFarms runs one farm.Stream per stage, so the
// demand-driven pulls, the retry of a crashed member's item on a survivor
// and the last-one-out close are the farm's, and the farm's credit Window
// (the pool size) is what bounds the items inside a stage.
//
// Pools need not stay as sized. With Options.Migrate a rebalancer process
// beside the stage graph moves workers between stages as membership on
// that same graph — engine.Update{Remove} on one stage's farm, {Add} on
// another's — "the ability to adapt all of these factors dynamically" for
// the composition. It has no knob: a stage's pressure is the items waiting
// at its door over its input buffer's capacity, and a worker is idle once
// it has been parked, or held by a full buffer, for as long as its last
// item took. A migrating stage's Window is every worker there is.
package compose

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/skel/engine"
	"grasp/internal/skel/farm"
	"grasp/internal/trace"
)

// Stage describes one farmed pipeline stage.
type Stage struct {
	// Name identifies the stage in traces.
	Name string
	// Pool are the worker indices farming this stage. Every stage needs at
	// least one worker.
	Pool []int
	// Cost returns the operation count for item i (simulated platforms).
	Cost func(item int) float64
	// InBytes/OutBytes are per-item payload sizes for this stage.
	InBytes, OutBytes float64
	// Fn transforms the item value (local platform; optional elsewhere).
	Fn func(v any) any
}

// Options configures a pipe-of-farms run.
type Options struct {
	// BufSize is the inter-stage buffer capacity (default 1).
	BufSize int
	// Migrate lets pool members follow the demand: an idle worker moves to
	// the stage where items wait, a stage that has finished gives away its
	// whole pool, a pool that died whole is rescued from the largest other
	// one, and no stage gives away its last member (Report.Migrations).
	Migrate bool
	// Log receives trace events (optional).
	Log *trace.Log
}

// Output is one item leaving the pipe.
type Output struct {
	ID    int
	Value any
	At    time.Duration
}

// Report is the outcome of a pipe-of-farms run.
type Report struct {
	// Makespan is the time from start until the last item left the sink.
	Makespan time.Duration
	// Items counts items that exited.
	Items int
	// Outputs lists exits in exit order (IDs identify items).
	Outputs []Output
	// ServiceByStage sums busy time per stage across its pool.
	ServiceByStage []time.Duration
	// ItemsByWorker counts items executed per worker index (all stages).
	ItemsByWorker map[int]int
	// Failures counts executions lost to worker crashes; the item is
	// retried on another pool member when one survives.
	Failures int
	// DeadWorkers lists crashed pool members stage by stage, in detection
	// order within a stage.
	DeadWorkers []int
	// Lost counts items dropped because a stage's whole pool died.
	Lost int
	// Migrations lists worker reassignments in event order (Options.Migrate).
	Migrations []Migration
}

// Migration is one worker-reassignment event.
type Migration struct {
	At       time.Duration
	Worker   int
	From, To int // stage indices
}

// Run pushes nItems items (IDs 0..nItems−1, initial value = their ID)
// through the farmed stages from within process c, blocking until the sink
// has drained.
func Run(pf platform.Platform, c rt.Ctx, stages []Stage, nItems int, opts Options) Report {
	rep, _ := RunFarms(pf, c, stages, make([]engine.StreamOptions, len(stages)), nItems, opts)
	return rep
}

// RunFarms is the stage graph every batch pipeline in the repo runs on: a
// source process feeds stage 0, each stage is one farm.Stream in its own
// process over the stage's input buffer, the sink runs in the caller.
// farms[si] is what stage si's farm gets beyond its starting pool — Window,
// Detector, OnRecalibrate, OnFailure — so a caller adapts a stage through
// engine membership updates (pipeline.Run: a pool of one that grows or
// moves); Run passes none. A stage's Window defaults to its pool size:
// every member holds one item and nothing queues inside the stage, which
// leaves BufSize the only buffering between stages. With Options.Migrate
// the stages' Control, OnFailure and Window are the rebalancer's. The
// stages' engine reports are returned beside the Report summed from them.
func RunFarms(pf platform.Platform, c rt.Ctx, stages []Stage, farms []engine.StreamOptions, nItems int, opts Options) (Report, []engine.StreamReport) {
	rep := Report{ItemsByWorker: make(map[int]int)}
	if len(stages) == 0 {
		return rep, nil
	}
	for si, st := range stages {
		if len(st.Pool) == 0 {
			panic(fmt.Sprintf("compose: stage %d (%s) has an empty pool", si, st.Name))
		}
	}
	start := c.Now()
	chans := make([]rt.Chan, len(stages)+1)
	for i := range chans {
		chans[i] = pf.Runtime().NewChan(fmt.Sprintf("pof.c%d", i), max(opts.BufSize, 1))
	}
	var rb *rebalancer // nil: the pools stay as given
	var rbDone rt.Handle
	turn := make(map[int]rt.Chan)
	if opts.Migrate {
		rb = newRebalancer(pf, c, stages, nItems, chans[0].Cap(), opts.Log)
		rbDone = c.Go("pof.rebalance", rb.run)
		for _, st := range stages {
			for _, w := range st.Pool {
				turn[w] = pf.Runtime().NewChan(fmt.Sprintf("pof.turn%d", w), 1)
				turn[w].Send(c, nil)
			}
		}
	}
	// taskFor is item id entering stage si with value val; past the last
	// stage it is the bare item the sink receives.
	taskFor := func(si, id int, val any) platform.Task {
		t := platform.Task{ID: id, Data: val}
		if si < len(stages) {
			st := stages[si]
			if st.Cost != nil {
				t.Cost = st.Cost(id)
			}
			t.InBytes, t.OutBytes, t.Fn = st.InBytes, st.OutBytes, wrapFn(st.Fn, val)
		}
		return t
	}

	c.Go("pof.source", func(cc rt.Ctx) {
		for i := 0; i < nItems; i++ {
			chans[0].Send(cc, taskFor(0, i, i))
		}
		chans[0].Close(cc)
	})

	reports := make([]engine.StreamReport, len(stages))
	handles := make([]rt.Handle, len(stages))
	for si, st := range stages {
		o := farms[si]
		o.Workers = st.Pool
		if o.Window <= 0 {
			o.Window = len(st.Pool)
		}
		if rb != nil {
			o.Window = len(turn) // every worker may end up in this pool
			o.Control = rb.control[si]
		}
		// Items leave the stage through handoff, not through the farm's
		// report: the hook only keeps the engine from retaining them.
		o.OnResult = func(platform.Result) {}
		// A stage worker hands each item it finished to the next stage
		// itself, as that stage's task, before it asks its farmer for more:
		// a full downstream buffer holds back that worker, not its pool.
		spf := handoff{pf, turn, rb, func(cc rt.Ctx, res platform.Result) {
			done := cc.Now()
			val := res.Task.Data
			if st.Fn != nil {
				val = res.Value
			}
			if opts.Log != nil {
				opts.Log.Append(trace.Event{
					At: done, Kind: trace.KindComplete,
					Proc: st.Name, Node: pf.WorkerName(res.Worker),
					Task: res.Task.ID, Dur: res.Time,
				})
			}
			chans[si+1].Send(cc, taskFor(si+1, res.Task.ID, val))
			rb.tell(cc, handed{si, res.Worker, res.Time, done})
		}}
		handles[si] = c.Go(fmt.Sprintf("pof.s%d", si), func(cc rt.Ctx) {
			if rb != nil {
				// A pool that died whole is rescued from the largest other one.
				rescue := pf.Runtime().NewChan(fmt.Sprintf("pof.rescue%d", si), 1)
				o.OnFailure = func(dead int) (engine.Update, bool) {
					rb.tell(cc, failed{si, dead, rescue})
					v, _ := rescue.Recv(cc)
					u := v.(engine.Update)
					return u, len(u.Add) > 0
				}
			}
			fr := farm.Stream(nil)(spf, cc, chans[si], o)
			rb.tell(cc, returned{si})
			// A pool that died whole returns the items it held as Remaining,
			// and nobody is left to run what the upstream still produces:
			// drain that too, as lost, so the upstream can finish. After a
			// clean exit the input is already closed and empty.
			for {
				v, ok := chans[si].Recv(cc)
				if !ok {
					break
				}
				fr.Remaining = append(fr.Remaining, v.(platform.Task))
			}
			chans[si+1].Close(cc)
			reports[si] = fr
		})
	}

	// Sink (runs in the caller).
	for {
		v, ok := chans[len(stages)].Recv(c)
		if !ok {
			break
		}
		t := v.(platform.Task)
		rep.Outputs = append(rep.Outputs, Output{ID: t.ID, Value: t.Data, At: c.Now() - start})
	}
	if rep.Items = len(rep.Outputs); rep.Items > 0 {
		rep.Makespan = rep.Outputs[rep.Items-1].At
	}
	rep.ServiceByStage = make([]time.Duration, len(stages))
	for si, h := range handles {
		c.Join(h)
		fr := reports[si]
		for w, busy := range fr.BusyByWorker {
			rep.ServiceByStage[si] += busy
			rep.ItemsByWorker[w] += fr.TasksByWorker[w]
		}
		rep.Failures += fr.Failures
		for _, w := range fr.DeadWorkers {
			if !slices.Contains(rep.DeadWorkers, w) { // a migrant has two farms to crash in
				rep.DeadWorkers = append(rep.DeadWorkers, w)
			}
		}
		rep.Lost += len(fr.Remaining)
	}
	if rb != nil {
		rb.events.Close(c) // every sender has been joined
		c.Join(rbDone)
		rep.Migrations = rb.moves
	}
	return rep, reports
}

// handoff is a platform whose every successful execution ends with then,
// run by the executing worker's process. It is deliberately no Chunker: a
// chunk is its tasks one by one, each handed on as it finishes.
//
// When pools migrate a worker can be fed by two farms for a moment — the one
// it left had already dispatched to it — so it takes its turn to execute:
// no worker ever runs two stages' items at once.
type handoff struct {
	platform.Platform
	turn map[int]rt.Chan // per worker, holding one token; empty: static pools
	rb   *rebalancer
	then func(rt.Ctx, platform.Result)
}

func (h handoff) Exec(c rt.Ctx, i int, t platform.Task) platform.Result {
	turn := h.turn[i]
	if turn != nil {
		turn.Recv(c)
		h.rb.tell(c, began{i})
	}
	res := h.Platform.Exec(c, i, t)
	if turn != nil {
		turn.Send(c, nil)
	}
	if !res.Failed() {
		h.then(c, res)
	}
	return res
}

// tell queues one event for the rebalancer, if there is one.
func (r *rebalancer) tell(c rt.Ctx, event any) {
	if r != nil {
		r.events.Send(c, event)
	}
}

// wrapFn binds a stage transform to the current value for platform.Exec.
func wrapFn(fn func(any) any, v any) func() any {
	if fn == nil {
		return nil
	}
	return func() any { return fn(v) }
}

// PoolsByDemand partitions ranked workers (fittest first, from Algorithm 1)
// into one pool per stage, allocating pool sizes proportional to the
// stages' service demands (per-item cost) and assigning the fittest
// workers to the most demanding stages. Every stage receives at least one
// worker; callers need len(workers) ≥ len(demands).
func PoolsByDemand(workers []int, demands []float64) [][]int {
	s := len(demands)
	if s == 0 {
		return nil
	}
	if len(workers) < s {
		panic(fmt.Sprintf("compose: %d workers for %d stages", len(workers), s))
	}
	var total float64
	for _, d := range demands {
		if d > 0 {
			total += d
		}
	}
	// Target pool sizes: one guaranteed worker each, the surplus split
	// proportionally by demand (largest-remainder rounding).
	sizes := make([]int, s)
	for i := range sizes {
		sizes[i] = 1
	}
	surplus := len(workers) - s
	if surplus > 0 && total > 0 {
		type frac struct {
			stage int
			rem   float64
		}
		var fracs []frac
		used := 0
		for i, d := range demands {
			share := 0.0
			if d > 0 {
				share = d / total * float64(surplus)
			}
			whole := int(share)
			sizes[i] += whole
			used += whole
			fracs = append(fracs, frac{stage: i, rem: share - float64(whole)})
		}
		sort.SliceStable(fracs, func(a, b int) bool {
			if fracs[a].rem != fracs[b].rem {
				return fracs[a].rem > fracs[b].rem
			}
			// Remainder ties go to the more demanding stage.
			return demands[fracs[a].stage] > demands[fracs[b].stage]
		})
		for k := 0; k < surplus-used; k++ {
			sizes[fracs[k%len(fracs)].stage]++
		}
	} else if surplus > 0 {
		for k := 0; k < surplus; k++ {
			sizes[k%s]++
		}
	}
	// Deal ranked workers round-robin over stages ordered by demand, so
	// each pool's quality is proportionate, not just its size.
	order := make([]int, s)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return demands[order[a]] > demands[order[b]] })
	pools := make([][]int, s)
	wi := 0
	for remaining := len(workers); remaining > 0; {
		progressed := false
		for _, si := range order {
			if len(pools[si]) < sizes[si] && wi < len(workers) {
				pools[si] = append(pools[si], workers[wi])
				wi++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return pools
}

// UniformPools deals workers round-robin into equal pools, the uncalibrated
// baseline for PoolsByDemand.
func UniformPools(workers []int, stages int) [][]int {
	if stages <= 0 {
		return nil
	}
	if len(workers) < stages {
		panic(fmt.Sprintf("compose: %d workers for %d stages", len(workers), stages))
	}
	pools := make([][]int, stages)
	for i, w := range workers {
		pools[i%stages] = append(pools[i%stages], w)
	}
	return pools
}
