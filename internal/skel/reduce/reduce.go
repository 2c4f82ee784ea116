// Package reduce implements the reduction algorithmic skeleton: P partial
// values, one per worker, are combined pairwise into a single result
// according to an explicit Plan.
//
// The skeleton's intrinsic property is its combining topology. The same
// P−1 combines can be arranged as
//
//   - a flat (star) reduction — every partial travels to one root, whose
//     CPU serialises the combines: latency O(P) in combine time, but only
//     one node is occupied;
//   - a binary tree — ⌈log₂P⌉ rounds of concurrent pair-combines: the
//     classic latency/parallelism trade;
//   - a calibrated tree — the binary tree skewed by Algorithm 1's ranking,
//     so combines (and in particular the final ones on the critical path)
//     land on the fittest nodes of a heterogeneous grid.
//
// Plans are data, not behaviour: NewPlan builds any of the shapes, Validate
// checks structural soundness, and Run executes a plan on any platform.
// On the grid platform a step From→To costs the transfer of the partial
// From→master→To (the grid is a star; forwarding is store-and-forward
// through the master) plus the combine on To's CPU; concurrent combines on
// one node serialise on its CPU resource exactly like any other work.
package reduce

import (
	"fmt"
	"sort"
	"time"

	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/skel/engine"
	"grasp/internal/trace"
)

// Shape selects a reduction topology.
type Shape int

// Plan shapes.
const (
	// Flat sends every partial to the root, which combines them serially.
	Flat Shape = iota
	// Tree pairs survivors round by round: ⌈log₂P⌉ concurrent rounds.
	Tree
	// CalibratedTree is Tree skewed by a fitness ranking: each pair combines
	// on its fitter member, and pairing joins the fittest survivor with the
	// slowest, so slow nodes leave the reduction as early as possible.
	CalibratedTree
)

// String names the shape.
func (s Shape) String() string {
	switch s {
	case Flat:
		return "flat"
	case Tree:
		return "tree"
	case CalibratedTree:
		return "calibrated"
	default:
		return fmt.Sprintf("shape(%d)", int(s))
	}
}

// Step is one combine: worker From ships its partial to worker To, which
// combines it into its own.
type Step struct {
	From, To int
}

// Plan is a reduction schedule: rounds execute in sequence, the steps of a
// round execute concurrently.
type Plan struct {
	Shape  Shape
	Root   int
	Rounds [][]Step
}

// Validate checks that the plan reduces the given workers to exactly its
// Root: every worker except the root is eliminated exactly once, no step
// reads an eliminated worker, and the root survives to the end.
func (p Plan) Validate(workers []int) error {
	alive := make(map[int]bool, len(workers))
	for _, w := range workers {
		alive[w] = true
	}
	if !alive[p.Root] {
		return fmt.Errorf("reduce: root %d is not a worker", p.Root)
	}
	for ri, round := range p.Rounds {
		// Within one round, a worker may appear in at most one step (steps
		// are concurrent).
		used := make(map[int]bool)
		for _, s := range round {
			if !alive[s.From] {
				return fmt.Errorf("reduce: round %d reads eliminated or unknown worker %d", ri, s.From)
			}
			if !alive[s.To] {
				return fmt.Errorf("reduce: round %d combines at eliminated or unknown worker %d", ri, s.To)
			}
			if s.From == s.To {
				return fmt.Errorf("reduce: round %d has self-combine at %d", ri, s.From)
			}
			if used[s.From] || used[s.To] {
				return fmt.Errorf("reduce: round %d uses worker twice", ri)
			}
			used[s.From], used[s.To] = true, true
		}
		for _, s := range round {
			alive[s.From] = false
		}
	}
	survivors := 0
	for _, a := range alive {
		if a {
			survivors++
		}
	}
	if survivors != 1 || !alive[p.Root] {
		return fmt.Errorf("reduce: %d survivors, root alive=%v (want exactly the root)", survivors, alive[p.Root])
	}
	return nil
}

// NewPlan builds a plan of the given shape over the workers. scores maps
// worker → predicted combine time (lower is fitter; from calibrate.Ranking);
// it is required for CalibratedTree (which also roots the plan at the
// fittest worker) and ignored otherwise. Flat and Tree root at workers[0].
// A single worker yields an empty plan rooted at it.
func NewPlan(shape Shape, workers []int, scores map[int]float64) Plan {
	if len(workers) == 0 {
		return Plan{Shape: shape}
	}
	ws := append([]int(nil), workers...)
	switch shape {
	case Flat:
		root := ws[0]
		p := Plan{Shape: shape, Root: root}
		// One step per round: the root is the To of every combine, and a
		// worker may appear in only one step of a (concurrent) round, so the
		// star degenerates to a fully serial schedule — which is precisely
		// the flat reduction's cost model.
		for _, w := range ws[1:] {
			p.Rounds = append(p.Rounds, []Step{{From: w, To: root}})
		}
		return p
	case CalibratedTree:
		sort.SliceStable(ws, func(a, b int) bool {
			sa, sb := scoreOf(scores, ws[a]), scoreOf(scores, ws[b])
			if sa != sb {
				return sa < sb
			}
			return ws[a] < ws[b]
		})
		return pairwisePlan(shape, ws, func(a, b int) (keep, give int) {
			if scoreOf(scores, a) <= scoreOf(scores, b) {
				return a, b
			}
			return b, a
		}, true)
	default: // Tree
		return pairwisePlan(shape, ws, func(a, b int) (keep, give int) {
			return a, b
		}, false)
	}
}

// scoreOf reads a score with a neutral default for unknown workers.
func scoreOf(scores map[int]float64, w int) float64 {
	if scores == nil {
		return 0
	}
	return scores[w]
}

// pairwisePlan folds survivors round by round. When skew is true the
// fittest survivor pairs with the slowest (survivors must arrive sorted
// fittest-first); otherwise adjacent survivors pair in order.
func pairwisePlan(shape Shape, ws []int, choose func(a, b int) (keep, give int), skew bool) Plan {
	survivors := append([]int(nil), ws...)
	var rounds [][]Step
	for len(survivors) > 1 {
		var round []Step
		var next []int
		if skew {
			// Pair survivor[i] (fit) with survivor[n-1-i] (slow): slow nodes
			// feed their partials in and exit immediately.
			n := len(survivors)
			for i := 0; i < n/2; i++ {
				keep, give := choose(survivors[i], survivors[n-1-i])
				round = append(round, Step{From: give, To: keep})
				next = append(next, keep)
			}
			if n%2 == 1 {
				next = append(next, survivors[n/2])
			}
			// Preserve fittest-first order for the next round: keeps came out
			// in fitness order already because survivors was sorted.
		} else {
			for i := 0; i+1 < len(survivors); i += 2 {
				keep, give := choose(survivors[i], survivors[i+1])
				round = append(round, Step{From: give, To: keep})
				next = append(next, keep)
			}
			if len(survivors)%2 == 1 {
				next = append(next, survivors[len(survivors)-1])
			}
		}
		rounds = append(rounds, round)
		survivors = next
	}
	return Plan{Shape: shape, Root: survivors[0], Rounds: rounds}
}

// Op describes the combine operation.
type Op struct {
	// CombineCost is the operation count of one combine (simulated
	// platforms).
	CombineCost float64
	// Bytes is the payload size of one partial value; each step moves it
	// From→master→To.
	Bytes float64
	// Fn combines two values (local platform; optional on simulators). It
	// must be associative; plans do not preserve operand order across
	// shapes, so non-commutative reductions should carry ordering inside
	// the value.
	Fn func(acc, v any) any
}

// Report is the outcome of a reduction.
type Report struct {
	// Value is the final combined value (nil when Op.Fn is nil).
	Value any
	// Root is the worker holding the result before the final gather.
	Root int
	// Makespan is the time from start until the result reached the master.
	Makespan time.Duration
	// Steps counts executed combines.
	Steps int
	// Rounds counts executed rounds.
	Rounds int
	// CombinesByWorker counts combines performed per worker.
	CombinesByWorker map[int]int
	// Failures counts steps whose transfer or combine hit a dead node; the
	// reduction routes the partial straight to the root instead (see Run).
	Failures int
	// DeadWorkers lists workers whose steps hit node failures, in
	// detection order (the engine's shared retire bookkeeping).
	DeadWorkers []int
}

// Run executes the plan from within process c and blocks until the final
// value has been gathered back to the master. values maps worker → initial
// partial (used only when op.Fn is set; missing entries are nil).
//
// Fault handling: a step that hits a crashed node (either side) loses the
// moving partial — the surviving side's value continues unchanged and the
// loss is counted in Failures, which callers surface to the GRASP core for
// recalibration. Reductions are partial-tolerant rather than self-healing:
// re-running a lost partial requires the application's task, which lives a
// layer above (core.RunMapReduce re-queues it there).
func Run(pf platform.Platform, c rt.Ctx, values map[int]any, op Op, plan Plan, log *trace.Log) Report {
	start := c.Now()
	rep := Report{
		Root:             plan.Root,
		CombinesByWorker: make(map[int]int),
	}
	vals := make(map[int]any, len(values))
	for w, v := range values {
		vals[w] = v
	}
	var faults engine.Faults

	type stepOut struct {
		step Step
		res  platform.Result
		val  any
	}

	for _, round := range plan.Rounds {
		if len(round) == 0 {
			continue
		}
		out := pf.Runtime().NewChan(fmt.Sprintf("reduce.round.%d", rep.Rounds), len(round))
		for _, s := range round {
			s := s
			fromVal := vals[s.From]
			toVal := vals[s.To]
			c.Go(fmt.Sprintf("reduce.%d.to.%d", s.From, s.To), func(cc rt.Ctx) {
				// Ship the partial out of From (transfer-out only)...
				send := pf.Exec(cc, s.From, platform.Task{ID: s.From, OutBytes: op.Bytes})
				if send.Failed() {
					out.Send(cc, stepOut{step: s, res: send})
					return
				}
				// ...then combine on To (transfer-in + compute).
				comb := pf.Exec(cc, s.To, platform.Task{
					ID: s.To, Cost: op.CombineCost, InBytes: op.Bytes,
					Fn: combineFn(op.Fn, toVal, fromVal),
				})
				out.Send(cc, stepOut{step: s, res: comb, val: comb.Value})
			})
		}
		for range round {
			v, ok := out.Recv(c)
			if !ok {
				break
			}
			so := v.(stepOut)
			if so.res.Failed() {
				faults.Failures++
				faults.Retire(so.res.Worker)
				if log != nil {
					log.Append(trace.Event{
						At: c.Now(), Kind: trace.KindNote,
						Msg: fmt.Sprintf("reduce: step %d→%d lost to node failure", so.step.From, so.step.To),
					})
				}
				// The partial on the dead side is gone; the live side's value
				// simply survives to the next round unchanged.
				continue
			}
			rep.Steps++
			rep.CombinesByWorker[so.step.To]++
			if op.Fn != nil {
				vals[so.step.To] = so.val
			}
			delete(vals, so.step.From)
			if log != nil {
				log.Append(trace.Event{
					At: c.Now(), Kind: trace.KindComplete,
					Node: pf.WorkerName(so.step.To), Task: so.step.From, Dur: so.res.Time,
				})
			}
		}
		rep.Rounds++
	}

	// Gather the result from the root to the master.
	final := pf.Exec(c, plan.Root, platform.Task{ID: plan.Root, OutBytes: op.Bytes})
	if final.Failed() {
		faults.Failures++
		faults.Retire(plan.Root)
	}
	rep.Failures = faults.Failures
	rep.DeadWorkers = faults.Dead
	if op.Fn != nil {
		rep.Value = vals[plan.Root]
	}
	rep.Makespan = c.Now() - start
	return rep
}

// combineFn binds the combine closure for platform.Exec.
func combineFn(fn func(acc, v any) any, acc, v any) func() any {
	if fn == nil {
		return nil
	}
	return func() any { return fn(acc, v) }
}
