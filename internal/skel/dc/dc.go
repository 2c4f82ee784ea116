// Package dc implements the divide-and-conquer algorithmic skeleton: a
// problem is divided at the master until the grain predicate declares an
// instance indivisible, the leaf instances are farmed over the platform
// (demand-driven, so the farm's adaptivity carries over), and solutions are
// combined level by level — each level's combines are mutually independent
// and are themselves farmed.
//
// The skeleton's intrinsic property is its grain: dividing deeper yields
// more, smaller leaves — better load balance on a heterogeneous grid but
// more dispatch and transfer overhead — while a shallow division produces
// few large leaves whose stragglers dominate the makespan. The grain
// predicate receives the recursion depth, so callers (and the GRASP core)
// can steer granularity exactly as the paper's "adjustment of algorithmic
// parameters" demands. E16 sweeps this trade-off.
//
// In engine terms, dc maps onto the shared adaptive contract through its
// leaf and combine farms: calibrated weights steer both phases' dispatch,
// the detector monitors the leaf phase (where the grain lever lives), and
// a breach stops the run with Incomplete so the caller can recalibrate —
// there is no dc-private adaptation loop.
package dc

import (
	"fmt"
	"time"

	"grasp/internal/monitor"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/sched"
	"grasp/internal/skel/farm"
	"grasp/internal/trace"
)

// Op describes one divide-and-conquer computation.
type Op struct {
	// Divide splits an instance into subproblems, in an order Combine
	// relies on. Returning fewer than two subproblems marks the instance a
	// leaf regardless of Indivisible.
	Divide func(p any) []any
	// Indivisible reports whether an instance at the given recursion depth
	// should be solved directly (the grain predicate).
	Indivisible func(p any, depth int) bool
	// Base solves a leaf instance (local platform; optional on simulators).
	Base func(p any) any
	// Combine merges the solutions of Divide's subproblems, same order
	// (local platform; optional on simulators).
	Combine func(subs []any) any
	// BaseCost estimates the operation count of Base(p) (simulated
	// platforms). Nil means zero-cost leaves.
	BaseCost func(p any) float64
	// CombineCost estimates the operation count of combining n solutions
	// (simulated platforms). Nil means zero-cost combines.
	CombineCost func(n int) float64
	// Bytes estimates an instance's payload size for transfers. Nil means
	// no payload.
	Bytes func(p any) float64
}

// maxDepth bounds the division tree defensively: an instance this deep is
// a leaf whatever the grain predicate says.
const maxDepth = 40

// Options configures a divide-and-conquer run.
type Options struct {
	// Workers are the chosen worker indices (default: all).
	Workers []int
	// Weights are calibrated dispatch weights handed to the leaf farm.
	Weights map[int]float64
	// Chunk is the leaf farm's granularity policy (default sched.Single).
	Chunk sched.ChunkPolicy
	// Detector monitors leaf task times (Algorithm 2); on breach the leaf
	// farm stops and the run reports Incomplete so the caller can
	// recalibrate.
	Detector *monitor.Detector
	// NormCost normalises detector observations (see farm.Options).
	NormCost float64
	// Log receives trace events (optional).
	Log *trace.Log
}

// Report is the outcome of a divide-and-conquer run.
type Report struct {
	// Value is the root solution (nil when Base/Combine are nil or the run
	// is incomplete).
	Value any
	// Leaves counts leaf instances farmed.
	Leaves int
	// Combines counts internal-node merges executed.
	Combines int
	// Depth is the height of the division tree (0 = the root was a leaf).
	Depth int
	// Makespan is the time from start until the root solution was ready.
	Makespan time.Duration
	// LeafSpan is the portion of the makespan spent in the leaf farm.
	LeafSpan time.Duration
	// Requests counts farmer round-trips across the leaf and combine farms.
	Requests int
	// Breached reports that the leaf farm's detector triggered.
	Breached bool
	// Incomplete reports the run did not produce the root solution
	// (detector breach or worker loss).
	Incomplete bool
	// Failures counts executions lost to worker crashes (retried by the
	// farm when possible).
	Failures int
}

// node is one vertex of the division tree.
type node struct {
	problem  any
	parent   int
	children []int
	depth    int
	value    any
	solved   bool
}

// Run executes the computation from within process c, blocking until the
// root solution is ready or the run is abandoned.
func Run(pf platform.Platform, c rt.Ctx, root any, op Op, opts Options) Report {
	start := c.Now()
	rep := Report{}

	// --- Divide phase (master-side): build the tree breadth-first. ---
	nodes := []*node{{problem: root, parent: -1}}
	var leaves []int
	for i := 0; i < len(nodes); i++ {
		n := nodes[i]
		if n.depth > rep.Depth {
			rep.Depth = n.depth
		}
		indivisible := n.depth >= maxDepth ||
			(op.Indivisible != nil && op.Indivisible(n.problem, n.depth))
		var subs []any
		if !indivisible && op.Divide != nil {
			subs = op.Divide(n.problem)
		}
		if len(subs) < 2 {
			leaves = append(leaves, i)
			continue
		}
		for _, sub := range subs {
			nodes = append(nodes, &node{problem: sub, parent: i, depth: n.depth + 1})
			n.children = append(n.children, len(nodes)-1)
		}
	}
	rep.Leaves = len(leaves)

	// --- Leaf phase: farm the base cases. ---
	tasks := make([]platform.Task, len(leaves))
	for ti, ni := range leaves {
		n := nodes[ni]
		tasks[ti] = platform.Task{
			ID:      ni,
			Cost:    costOf(op.BaseCost, n.problem),
			InBytes: bytesOf(op.Bytes, n.problem),
			Fn:      baseFn(op.Base, n.problem),
		}
	}
	leafStart := c.Now()
	frep := farm.Run(pf, c, tasks, opts.farmOptions(opts.Detector))
	rep.LeafSpan = c.Now() - leafStart
	rep.Requests += frep.Requests
	rep.Failures += frep.Failures
	rep.Breached = frep.Breached
	for _, res := range frep.Results {
		n := nodes[res.Task.ID]
		n.value = res.Value
		n.solved = true
	}
	if len(frep.Remaining) > 0 {
		rep.Incomplete = true
		rep.Makespan = c.Now() - start
		return rep
	}

	// --- Combine phase: farm each level's independent merges, deepest
	// level first. ---
	byDepth := make(map[int][]int)
	for i, n := range nodes {
		if len(n.children) > 0 {
			byDepth[n.depth] = append(byDepth[n.depth], i)
		}
	}
	for d := rep.Depth - 1; d >= 0; d-- {
		level := byDepth[d]
		if len(level) == 0 {
			continue
		}
		ctasks := make([]platform.Task, 0, len(level))
		for _, ni := range level {
			n := nodes[ni]
			ready := true
			for _, ci := range n.children {
				if !nodes[ci].solved {
					ready = false
					break
				}
			}
			if !ready {
				// Children lost to a crash that the farm could not repair.
				rep.Incomplete = true
				continue
			}
			subs := make([]any, len(n.children))
			var payload float64
			for k, ci := range n.children {
				subs[k] = nodes[ci].value
				payload += bytesOf(op.Bytes, nodes[ci].problem)
			}
			ctasks = append(ctasks, platform.Task{
				ID:      ni,
				Cost:    costOf2(op.CombineCost, len(n.children)),
				InBytes: payload,
				Fn:      combineFn(op.Combine, subs),
			})
		}
		if len(ctasks) == 0 {
			continue
		}
		crep := farm.Run(pf, c, ctasks, opts.farmOptions(nil))
		rep.Requests += crep.Requests
		rep.Failures += crep.Failures
		rep.Combines += len(crep.Results)
		for _, res := range crep.Results {
			n := nodes[res.Task.ID]
			n.value = res.Value
			n.solved = true
		}
		if len(crep.Remaining) > 0 {
			rep.Incomplete = true
		}
	}

	if nodes[0].solved && !rep.Incomplete {
		rep.Value = nodes[0].value
	} else {
		rep.Incomplete = true
	}
	rep.Makespan = c.Now() - start
	if opts.Log != nil {
		opts.Log.Append(trace.Event{
			At: c.Now(), Kind: trace.KindNote,
			Msg: fmt.Sprintf("dc: %d leaves, %d combines, depth %d, incomplete=%v",
				rep.Leaves, rep.Combines, rep.Depth, rep.Incomplete),
		})
	}
	return rep
}

// farmOptions projects the dc options onto the engine-backed farm that
// executes a phase. Both phases share the calibrated weights and chunk
// policy; only the leaf phase monitors (det non-nil), because the combine
// phase's tasks are the grain predicate's product and re-deciding grain is
// the caller's recalibration, not the farm's.
func (opts Options) farmOptions(det *monitor.Detector) farm.Options {
	return farm.Options{
		Workers:  opts.Workers,
		Chunk:    opts.Chunk,
		Weights:  opts.Weights,
		Detector: det,
		NormCost: opts.NormCost,
		Log:      opts.Log,
	}
}

// SizeGrain returns a grain predicate for instances with a notion of size:
// an instance is indivisible once size(p) ≤ limit.
func SizeGrain(size func(p any) int, limit int) func(any, int) bool {
	return func(p any, _ int) bool { return size(p) <= limit }
}

// DepthGrain returns a grain predicate that divides to a fixed depth,
// yielding (branching)^depth leaves.
func DepthGrain(depth int) func(any, int) bool {
	return func(_ any, d int) bool { return d >= depth }
}

func costOf(f func(any) float64, p any) float64 {
	if f == nil {
		return 0
	}
	return f(p)
}

func costOf2(f func(int) float64, n int) float64 {
	if f == nil {
		return 0
	}
	return f(n)
}

func bytesOf(f func(any) float64, p any) float64 {
	if f == nil {
		return 0
	}
	return f(p)
}

func baseFn(base func(any) any, p any) func() any {
	if base == nil {
		return nil
	}
	return func() any { return base(p) }
}

func combineFn(combine func([]any) any, subs []any) func() any {
	if combine == nil {
		return nil
	}
	return func() any { return combine(subs) }
}
