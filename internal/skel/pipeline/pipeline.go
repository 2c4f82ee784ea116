// Package pipeline implements the pipeline algorithmic skeleton (the
// paper's second skeleton, detailed in its ref [7], "Towards fully adaptive
// pipeline parallelism for heterogeneous distributed environments").
//
// A pipeline of S stages is mapped onto workers (stage i on mapping[i]);
// items flow through bounded inter-stage buffers. Each stage measures its
// per-item service time with a monitor.Detector; a breach — the pipeline's
// instance of Algorithm 2's rule — triggers the skeleton's inherent
// adaptation levers:
//
//   - remapping: move the stage onto the fittest spare worker (the node is
//     the problem);
//   - replication: farm an order-insensitive stage across additional
//     workers (the stage itself is the bottleneck), per ref [7]'s "fully
//     adaptive" design.
//
// Worker crashes (grid.ErrNodeFailed) are survived by retiring the dead
// worker and remapping; items are lost only when no spare remains.
//
// The batch Run has no stage loop of its own: a stage is a farm.Stream over
// a pool of one, on the stage graph compose.RunFarms, so its detector,
// membership and crash handling are engine.Core's. A stage farm's Window is
// the most workers the stage may ever hold — 1, or MaxReplicas for a
// Replicable stage, which may therefore admit that many items before it
// has replicated. Stream is the served pipeline, one coordinator for all
// stages.
package pipeline

import (
	"fmt"
	"sync"
	"time"

	"grasp/internal/monitor"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/skel/compose"
	"grasp/internal/skel/engine"
	"grasp/internal/trace"
)

// Stage describes one pipeline stage.
type Stage struct {
	// Name identifies the stage in traces.
	Name string
	// Cost returns the operation count for item i (simulated platforms).
	Cost func(item int) float64
	// InBytes/OutBytes are per-item payload sizes for the stage's transfers.
	InBytes, OutBytes float64
	// Fn transforms the item value (local platform; optional elsewhere).
	Fn func(v any) any
	// Replicable marks the stage as order-insensitive: the adaptive
	// pipeline may farm it across several workers when it is a persistent
	// bottleneck (items can then leave the stage out of order).
	Replicable bool
}

// Options configures a pipeline run.
type Options struct {
	// Mapping assigns stage i to worker Mapping[i]. Its length must equal
	// the number of stages. Defaults to stage i → worker i.
	Mapping []int
	// Spares are workers the adaptive pipeline may remap or replicate slow
	// stages onto, in preference order (fittest first). Empty disables
	// adaptation.
	Spares []int
	// DetectorFor builds the per-stage detector; nil disables monitoring.
	DetectorFor func(stage int) *monitor.Detector
	// BufSize is the inter-stage buffer capacity (default 1).
	BufSize int
	// MaxReplicas caps the total workers a Replicable stage may grow to
	// (≤1 disables replication). On a threshold breach a replicable stage
	// prefers replication over remapping: a structural bottleneck needs
	// capacity, not relocation.
	MaxReplicas int
	// Log receives complete/adapt events (optional).
	Log *trace.Log
}

// Report is the outcome of a pipeline run.
type Report struct {
	// Makespan is the time from start until the last item leaves the sink.
	Makespan time.Duration
	// Items is the number of items that exited the pipeline.
	Items int
	// Outputs collects the final item values (local platform), in exit
	// order.
	Outputs []any
	// ServiceByStage sums per-stage busy time (replicas included).
	ServiceByStage []time.Duration
	// Remaps records every relocation adaptation.
	Remaps []Remap
	// Replications records every replication adaptation.
	Replications []Replication
	// ExitTimes records when each item left the pipeline, in exit order.
	ExitTimes []time.Duration
	// FinalMapping is the stage→worker mapping of the primaries after
	// adaptation.
	FinalMapping []int
	// Failures counts stage executions lost to worker crashes (each was
	// retried after a remap when a spare was available).
	Failures int
	// Lost counts items dropped because a stage's worker crashed with no
	// spare left to remap onto.
	Lost int
}

// Remap is one stage-relocation adaptation event.
type Remap struct {
	At         time.Duration
	Stage      int
	FromWorker int
	ToWorker   int
}

// Replication is one stage-replication adaptation event.
type Replication struct {
	At     time.Duration
	Stage  int
	Worker int // the added worker
}

// mapping is the mutable stage→worker table plus the spare pool, shared by
// stage processes. A mutex keeps it safe on the local (goroutine) runtime;
// under the simulated runtime accesses are already serialised.
type mapping struct {
	mu     sync.Mutex
	stage  []int
	spares []int
}

func (m *mapping) workerOf(stage int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stage[stage]
}

// remap moves a stage to the next spare, returning the old and new workers.
// The vacated worker returns to the spare pool when recycle is set (it may
// recover); a crashed one must never be reused.
func (m *mapping) remap(stage int, recycle bool) (from, to int, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.spares) == 0 {
		return 0, 0, false
	}
	from = m.stage[stage]
	to = m.spares[0]
	m.spares = m.spares[1:]
	if recycle {
		m.spares = append(m.spares, from)
	}
	m.stage[stage] = to
	return from, to, true
}

// takeSpare removes and returns the fittest spare for a replica.
func (m *mapping) takeSpare() (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.spares) == 0 {
		return 0, false
	}
	w := m.spares[0]
	m.spares = m.spares[1:]
	return w, true
}

// Run pushes nItems items (IDs 0..nItems-1, initial value = their ID)
// through the stages and blocks until the sink has drained.
func Run(pf platform.Platform, c rt.Ctx, stages []Stage, nItems int, opts Options) Report {
	rep, _ := run(pf, c, stages, nItems, opts)
	return rep
}

// run is Run plus each stage farm's engine report. The stage graph is
// compose.RunFarms; this is the policy it runs with. Stage si starts as a
// pool of one (its mapped worker) and every lever is a membership update
// of its farm: a breach replicates the stage when it allows it and the cap
// leaves room (Add a spare), else remaps it (Add the spare, Remove the old
// worker); a crashed primary is replaced by the next spare and retired
// from the mapping, a crashed replica just replaced. One stage's hooks run
// in that stage's farmer process, so only the mapping and the report's
// history are shared between processes.
func run(pf platform.Platform, c rt.Ctx, stages []Stage, nItems int, opts Options) (Report, []engine.StreamReport) {
	if len(stages) == 0 {
		return Report{}, nil
	}
	m := &mapping{stage: append([]int(nil), opts.Mapping...), spares: append([]int(nil), opts.Spares...)}
	if len(opts.Mapping) == 0 {
		for i := range stages {
			m.stage = append(m.stage, i%pf.Size())
		}
	} else if len(opts.Mapping) != len(stages) {
		panic(fmt.Sprintf("pipeline: %d mappings for %d stages", len(opts.Mapping), len(stages)))
	}

	var rep Report
	var mu sync.Mutex // guards rep.Remaps and rep.Replications on the local runtime
	logAdapt := func(si, w int, format string, args ...any) {
		if opts.Log != nil {
			opts.Log.Append(trace.Event{
				At: c.Now(), Kind: trace.KindAdapt,
				Proc: stages[si].Name, Node: pf.WorkerName(w), Msg: fmt.Sprintf(format, args...),
			})
		}
	}
	// remap moves stage si to the next spare, if there is one; the vacated
	// worker returns to the spares unless it crashed.
	remap := func(si int, crashed bool, why string) (engine.Update, bool) {
		from, to, ok := m.remap(si, !crashed)
		if !ok {
			return engine.Update{}, false
		}
		mu.Lock()
		rep.Remaps = append(rep.Remaps, Remap{At: c.Now(), Stage: si, FromWorker: from, ToWorker: to})
		mu.Unlock()
		logAdapt(si, to, "remap stage %d %s→%s (%s)", si, pf.WorkerName(from), pf.WorkerName(to), why)
		u := engine.Update{Add: []engine.Member{{Worker: to}}, ResetDetector: true}
		if !crashed {
			u.Remove = []int{from}
		}
		return u, true
	}

	pools := make([]compose.Stage, len(stages))
	farms := make([]engine.StreamOptions, len(stages))
	for si, st := range stages {
		pools[si] = compose.Stage{
			Name: st.Name, Pool: []int{m.stage[si]},
			Cost: st.Cost, InBytes: st.InBytes, OutBytes: st.OutBytes, Fn: st.Fn,
		}
		o := &farms[si]
		o.Window = 1 // the most workers the stage may ever hold
		if st.Replicable && opts.MaxReplicas > 1 {
			o.Window = opts.MaxReplicas
		}
		if opts.DetectorFor != nil {
			o.Detector = opts.DetectorFor(si)
		}
		granted := 1 // workers ever granted to the stage, primary included
		o.OnRecalibrate = func(b engine.Breach) (engine.Update, bool) {
			if granted < o.Window {
				if w, ok := m.takeSpare(); ok {
					granted++
					mu.Lock()
					rep.Replications = append(rep.Replications, Replication{At: c.Now(), Stage: si, Worker: w})
					mu.Unlock()
					logAdapt(si, w, "replicate stage %d onto %s (stat %v)", si, pf.WorkerName(w), b.Stat)
					return engine.Update{Add: []engine.Member{{Worker: w}}}, true
				}
			}
			u, _ := remap(si, false, fmt.Sprintf("stat %v", b.Stat))
			return u, true // handled even with no spare left: nothing to reweight
		}
		o.OnFailure = func(dead int) (engine.Update, bool) {
			if dead == m.workerOf(si) {
				return remap(si, true, "worker failed")
			}
			w, ok := m.takeSpare()
			if !ok {
				return engine.Update{}, false
			}
			logAdapt(si, w, "replica of stage %d moved %s→%s (replica worker failed)",
				si, pf.WorkerName(dead), pf.WorkerName(w))
			return engine.Update{Add: []engine.Member{{Worker: w}}}, true
		}
	}
	flow, reports := compose.RunFarms(pf, c, pools, farms, nItems,
		compose.Options{BufSize: opts.BufSize, Log: opts.Log})

	rep.Makespan, rep.Items, rep.ServiceByStage = flow.Makespan, flow.Items, flow.ServiceByStage
	rep.Failures, rep.Lost = flow.Failures, flow.Lost
	for _, o := range flow.Outputs {
		rep.Outputs = append(rep.Outputs, o.Value)
		rep.ExitTimes = append(rep.ExitTimes, o.At)
	}
	rep.FinalMapping = m.stage // every stage process has been joined
	return rep, reports
}
