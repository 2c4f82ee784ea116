// Package platform binds a runtime (rt) to an execution substrate, giving
// the skeleton layer one interface for "run this task on that worker and
// tell me how long it took" — the measurement Algorithms 1 and 2 are built
// from.
//
// Two platforms exist: GridPlatform executes tasks on the simulated grid
// (virtual time, deterministic; used by all experiments) and LocalPlatform
// executes task closures on real goroutines (used by the examples and any
// downstream consumer of the library on an SMP machine).
package platform

import (
	"fmt"
	"time"

	"grasp/internal/grid"
	"grasp/internal/monitor"
	"grasp/internal/rt"
	"grasp/internal/workload"
)

// Task is one unit of skeleton work. For simulated platforms the Cost and
// payload fields define the task; for the local platform, Fn does (and is
// executed for real). Data carries the application payload through the
// skeleton untouched.
type Task struct {
	ID       int
	Cost     float64 // operations, simulated platforms
	InBytes  float64 // input payload
	OutBytes float64 // output payload
	Fn       func() any
	Data     any
}

// Result is a completed (or failed) task execution.
type Result struct {
	Task   Task
	Worker int
	Value  any           // Fn's return value on the local platform
	Time   time.Duration // wall (virtual or real) execution time
	Start  time.Duration // when execution began, runtime clock
	// Err is non-nil when the worker failed before delivering the result
	// (grid.ErrNodeFailed); the task's work is lost and must be redone.
	Err error
}

// Failed reports whether the execution was lost to a worker failure.
func (r Result) Failed() bool { return r.Err != nil }

// Platform is a set of workers a skeleton can execute tasks on.
type Platform interface {
	// Runtime returns the runtime processes and channels come from.
	Runtime() rt.Runtime
	// Size returns the number of workers (the paper's P).
	Size() int
	// WorkerName names a worker for traces.
	WorkerName(i int) string
	// Exec runs t on worker i, blocking the calling context for the task's
	// duration, and returns the completed Result.
	Exec(c rt.Ctx, i int, t Task) Result
	// LoadSensor returns a sensor for worker i's processor load.
	LoadSensor(i int) monitor.Sensor
	// BandwidthSensor returns a sensor for the utilisation of the link to
	// worker i.
	BandwidthSensor(i int) monitor.Sensor
}

// Chunker is the optional Platform refinement for substrates where a
// dispatch group is cheaper than its tasks one by one: cluster.Pool queues
// the whole group on the worker's node in one step, so a chunk costs one
// lease and one results round trip instead of one pair per task.
type Chunker interface {
	// ExecChunk runs tasks on worker i and calls emit exactly once per
	// task, from the calling context, as each Result arrives — completion
	// order, which need not be task order.
	ExecChunk(c rt.Ctx, i int, tasks []Task, emit func(Result))
}

// ExecChunk runs one dispatch group — a farm chunk, a dmap block — on
// worker i, blocking the calling context until every task has been
// emitted; a lost execution is emitted as a failed Result like any other.
// Platforms that implement Chunker take the group whole; on every other
// platform (the simulated grid, local goroutines) a group is its tasks
// executed in order, which is what keeps virtual-time runs identical to a
// per-task Exec loop.
func ExecChunk(pf Platform, c rt.Ctx, i int, tasks []Task, emit func(Result)) {
	if ch, ok := pf.(Chunker); ok {
		ch.ExecChunk(c, i, tasks, emit)
		return
	}
	for _, t := range tasks {
		emit(pf.Exec(c, i, t))
	}
}

// GridPlatform runs tasks on a simulated grid. Worker i is grid node i.
type GridPlatform struct {
	sim *rt.Sim
	g   *grid.Grid
	// SensorNoise is the stddev of Gaussian noise added to sensor readings;
	// zero means perfect sensors.
	SensorNoise float64
	sensorSeed  int64
}

// NewGridPlatform binds a simulated runtime to a grid. sensorNoise sets the
// standard deviation of sensor error (see monitor.Noisy); seed makes the
// noise reproducible.
func NewGridPlatform(sim *rt.Sim, g *grid.Grid, sensorNoise float64, seed int64) *GridPlatform {
	return &GridPlatform{sim: sim, g: g, SensorNoise: sensorNoise, sensorSeed: seed}
}

// Runtime implements Platform.
func (p *GridPlatform) Runtime() rt.Runtime { return p.sim }

// Size implements Platform.
func (p *GridPlatform) Size() int { return p.g.Size() }

// WorkerName implements Platform.
func (p *GridPlatform) WorkerName(i int) string { return p.g.Node(grid.NodeID(i)).Name }

// Exec implements Platform.
func (p *GridPlatform) Exec(c rt.Ctx, i int, t Task) Result {
	start := c.Now()
	d, err := p.g.Execute(rt.ProcOf(c), grid.NodeID(i), grid.Work{
		Cost:     t.Cost,
		InBytes:  t.InBytes,
		OutBytes: t.OutBytes,
	})
	return Result{Task: t, Worker: i, Time: d, Start: start, Err: err}
}

// LoadSensor implements Platform. Each call returns an independent noisy
// sensor (its own noise stream) over the node's true load.
func (p *GridPlatform) LoadSensor(i int) monitor.Sensor {
	n := p.g.Node(grid.NodeID(i))
	env := p.sim.Env()
	truth := monitor.FuncSensor(func() float64 { return n.LoadAt(env.Now()) })
	if p.SensorNoise <= 0 {
		return truth
	}
	return monitor.NewNoisy(truth, p.SensorNoise, 0, 1, p.sensorSeed+int64(i)*7919)
}

// BandwidthSensor implements Platform.
func (p *GridPlatform) BandwidthSensor(i int) monitor.Sensor {
	l := p.g.Link(grid.NodeID(i))
	env := p.sim.Env()
	truth := monitor.FuncSensor(func() float64 { return l.UtilAt(env.Now()) })
	if p.SensorNoise <= 0 {
		return truth
	}
	return monitor.NewNoisy(truth, p.SensorNoise, 0, 1, p.sensorSeed+int64(i)*104729)
}

// LocalPlatform runs task closures on real goroutines: worker indices are
// concurrency slots, not bound CPUs.
type LocalPlatform struct {
	l     *rt.Local
	names []string // "w<i>" per worker, built once: traces ask per dispatch and per completion
}

// NewLocalPlatform returns a local platform with n workers (minimum 1).
func NewLocalPlatform(l *rt.Local, n int) *LocalPlatform {
	if n < 1 {
		n = 1
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
	}
	return &LocalPlatform{l: l, names: names}
}

// Runtime implements Platform.
func (p *LocalPlatform) Runtime() rt.Runtime { return p.l }

// Size implements Platform.
func (p *LocalPlatform) Size() int { return len(p.names) }

// WorkerName implements Platform.
func (p *LocalPlatform) WorkerName(i int) string { return p.names[i] }

// Exec implements Platform: it calls the task's closure and measures real
// time. Tasks without a closure complete instantly with a nil value.
func (p *LocalPlatform) Exec(c rt.Ctx, i int, t Task) Result {
	start := c.Now()
	var v any
	if t.Fn != nil {
		v = t.Fn()
	}
	return Result{Task: t, Worker: i, Value: v, Time: c.Now() - start, Start: start}
}

// LoadSensor implements Platform: the local platform has no external load.
func (p *LocalPlatform) LoadSensor(int) monitor.Sensor {
	return monitor.FuncSensor(func() float64 { return 0 })
}

// BandwidthSensor implements Platform.
func (p *LocalPlatform) BandwidthSensor(int) monitor.Sensor {
	return monitor.FuncSensor(func() float64 { return 0 })
}

// TasksFromItems converts a generated workload population into tasks,
// numbering them in order.
func TasksFromItems(items []workload.Item) []Task {
	tasks := make([]Task, len(items))
	for i, it := range items {
		tasks[i] = Task{ID: i, Cost: it.Cost, InBytes: it.InBytes, OutBytes: it.OutBytes}
	}
	return tasks
}
