package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"grasp/internal/monitor"
	"grasp/internal/platform"
	"grasp/internal/rt"
)

// Pool projects the live cluster nodes as a platform.Platform, which is
// how remote worker processes appear to skel/engine as ordinary grid
// workers. Every skeleton runs at most one dispatch group at a time per
// worker index, so a node's declared capacity is exposed as that many
// worker indices (execution slots): a node with capacity 4 contributes 4
// indices and its 4 worker-side executors serve them concurrently — one
// job can use the whole node.
//
// The unit of dispatch is the chunk (platform.Chunker): ExecChunk queues
// a whole farm chunk or dmap block on the slot's node in one step, so a
// worker process drains it in leases of up to a millisecond of work and
// answers each in its next request — the skeleton's granularity is what
// amortises the wire. Each outcome is emitted as it arrives, so
// visibility, admission credits and the detector stay per-task. Exec is
// the chunk of one. A node that dies (or is already gone) fails every
// unresolved task of the chunk with ErrNodeLost, which drives the engine's
// Faults reassignment exactly like a grid node crash — every slot of the
// dead node fails over.
//
// Result.Time is what the Detector adapts to, and it measures the node,
// not the task's position in its chunk: the node-measured execution time
// (WireResult.Micros) plus the slot's latest per-task share of everything
// else — queueing, lease and results round trips — taken over the slot's
// most recently completed chunk as (chunk wall time − Σ Micros)/k, never
// negative. The last task of a chunk completes it, so a chunk of one
// reports exactly its coordinator-observed round trip.
//
// A Pool starts from the nodes live at job submission and is growable:
// Admit appends execution slots for a node that registers later (the
// service layer feeds coordinator membership events into running jobs'
// engine membership this way), so worker indices are append-only and a
// node that dies and re-registers joins as fresh slots under its new
// generation. It is safe for concurrent calls, and it only runs on the
// real runtime (remote processes have no place in the simulator's virtual
// time).
type Pool struct {
	coord *Coordinator
	l     *rt.Local

	mu      sync.RWMutex
	members []PoolMember
	names   []string // WorkerName per slot, built once at Admit
	stats   []*poolStats
}

// PoolMember pins one execution slot of one node registration into a
// pool. The generation makes a node that dies and re-registers mid-job
// count as a fresh registration — its old slots fail over, and Admit
// appends new slots under the new generation; Slot distinguishes the
// node's parallel lanes.
type PoolMember struct {
	ID       string
	Gen      int64
	SpeedOPS float64
	Capacity int
	Slot     int
}

// poolStats is one member's per-job accounting, atomic because skeleton
// processes call into the pool concurrently.
type poolStats struct {
	dispatched atomic.Int64
	completed  atomic.Int64
	failed     atomic.Int64
	// overhead is the slot's latest per-task share, in nanoseconds, of
	// chunk time that was not node-measured execution (see Pool).
	overhead atomic.Int64
}

// NodeCount is one member's per-job execution tally, JSON-ready for job
// statuses.
type NodeCount struct {
	Node       string `json:"node"`
	Dispatched int64  `json:"dispatched"`
	Completed  int64  `json:"completed"`
	Failed     int64  `json:"failed"`
}

// NewPool builds a platform over the given node snapshot (typically
// Coordinator.Live at job submission), one worker index per execution
// slot.
func NewPool(coord *Coordinator, l *rt.Local, nodes []NodeInfo) *Pool {
	p := &Pool{coord: coord, l: l}
	for _, ni := range nodes {
		p.Admit(ni)
	}
	return p
}

// Admit appends execution slots for a newly live node registration and
// returns their worker indices. A registration (id, gen) already in the
// pool is ignored (nil), which makes admission idempotent across the
// snapshot/subscribe seam.
func (p *Pool) Admit(ni NodeInfo) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.members {
		if m.ID == ni.ID && m.Gen == ni.Gen {
			return nil
		}
	}
	capacity := ni.Capacity
	if capacity < 1 {
		capacity = 1
	}
	added := make([]int, 0, capacity)
	for s := 0; s < capacity; s++ {
		p.members = append(p.members, PoolMember{
			ID: ni.ID, Gen: ni.Gen, SpeedOPS: ni.SpeedOPS,
			Capacity: capacity, Slot: s,
		})
		name := ni.ID
		if capacity > 1 {
			name = fmt.Sprintf("%s#%d", ni.ID, s)
		}
		p.names = append(p.names, name)
		p.stats = append(p.stats, &poolStats{})
		added = append(added, len(p.members)-1)
	}
	return added
}

// SlotsOf returns the worker indices backed by node registration
// (id, gen) — what a subscriber removes from a job's membership when the
// node goes down.
func (p *Pool) SlotsOf(id string, gen int64) []int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []int
	for i, m := range p.members {
		if m.ID == id && m.Gen == gen {
			out = append(out, i)
		}
	}
	return out
}

// TotalCapacity is the pool's concurrent execution slots — the pool's
// worker count, and what a cluster job's default admission window is
// sized from (at submission; later admissions grow the membership but not
// the window).
func (p *Pool) TotalCapacity() int { return p.Size() }

// Members returns the pool's node slots in worker-index order.
func (p *Pool) Members() []PoolMember {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]PoolMember(nil), p.members...)
}

// Runtime implements Platform.
func (p *Pool) Runtime() rt.Runtime { return p.l }

// Size implements Platform.
func (p *Pool) Size() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.members)
}

// member reads one slot's entry and stats under the lock.
func (p *Pool) member(i int) (PoolMember, *poolStats) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.members[i], p.stats[i]
}

// WorkerName implements Platform: slots are named "<node>#<slot>" (bare
// node id for single-slot nodes) so traces distinguish a node's lanes.
func (p *Pool) WorkerName(i int) string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.names[i]
}

// NodeName returns the node id behind worker index i — the user-facing
// attribution (result `node` fields, per-node tallies), which aggregates
// a node's slots.
func (p *Pool) NodeName(i int) string {
	m, _ := p.member(i)
	return m.ID
}

// Exec implements Platform: the chunk of one.
func (p *Pool) Exec(c rt.Ctx, i int, t platform.Task) (res platform.Result) {
	one := [1]platform.Task{t}
	p.ExecChunk(c, i, one[:], func(r platform.Result) { res = r })
	return res
}

// ExecChunk implements platform.Chunker: the tasks are queued on member
// i's node as one dispatch group and the calling context blocks until
// every outcome has been emitted, each as it arrives. A node lost
// mid-chunk (or already gone) yields failed Results carrying ErrNodeLost
// for everything unresolved, which the skeletons treat exactly like a
// worker crash: retire and re-queue.
func (p *Pool) ExecChunk(c rt.Ctx, i int, tasks []platform.Task, emit func(platform.Result)) {
	m, st := p.member(i)
	start := c.Now()
	st.dispatched.Add(int64(len(tasks)))
	ch, err := p.coord.submit(m.ID, m.Gen, tasks)
	if err != nil {
		st.failed.Add(int64(len(tasks)))
		for _, t := range tasks {
			emit(platform.Result{Task: t, Worker: i, Start: start, Err: ErrNodeLost})
		}
		return
	}
	var exec time.Duration // Σ node-measured execution of the chunk so far
	for left := len(tasks); left > 0; left-- {
		out := <-ch.sink
		t := tasks[out.idx]
		if out.err != nil {
			st.failed.Add(1)
			emit(platform.Result{Task: t, Worker: i, Start: start, Time: c.Now() - start, Err: out.err})
			continue
		}
		micros := time.Duration(out.micros) * time.Microsecond
		exec += micros
		if left == 1 {
			st.overhead.Store(int64(max(0, c.Now()-start-exec)) / int64(len(tasks)))
		}
		st.completed.Add(1)
		emit(platform.Result{
			Task:   t,
			Worker: i,
			Value:  t.ID,
			Time:   micros + time.Duration(st.overhead.Load()),
			Start:  start,
		})
	}
	ch.release()
}

// LoadSensor implements Platform: remote load is already embedded in the
// task times the detector observes, so the sensor reads zero.
func (p *Pool) LoadSensor(int) monitor.Sensor {
	return monitor.FuncSensor(func() float64 { return 0 })
}

// BandwidthSensor implements Platform.
func (p *Pool) BandwidthSensor(int) monitor.Sensor {
	return monitor.FuncSensor(func() float64 { return 0 })
}

// NodeCounts tallies this job's executions per member node, aggregating
// each node's slots, in first-seen node order.
func (p *Pool) NodeCounts() []NodeCount {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []NodeCount
	index := make(map[string]int)
	for i, m := range p.members {
		k, ok := index[m.ID]
		if !ok {
			k = len(out)
			index[m.ID] = k
			out = append(out, NodeCount{Node: m.ID})
		}
		out[k].Dispatched += p.stats[i].dispatched.Load()
		out[k].Completed += p.stats[i].completed.Load()
		out[k].Failed += p.stats[i].failed.Load()
	}
	return out
}
