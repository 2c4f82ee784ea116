// Package vsim is a deterministic, process-oriented discrete-event
// simulation kernel. It is the substrate on which the grid model
// (internal/grid) and the simulated runtime (internal/rt) are built,
// standing in for the real computational grid the paper executes on.
//
// Processes are goroutines, but the kernel enforces run-to-block semantics:
// exactly one process executes at any instant, and control returns to the
// scheduler only at kernel operations (Sleep, channel operations, resource
// acquisition, Join). Together with a FIFO run queue and a (time, sequence)
// ordered timer heap, this makes every simulation bit-for-bit reproducible —
// a property the paper's empirical methodology cannot offer and our
// benchmark harness requires.
//
// Virtual time is a time.Duration measured from the start of the simulation.
// It advances only when no process is runnable.
package vsim

import (
	"container/heap"
	"fmt"
	"sort"
	"time"
)

// State describes where a process is in its lifecycle.
type State int

// Process lifecycle states.
const (
	StateNew      State = iota // created, never run
	StateRunnable              // in the run queue
	StateRunning               // currently executing
	StateSleeping              // waiting on a timer
	StateBlocked               // waiting on a channel, resource, or join
	StateDone                  // function returned
)

// String returns a human-readable state name.
func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StateBlocked:
		return "blocked"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// DeadlockError is returned by Run when no process is runnable, no timer is
// pending, and at least one live process is blocked.
type DeadlockError struct {
	Now     time.Duration
	Blocked []string // names of blocked processes, sorted
}

// Error implements error.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("vsim: deadlock at %v: blocked processes %v", e.Now, e.Blocked)
}

// Env is a simulation environment: a virtual clock plus a set of processes.
// All methods must be called either from the goroutine driving Run or from
// within a process of this environment; Env is not safe for use from
// unrelated goroutines.
type Env struct {
	now     time.Duration
	runq    []*Proc
	timers  timerHeap
	seq     uint64
	yield   chan struct{}
	current *Proc
	procs   map[*Proc]struct{} // live (non-done) procs
	nextID  int
	running bool
}

// New returns an empty simulation environment at virtual time zero.
func New() *Env {
	return &Env{
		yield: make(chan struct{}),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// Proc is a simulation process. All kernel operations are methods on the
// process so the kernel can verify they are invoked by the currently running
// process.
type Proc struct {
	env     *Env
	name    string
	id      int
	state   State
	resume  chan struct{}
	joiners []*Proc
	// blockReason is a short description for deadlock reports.
	blockReason string
}

// Name returns the process name given at Go.
func (p *Proc) Name() string { return p.name }

// Go creates a process running fn and schedules it. It may be called before
// Run or from within another process. The process starts when the scheduler
// first picks it.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		env:    e,
		name:   name,
		id:     e.nextID,
		state:  StateNew,
		resume: make(chan struct{}),
	}
	e.nextID++
	e.procs[p] = struct{}{}
	go func() {
		<-p.resume
		fn(p)
		p.finish()
	}()
	e.enqueue(p)
	return p
}

// enqueue marks p runnable and appends it to the FIFO run queue.
func (e *Env) enqueue(p *Proc) {
	p.state = StateRunnable
	p.blockReason = ""
	e.runq = append(e.runq, p)
}

// park transfers control from the running process back to the scheduler and
// waits to be resumed. The caller must have recorded why it is parked
// (state + blockReason) before calling.
func (p *Proc) park() {
	p.env.yield <- struct{}{}
	<-p.resume
	p.state = StateRunning
}

// finish marks the process done, wakes joiners, and returns control to the
// scheduler permanently.
func (p *Proc) finish() {
	p.state = StateDone
	delete(p.env.procs, p)
	for _, j := range p.joiners {
		p.env.enqueue(j)
	}
	p.joiners = nil
	p.env.yield <- struct{}{}
}

// checkCurrent panics unless p is the process the scheduler is running.
// Kernel operations from the wrong goroutine would corrupt the simulation.
func (p *Proc) checkCurrent(op string) {
	if p.env.current != p || p.state != StateRunning {
		panic(fmt.Sprintf("vsim: %s called on process %q which is not running (state %v)", op, p.name, p.state))
	}
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (the process yields and is rescheduled at the same time,
// after currently queued processes — a deterministic "yield").
func (p *Proc) Sleep(d time.Duration) {
	p.checkCurrent("Sleep")
	if d < 0 {
		d = 0
	}
	e := p.env
	e.seq++
	heap.Push(&e.timers, timer{at: e.now + d, seq: e.seq, proc: p})
	p.state = StateSleeping
	p.blockReason = fmt.Sprintf("sleep until %v", e.now+d)
	p.park()
}

// Join blocks until q has finished. Joining a done process returns
// immediately. A process must not join itself.
func (p *Proc) Join(q *Proc) {
	p.checkCurrent("Join")
	if q == p {
		panic("vsim: process cannot Join itself")
	}
	if q.state == StateDone {
		return
	}
	q.joiners = append(q.joiners, p)
	p.state = StateBlocked
	p.blockReason = "join " + q.name
	p.park()
}

// timer is a pending wakeup in the timer heap.
type timer struct {
	at   time.Duration
	seq  uint64
	proc *Proc
}

type timerHeap []timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(timer)) }
func (h *timerHeap) Pop() any     { old := *h; n := len(old); t := old[n-1]; *h = old[:n-1]; return t }
func (h timerHeap) peek() timer   { return h[0] }
func (h timerHeap) empty() bool   { return len(h) == 0 }

// Run executes the simulation until no work remains: every process has
// finished or the environment is deadlocked. It returns a *DeadlockError in
// the latter case and nil otherwise.
func (e *Env) Run() error { return e.RunUntil(-1) }

// RunUntil executes the simulation until virtual time would advance past
// limit (limit < 0 means no limit), no work remains, or deadlock. Processes
// scheduled exactly at limit still run. On reaching the limit, pending
// timers remain pending and nil is returned.
func (e *Env) RunUntil(limit time.Duration) error {
	if e.running {
		panic("vsim: Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()

	for {
		if len(e.runq) > 0 {
			p := e.runq[0]
			e.runq = e.runq[0:copy(e.runq, e.runq[1:])]
			e.step(p)
			continue
		}
		if !e.timers.empty() {
			next := e.timers.peek().at
			if limit >= 0 && next > limit {
				e.now = limit
				return nil
			}
			e.now = next
			// Wake every timer due now, in seq order (heap pops give that).
			for !e.timers.empty() && e.timers.peek().at == e.now {
				t := heap.Pop(&e.timers).(timer)
				e.enqueue(t.proc)
			}
			continue
		}
		// No runnable processes, no timers.
		if len(e.procs) == 0 {
			return nil
		}
		var blocked []string
		for q := range e.procs {
			blocked = append(blocked, fmt.Sprintf("%s(%s)", q.name, q.blockReason))
		}
		sort.Strings(blocked)
		return &DeadlockError{Now: e.now, Blocked: blocked}
	}
}

// step runs process p until it blocks or finishes.
func (e *Env) step(p *Proc) {
	e.current = p
	p.state = StateRunning
	p.resume <- struct{}{}
	<-e.yield
	e.current = nil
}
