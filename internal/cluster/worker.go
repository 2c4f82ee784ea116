package cluster

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"grasp/internal/metrics"
)

// WorkerConfig parameterises a worker-node runtime.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (the graspd -cluster-listen
	// address), e.g. "http://host:8090".
	Coordinator string
	// ID names the node (default "<hostname>-<pid>").
	ID string
	// Capacity is how many tasks execute concurrently (default 2).
	Capacity int
	// Batch caps the tasks one lease pulls; each of the Capacity executors
	// leases independently. The default 0 sets no worker-side cap: a lease
	// then takes the node's capacity share of what the skeleton queued —
	// a farm chunk, a dmap block — bounded by the coordinator's 64-task
	// lease cap and its millisecond of estimated work.
	Batch int
	// Transport is the wire binding the worker speaks for its whole life,
	// registration included: TransportBinary (the default) or
	// TransportJSON. The coordinator's Server answers both on one port, so
	// a fleet may mix them.
	Transport string
	// Client is the HTTP client for the JSON binding (default:
	// DefaultWorkerClient, tuned for persistent connections).
	Client *http.Client
	// Logger receives lifecycle events as structured records carrying
	// node/coordinator/transport fields (default: discard).
	Logger *slog.Logger
	// Registry receives the worker's operational metrics — most usefully
	// the lease round-trip histogram (default: a fresh registry).
	Registry *metrics.Registry
	// DegradeAfter, when positive, scripts a slow-node failure: from that
	// long after startup, every task this node executes is stretched to
	// DegradeFactor × its natural duration (the difference is slept, so
	// the coordinator sees genuinely slower round trips). The node still
	// answers heartbeats — exactly the gradual degradation the adaptive
	// layer must catch from completion times alone.
	DegradeAfter time.Duration
	// DegradeFactor is the post-degradation execution-time multiplier
	// (0 = 3 when DegradeAfter is set; any other value ≤ 1 disables the
	// slowdown). StartWorker refuses a NaN or infinite factor.
	DegradeFactor float64
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "node"
		}
		c.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if c.Transport == "" {
		c.Transport = TransportBinary
	}
	if c.Capacity < 1 {
		c.Capacity = 2
	}
	if c.Batch < 0 {
		c.Batch = 0
	}
	if c.Client == nil {
		c.Client = DefaultWorkerClient()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	if c.DegradeAfter > 0 && c.DegradeFactor == 0 {
		c.DegradeFactor = 3
	}
	return c
}

const (
	// benchSpin is the startup benchmark's iteration count: about 1.4 ms
	// of spinning on a current core.
	benchSpin = 2_000_000
	// leaseWait is the long-poll bound a worker requests per lease; the
	// coordinator clamps it to its maxLeaseWait. It is never 0: a binary
	// lease's deadline is its wait plus a round trip.
	leaseWait = 2 * time.Second
)

// leaseAheadMax bounds the tasks an executor leases ahead of: from resultHold
// up to it, the last task of a lease runs while the next lease makes its
// round trip. Above it the round trip is under 0.02 % of the task, and
// leasing ahead would only start the next task's leaseTTL clock early.
const leaseAheadMax = time.Second

// aheadLease is the lease an executor issues ahead of its lease's last
// task, handed between the executor and its leaser goroutine: the executor
// fills the request half and signals issue; the leaser fills the response
// half and signals done. Each side touches it only between those signals.
type aheadLease struct {
	gen     int64
	results []WireResult // the executor's held results, carried by the request
	tasks   []WireTask
	err     error
	issue   chan struct{}
	done    chan struct{} // buffered: the leaser never waits on a stopped executor
}

// Worker is a running worker-node: registered with its coordinator,
// heartbeating, and executing leased tasks on Capacity concurrent
// executors. An executor answers a lease as a unit: the results of the
// lease it just ran ride its next lease request, one frame out and one
// back per lease — and a lease is a millisecond of work or one task, so
// none waits long. When a lease's last task runs from resultHold up to
// leaseAheadMax, the next lease goes out as that task begins, so the next
// task is on the node when this one ends. Create one with StartWorker;
// Stop leaves gracefully.
type Worker struct {
	cfg   WorkerConfig
	log   *slog.Logger
	speed float64
	tr    Transport    // the one binding every verb goes over
	start time.Time    // DegradeAfter counts from here
	gen   atomic.Int64 // the registration's generation, renewed by reRegister
	reg   sync.Mutex   // held from reRegister's generation check through its register

	// heartbeat carries each register reply's interval to heartbeatLoop,
	// so a coordinator restarted with another dead-after sets the beat of
	// every worker that re-registers with it.
	heartbeat chan time.Duration

	// Observability: lease round-trip distribution (the worker-side view
	// of dispatch latency — long-poll waits included) and how long
	// executors sat without a task on a lease that then delivered one.
	hLeaseRTT    *metrics.Histogram
	hExecWait    *metrics.Histogram
	mExecuted    *metrics.Counter
	mLeases      *metrics.Counter
	mLeasesAhead *metrics.Counter

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup // executors, their leasers + heartbeat
}

// benchmark measures this process's spin speed in iterations/second over
// benchSpin iterations — the register-time calibration sample Algorithm
// 1's ranking step turns into a cluster job's initial dispatch weights.
func benchmark() float64 {
	start := time.Now()
	Spin(benchSpin)
	return benchSpin / time.Since(start).Seconds()
}

// Spin busy-loops n iterations. It is THE spin kernel: the worker
// benchmark, the remote execution of spin work, the service's local task
// closures, and the calibration probes must all run this exact loop, or
// cluster weights stop being comparable with local calibration.
func Spin(n int64) {
	x := 1.0
	for i := int64(0); i < n; i++ {
		x += x * 1e-9
	}
	_ = x
}

// idleSleepers holds the stop-less sleepers ExecWork borrows, so a local
// sleep task re-arms a timer instead of opening one. A sleeper the pool
// drops at a GC is never closed: its timer's *os.File finalizer releases
// it.
var idleSleepers = sync.Pool{New: func() any { return new(sleeper) }}

// ExecWork performs one wire task's computation and returns the measured
// execution time. On Linux its sleep wakes like I/O completing (see
// sleeper): within tens of µs of the declared time, never before it.
func ExecWork(w Work) time.Duration {
	start := time.Now()
	var s *sleeper // only sleep work borrows one: spin-only tasks skip the pool
	if w.SleepUS > 0 {
		s = idleSleepers.Get().(*sleeper)
	}
	execWork(w, s)
	if s != nil {
		idleSleepers.Put(s)
	}
	return time.Since(start)
}

// execWork is ExecWork's computation, sleeping on s (which spin-only work
// never touches); it reports false when s's stop cut the sleep short.
func execWork(w Work, s *sleeper) bool {
	if w.SleepUS > 0 && !s.sleep(time.Duration(w.SleepUS)*time.Microsecond) {
		return false
	}
	if w.Spin > 0 {
		Spin(w.Spin)
	}
	return true
}

// registerWindow is how long StartWorker retries registration, so worker
// and coordinator processes can start in any order. Each attempt is
// bounded too (a binary register waits registerRTT), so a port that
// accepts connections but is no coordinator fails StartWorker within a
// few seconds.
const registerWindow = 5 * time.Second

// StartWorker benchmarks, registers, and starts the heartbeat and executor
// loops. It returns once registration succeeds; a coordinator that is not
// up yet is retried for registerWindow.
func StartWorker(cfg WorkerConfig) (*Worker, error) {
	if math.IsNaN(cfg.DegradeFactor) || math.IsInf(cfg.DegradeFactor, 0) {
		return nil, fmt.Errorf("cluster: degrade factor must be finite, got %g", cfg.DegradeFactor)
	}
	cfg = cfg.withDefaults()
	tr, err := NewTransport(cfg.Transport, cfg.Coordinator, cfg.Client)
	if err != nil {
		return nil, err
	}
	w := &Worker{
		cfg:       cfg,
		log:       cfg.Logger,
		speed:     benchmark(),
		tr:        tr,
		start:     time.Now(),
		stop:      make(chan struct{}),
		heartbeat: make(chan time.Duration, 1),
	}
	w.hLeaseRTT = cfg.Registry.Histogram("worker_lease_rtt_seconds", metrics.DefDurationBuckets)
	w.hExecWait = cfg.Registry.Histogram("worker_executor_wait_seconds", metrics.DefDurationBuckets)
	w.mExecuted = cfg.Registry.Counter("worker_tasks_executed_total")
	w.mLeases = cfg.Registry.Counter("worker_leases_total")
	w.mLeasesAhead = cfg.Registry.Counter("worker_leases_ahead_total")
	for giveUp := time.Now().Add(registerWindow); ; {
		err = w.register()
		if err == nil {
			break
		}
		if time.Now().After(giveUp) {
			tr.Close()
			return nil, err
		}
		time.Sleep(250 * time.Millisecond)
	}
	w.log.Info("worker registered",
		"node", cfg.ID, "coordinator", cfg.Coordinator, "speed_ops", w.speed,
		"capacity", cfg.Capacity, "transport", tr.Name())
	w.wg.Add(1)
	go w.heartbeatLoop()
	for i := 0; i < cfg.Capacity; i++ {
		ahead := &aheadLease{issue: make(chan struct{}, 1), done: make(chan struct{}, 1)}
		w.wg.Add(2)
		go w.executorLoop(ahead)
		go w.leaseLoop(ahead)
	}
	return w, nil
}

// ID returns the node id this worker registered under.
func (w *Worker) ID() string { return w.cfg.ID }

// SpeedOPS returns the benchmark-derived speed reported at registration.
func (w *Worker) SpeedOPS() float64 { return w.speed }

// TransportName reports the wire binding the worker speaks.
func (w *Worker) TransportName() string { return w.tr.Name() }

// Stop leaves the cluster gracefully (outstanding work fails over
// immediately rather than waiting for the dead-after bound) and waits for
// the loops to exit.
func (w *Worker) Stop() {
	// The whole teardown lives inside the Once: a concurrent second Stop
	// blocks until the first finishes instead of double-closing channels.
	w.stopOnce.Do(func() {
		close(w.stop)
		w.tr.Leave(LeaveRequest{ID: w.cfg.ID, Gen: w.gen.Load()})
		w.wg.Wait()
		w.tr.Close()
	})
}

// register (re-)registers and installs the fresh generation and the
// coordinator-advertised heartbeat interval.
func (w *Worker) register() error {
	resp, err := w.tr.Register(RegisterRequest{
		ID:         w.cfg.ID,
		Capacity:   w.cfg.Capacity,
		SpeedOPS:   w.speed,
		Transports: []string{w.tr.Name()},
	})
	if err != nil {
		return fmt.Errorf("cluster: register %s with %s: %w", w.cfg.ID, w.cfg.Coordinator, err)
	}
	w.gen.Store(resp.Gen)
	hb := time.Duration(resp.HeartbeatMS) * time.Millisecond
	if hb <= 0 {
		hb = time.Second
	}
	select {
	case <-w.heartbeat: // unread by the loop: hb replaces it
	default:
	}
	w.heartbeat <- hb // never blocks: no two registers overlap
	return nil
}

// reRegister refreshes a superseded registration, but only once per stale
// generation — concurrent executors and the heartbeat loop all observing
// ErrGone must not stampede: after a coordinator restart their backoffs
// end together, and a generation checked outside w.reg would let each of
// them register, the node superseding itself. A stopping worker never
// re-registers: its loops observe ErrGone from their own Leave, and
// re-admitting the node would leave a live ghost with no executors
// behind it.
func (w *Worker) reRegister(staleGen int64) {
	select {
	case <-w.stop:
		return
	default:
	}
	w.reg.Lock()
	if w.gen.Load() != staleGen {
		w.reg.Unlock()
		return // someone else already re-registered
	}
	err := w.register()
	w.reg.Unlock()
	if err != nil {
		w.log.Warn("re-register failed", "node", w.cfg.ID, "err", err)
		sleepOrStop(500*time.Millisecond, w.stop)
		return
	}
	w.log.Info("worker re-registered", "node", w.cfg.ID, "gen", w.gen.Load())
}

// heartbeatLoop keeps the registration alive, beating at the interval
// the latest register reply advertised.
func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	t := time.NewTicker(<-w.heartbeat)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case every := <-w.heartbeat:
			t.Reset(every)
			continue
		case <-t.C:
		}
		gen := w.gen.Load()
		err := w.tr.Heartbeat(HeartbeatRequest{ID: w.cfg.ID, Gen: gen})
		if errors.Is(err, ErrGone) {
			w.reRegister(gen)
		}
	}
}

// executorLoop leases and executes until stopped, reusing two task scratch
// slices, two result buffers and one sleeper across leases; the leases it
// issues ahead go through its own leaseLoop, on ahead. The coordinator
// sizes a lease to at most resultHold of estimated work, or one task, so
// the results of the lease just run are held and sent with the next lease
// request. When the last task of the lease in hand is expected to run from
// resultHold up to leaseAheadMax, that request goes out as the task begins
// — an ordinary lease, same Max, same capacity share — so the lease round
// trip overlaps the task; leasing at the lease's start instead would take
// a second share while the first is still queued behind it. If the ahead
// lease is still parked when the task ends, the executor, idle anyway,
// posts the held results itself and then waits. A transport error keeps
// the results a request carried for the resend — the coordinator's
// dispatch-id dedupe makes that idempotent, as it does post's retry — and
// ErrGone, a new generation or Stop drops them, with any tasks leased
// ahead: the coordinator has already failed that work over.
func (w *Worker) executorLoop(ahead *aheadLease) {
	defer w.wg.Done()
	var (
		scratch []WireTask   // the lease in hand
		held    []WireResult // finished, not yet sent
		gen     int64        // the lease in hand and the held results belong to gen
		timer   = sleeper{stop: w.stop}
	)
	defer timer.close()
	for {
		select {
		case <-w.stop:
			return
		default:
		}
		if len(scratch) == 0 {
			if g := w.gen.Load(); g != gen {
				held = held[:0]
				gen = g
			}
			waitStart := time.Now()
			var err error
			scratch, err = w.lease(gen, held, scratch[:0])
			if errors.Is(err, ErrGone) {
				held = held[:0]
				w.reRegister(gen)
				continue
			}
			if err != nil {
				sleepOrStop(200*time.Millisecond, w.stop)
				continue
			}
			held = held[:0]
			if len(scratch) == 0 {
				continue // long-poll timeout
			}
			w.hExecWait.ObserveDuration(time.Since(waitStart))
		}
		w.mLeases.Inc()
		leasedAhead := false
		for i := range scratch {
			t := &scratch[i]
			if est := estimate(t.Work, w.speed); i == len(scratch)-1 && est >= resultHold && est < leaseAheadMax {
				ahead.gen = gen
				ahead.results, held = held, ahead.results[:0]
				ahead.issue <- struct{}{}
				w.mLeasesAhead.Inc()
				leasedAhead = true
			}
			// One clock over execution and penalty: the node reports what
			// the task took. Sleep-only work sleeps both as one timer, as a
			// second wake would add its own scheduling delay under load.
			start := time.Now()
			work, factor := t.Work, w.degradeFactor()
			if factor > 1 && work.Spin == 0 {
				work.SleepUS, factor = int64(float64(work.SleepUS)*factor), 1
			}
			if !execWork(work, &timer) {
				return
			}
			if factor > 1 && !timer.sleep(time.Duration(float64(time.Since(start))*(factor-1))) {
				return
			}
			d := time.Since(start)
			w.mExecuted.Inc()
			held = append(held, WireResult{Dispatch: t.Dispatch, Task: t.Task, Micros: d.Microseconds()})
		}
		if !leasedAhead {
			scratch = scratch[:0]
			continue
		}
		waitStart := time.Now()
		select {
		case <-ahead.done:
		default:
			w.post(gen, held)
			held = held[:0]
			select {
			case <-ahead.done:
			case <-w.stop:
				return
			}
		}
		switch {
		case errors.Is(ahead.err, ErrGone):
			held = held[:0]
			w.reRegister(gen)
			scratch = scratch[:0]
		case ahead.err != nil:
			// Undelivered: the carried results go back in front of the
			// held ones, for the resend.
			ahead.results, held = held[:0], append(ahead.results, held...)
			sleepOrStop(200*time.Millisecond, w.stop)
			scratch = scratch[:0]
		case w.gen.Load() != gen:
			// Leased under a superseded registration: already failed over.
			scratch = scratch[:0]
		default:
			scratch, ahead.tasks = ahead.tasks, scratch
			if len(scratch) > 0 {
				w.hExecWait.ObserveDuration(time.Since(waitStart))
			}
		}
	}
}

// leaseLoop is one executor's leaser: it runs the leases the executor
// issues ahead on a, one at a time, until the worker stops.
func (w *Worker) leaseLoop(a *aheadLease) {
	defer w.wg.Done()
	for {
		select {
		case <-w.stop:
			return
		case <-a.issue:
		}
		a.tasks, a.err = w.lease(a.gen, a.results, a.tasks[:0])
		a.done <- struct{}{}
	}
}

// lease sends one lease request carrying results under gen, appending the
// leased batch onto scratch.
func (w *Worker) lease(gen int64, results []WireResult, scratch []WireTask) ([]WireTask, error) {
	start := time.Now()
	tasks, err := w.tr.Lease(LeaseRequest{
		ID:      w.cfg.ID,
		Gen:     gen,
		Max:     w.cfg.Batch,
		WaitMS:  leaseWait.Milliseconds(),
		Results: results,
	}, scratch)
	// The lease RTT includes the coordinator-side long-poll wait: this
	// histogram is the worker's view of how long fetching work takes,
	// not just the wire time.
	w.hLeaseRTT.ObserveDuration(time.Since(start))
	return tasks, err
}

// post delivers results held under gen, retrying transport
// errors for as long as the worker is alive. Giving up earlier would strand
// the dispatches in flight on a node the coordinator still believes live —
// redelivery only triggers on node death, and a blip shorter than the
// dead-after bound never kills the node. On ErrGone or Stop the results
// are abandoned: the coordinator has already reassigned the work, and
// posting under a new generation would only be deduped anyway.
func (w *Worker) post(gen int64, results []WireResult) {
	for attempt := 0; ; attempt++ {
		err := w.tr.Results(ResultsRequest{ID: w.cfg.ID, Gen: gen, Results: results})
		if err == nil || errors.Is(err, ErrGone) {
			return
		}
		w.log.Warn("post results failed; retrying",
			"node", w.cfg.ID, "batch", len(results), "err", err)
		backoff := time.Duration(attempt+1) * 100 * time.Millisecond
		if backoff > time.Second {
			backoff = time.Second
		}
		if !sleepOrStop(backoff, w.stop) {
			return
		}
	}
}

// degradeFactor returns what a task's natural duration is multiplied by:
// DegradeFactor once the scripted DegradeAfter instant has passed, 1
// before it or when no degradation is configured.
func (w *Worker) degradeFactor() float64 {
	if w.cfg.DegradeAfter <= 0 || w.cfg.DegradeFactor <= 1 || time.Since(w.start) < w.cfg.DegradeAfter {
		return 1
	}
	return w.cfg.DegradeFactor
}

// sleepOrStop pauses for d on the runtime's timer, reporting false when
// stop closes first (a nil stop never does). Backoffs use it directly —
// they need no precision — and a sleeper falls back to it.
func sleepOrStop(d time.Duration, stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	case <-time.After(d):
		return true
	}
}
