package cluster

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"time"

	"grasp/internal/metrics"
	"grasp/internal/trace"
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
	// lease cap.
	Batch int
	// BenchSpin is the startup benchmark's iteration count; the measured
	// speed registers as this node's calibration sample (default 2e6).
	BenchSpin int64
	// Heartbeat overrides the coordinator-advertised heartbeat interval.
	Heartbeat time.Duration
	// LeaseWait is the long-poll bound requested per lease (default 2s).
	LeaseWait time.Duration
	// Transport selects the wire binding to offer at registration:
	// TransportJSON, TransportBinary, or TransportAuto (default auto —
	// offer binary first, fall back to JSON). The coordinator picks from
	// the offer; registration itself always bootstraps over JSON, so a
	// worker preferring binary still joins a JSON-only coordinator.
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
	// (default 3 when DegradeAfter is set; values ≤ 1 disable the
	// slowdown).
	DegradeFactor float64
}

// workerTraceCap bounds the worker's execution trace ring.
const workerTraceCap = 2048

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "node"
		}
		c.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if c.Capacity < 1 {
		c.Capacity = 2
	}
	if c.Batch < 0 {
		c.Batch = 0
	}
	if c.BenchSpin <= 0 {
		c.BenchSpin = 2_000_000
	}
	if c.LeaseWait <= 0 {
		c.LeaseWait = 2 * time.Second
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
	if c.DegradeAfter > 0 && c.DegradeFactor <= 1 {
		c.DegradeFactor = 3
	}
	return c
}

// transportOffer maps the configured preference onto the register-time
// offer list, most preferred first.
func transportOffer(pref string) []string {
	switch pref {
	case TransportJSON:
		return []string{TransportJSON}
	case TransportBinary:
		return []string{TransportBinary}
	}
	return []string{TransportBinary, TransportJSON}
}

// maxResultsFlush caps one results frame; a flood of completions splits
// into successive posts instead of one unbounded frame.
const maxResultsFlush = 256

// resultHold bounds how long an executor sits on finished results while
// its lease still has tasks to run. A lease that runs shorter than this
// returns whole, on the next lease request; in a longer one each result
// goes to the flusher before a task that would keep it waiting past the
// bound begins, so long tasks still stream one by one.
const resultHold = time.Millisecond

// leaseAheadMax bounds the tasks an executor leases ahead of: from resultHold
// up to it, the last task of a lease runs while the next lease makes its
// round trip. Above it the round trip is under 0.02 % of the task, and
// leasing ahead would only start the next task's LeaseTTL clock early.
const leaseAheadMax = time.Second

// aheadLease is the lease an executor issues ahead of its lease's last
// task, handed between the executor and its leaser goroutine: the executor
// fills the request half and signals issue; the leaser fills the response
// half and signals done. Each side touches it only between those signals.
type aheadLease struct {
	gen     int64
	tr      Transport
	results []WireResult // the executor's held results, carried by the request
	tasks   []WireTask
	err     error
	issue   chan struct{}
	done    chan struct{} // buffered: the leaser never waits on a stopped executor
}

// genResult is one completed execution tagged with the generation it was
// leased under, queued for the result flusher.
type genResult struct {
	gen int64
	res WireResult
}

// Worker is a running worker-node: registered with its coordinator,
// heartbeating, and executing leased tasks on Capacity concurrent
// executors. An executor answers a short lease as a unit: the results of
// the lease it just ran ride its next lease request, one frame out and one
// back per chunk. When a lease's last task runs from resultHold up to
// leaseAheadMax, the next lease goes out as that task begins, so the next
// task is on the node when this one ends. A lease that outlasts resultHold
// otherwise hands results to the single flusher, which coalesces them into
// batched result posts. Create one with StartWorker; Stop leaves
// gracefully.
type Worker struct {
	cfg    WorkerConfig
	log    *slog.Logger
	speed  float64
	offers []string
	boot   Transport // JSON binding; registration always bootstraps here
	bin    Transport // binary binding, created on first negotiation

	// Observability: lease round-trip distribution (the worker-side view
	// of dispatch latency — long-poll waits included), how long executors
	// sat without a task on a lease that then delivered one, and a bounded
	// trace of leased and executed tasks, stamped relative to start.
	start        time.Time
	hLeaseRTT    *metrics.Histogram
	hExecWait    *metrics.Histogram
	tr           *trace.Log
	mExecuted    *metrics.Counter
	mLeases      *metrics.Counter
	mLeasesAhead *metrics.Counter

	mu     sync.Mutex
	gen    int64
	active Transport // the negotiated binding for lease/results/heartbeat

	results  chan genResult
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup // executors, their leasers + heartbeat
	flushWG  sync.WaitGroup // result flusher
}

// Benchmark measures this process's spin speed in iterations/second — the
// register-time calibration sample Algorithm 1's ranking step turns into a
// cluster job's initial dispatch weights.
func Benchmark(spin int64) float64 {
	start := time.Now()
	Spin(spin)
	secs := time.Since(start).Seconds()
	if secs <= 0 {
		return float64(spin) * 1e9
	}
	return float64(spin) / secs
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

// StartWorker benchmarks, registers, and starts the heartbeat, executor,
// and result-flusher loops. It returns once registration succeeds; a
// coordinator that is not up yet is retried for a few seconds so worker
// and coordinator processes can start in any order.
func StartWorker(cfg WorkerConfig) (*Worker, error) {
	cfg = cfg.withDefaults()
	w := &Worker{
		cfg:     cfg,
		log:     cfg.Logger,
		speed:   Benchmark(cfg.BenchSpin),
		offers:  transportOffer(cfg.Transport),
		boot:    NewJSONTransport(cfg.Coordinator, cfg.Client),
		start:   time.Now(),
		tr:      trace.NewBounded(workerTraceCap),
		results: make(chan genResult, 4*maxResultsFlush),
		stop:    make(chan struct{}),
	}
	w.hLeaseRTT = cfg.Registry.Histogram("worker_lease_rtt_seconds", metrics.DefDurationBuckets)
	w.hExecWait = cfg.Registry.Histogram("worker_executor_wait_seconds", metrics.DefDurationBuckets)
	w.mExecuted = cfg.Registry.Counter("worker_tasks_executed_total")
	w.mLeases = cfg.Registry.Counter("worker_leases_total")
	w.mLeasesAhead = cfg.Registry.Counter("worker_leases_ahead_total")
	var hb time.Duration
	var err error
	for attempt := 0; ; attempt++ {
		hb, err = w.register()
		if err == nil {
			break
		}
		if attempt >= 20 {
			return nil, err
		}
		time.Sleep(250 * time.Millisecond)
	}
	if cfg.Heartbeat <= 0 {
		w.cfg.Heartbeat = hb
	}
	w.log.Info("worker registered",
		"node", cfg.ID, "coordinator", cfg.Coordinator, "speed_ops", w.speed,
		"capacity", cfg.Capacity, "transport", w.TransportName())
	w.flushWG.Add(1)
	go w.flushLoop()
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

// Metrics exposes the worker's operational metrics, including the lease
// round-trip histogram.
func (w *Worker) Metrics() *metrics.Registry { return w.cfg.Registry }

// Trace exposes the worker's bounded execution trace: a dispatch event
// per task leased, a complete event per task executed.
func (w *Worker) Trace() *trace.Log { return w.tr }

// SpeedOPS returns the benchmark-derived speed reported at registration.
func (w *Worker) SpeedOPS() float64 { return w.speed }

// TransportName reports the currently negotiated wire binding.
func (w *Worker) TransportName() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.active.Name()
}

// Stop leaves the cluster gracefully (outstanding work fails over
// immediately rather than waiting for the dead-after bound) and waits for
// the loops to exit.
func (w *Worker) Stop() {
	// The whole teardown lives inside the Once: a concurrent second Stop
	// blocks until the first finishes instead of double-closing channels.
	w.stopOnce.Do(func() {
		close(w.stop)
		gen, tr := w.session()
		tr.Leave(LeaveRequest{ID: w.cfg.ID, Gen: gen})
		w.wg.Wait()
		close(w.results)
		w.flushWG.Wait()
		w.boot.Close()
		if w.bin != nil {
			w.bin.Close()
		}
	})
}

// session reads the current generation and its negotiated transport
// together, so a verb never pairs a fresh gen with a stale binding.
func (w *Worker) session() (int64, Transport) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gen, w.active
}

// register (re-)registers over the JSON bootstrap binding, installs the
// fresh generation, and binds the coordinator's transport pick. It
// returns the coordinator-advertised heartbeat interval.
func (w *Worker) register() (time.Duration, error) {
	resp, err := w.boot.Register(RegisterRequest{
		ID:         w.cfg.ID,
		Capacity:   w.cfg.Capacity,
		SpeedOPS:   w.speed,
		Transports: w.offers,
	})
	if err != nil {
		return 0, fmt.Errorf("cluster: register %s with %s: %w", w.cfg.ID, w.cfg.Coordinator, err)
	}
	active := w.boot
	if resp.Transport == TransportBinary {
		if w.bin == nil {
			bin, berr := NewBinaryTransport(w.cfg.Coordinator)
			if berr != nil {
				w.log.Warn("binary transport unavailable; staying on json",
					"node", w.cfg.ID, "err", berr)
			} else {
				w.bin = bin
			}
		}
		if w.bin != nil {
			active = w.bin
		}
	}
	w.mu.Lock()
	w.gen = resp.Gen
	w.active = active
	w.mu.Unlock()
	hb := time.Duration(resp.HeartbeatMS) * time.Millisecond
	if hb <= 0 {
		hb = time.Second
	}
	return hb, nil
}

// reRegister refreshes a superseded registration, but only once per stale
// generation — concurrent executors and the heartbeat loop all observing
// ErrGone must not stampede. A stopping worker never re-registers: its
// loops observe ErrGone from their own Leave, and re-admitting the node
// would leave a live ghost with no executors behind it.
func (w *Worker) reRegister(staleGen int64) {
	select {
	case <-w.stop:
		return
	default:
	}
	w.mu.Lock()
	current := w.gen
	w.mu.Unlock()
	if current != staleGen {
		return // someone else already re-registered
	}
	if _, err := w.register(); err != nil {
		w.log.Warn("re-register failed", "node", w.cfg.ID, "err", err)
		sleepOrStop(500*time.Millisecond, w.stop)
		return
	}
	w.log.Info("worker re-registered", "node", w.cfg.ID, "transport", w.TransportName())
}

// heartbeatLoop keeps the registration alive.
func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	t := time.NewTicker(w.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
		}
		gen, tr := w.session()
		err := tr.Heartbeat(HeartbeatRequest{ID: w.cfg.ID, Gen: gen})
		if errors.Is(err, ErrGone) {
			w.reRegister(gen)
		}
	}
}

// executorLoop leases and executes until stopped, reusing two task scratch
// slices, two result buffers and one sleeper across leases; the leases it
// issues ahead go through its own leaseLoop, on ahead. The results of
// the lease just run are held and sent with the next lease request. When
// the last task of the lease in hand is expected to run from resultHold up
// to leaseAheadMax, that request goes out as the task begins — an ordinary
// lease, same Max, same capacity share — so the lease round trip overlaps
// the task; leasing at the lease's start instead would take a second share
// while the first is still queued behind it. If the ahead lease is still
// parked when the task ends, the held results go to the flusher, as a long
// lease's do, and the executor waits. A transport error keeps the results
// a request carried for the resend — the coordinator's dispatch-id dedupe
// makes that idempotent, as it does postResults' retry — and ErrGone, a
// new generation or Stop drops them, with any tasks leased ahead: the
// coordinator has already failed that work over.
func (w *Worker) executorLoop(ahead *aheadLease) {
	defer w.wg.Done()
	var (
		scratch   []WireTask   // the lease in hand
		held      []WireResult // finished, not yet sent
		heldSince time.Duration
		gen       int64 // the lease in hand and the held results belong to gen
		tr        Transport
		timer     = sleeper{stop: w.stop}
	)
	defer timer.close()
	for {
		select {
		case <-w.stop:
			return
		default:
		}
		if len(scratch) == 0 {
			g, t := w.session()
			if g != gen {
				held = held[:0]
			}
			gen, tr = g, t
			waitStart := time.Now()
			var err error
			scratch, err = w.lease(tr, gen, held, scratch[:0])
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
			began := time.Since(w.start)
			est := w.estimate(t.Work)
			if i == len(scratch)-1 && est >= resultHold && est < leaseAheadMax {
				ahead.gen, ahead.tr = gen, tr
				ahead.results, held = held, ahead.results[:0]
				ahead.issue <- struct{}{}
				w.mLeasesAhead.Inc()
				leasedAhead = true
			} else if len(held) > 0 && began-heldSince+est >= resultHold {
				if !w.flush(gen, held) {
					return
				}
				held = held[:0]
			}
			if len(held) == 0 {
				heldSince = began // when the oldest held result's task began
			}
			w.tr.Append(trace.Event{
				At: began, Kind: trace.KindDispatch,
				Node: w.cfg.ID, Task: t.Task,
			})
			// One clock over execution and penalty: the node reports what
			// the task took, not what the penalty meant to add.
			start := time.Now()
			if !execWork(t.Work, &timer) {
				return
			}
			if extra := w.degradePenalty(time.Since(start)); extra > 0 && !timer.sleep(extra) {
				return
			}
			d := time.Since(start)
			w.mExecuted.Inc()
			w.tr.Append(trace.Event{
				At: time.Since(w.start), Kind: trace.KindComplete,
				Node: w.cfg.ID, Task: t.Task, Dur: d,
			})
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
			if !w.flush(gen, held) {
				return
			}
			held = held[:0]
			select {
			case <-ahead.done:
			case <-w.stop:
				return
			}
		}
		current, _ := w.session()
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
		case current != gen:
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
		a.tasks, a.err = w.lease(a.tr, a.gen, a.results, a.tasks[:0])
		a.done <- struct{}{}
	}
}

// lease sends one lease request carrying results under gen, appending the
// leased batch onto scratch.
func (w *Worker) lease(tr Transport, gen int64, results []WireResult, scratch []WireTask) ([]WireTask, error) {
	start := time.Now()
	tasks, err := tr.Lease(LeaseRequest{
		ID:      w.cfg.ID,
		Gen:     gen,
		Max:     w.cfg.Batch,
		WaitMS:  w.cfg.LeaseWait.Milliseconds(),
		Results: results,
	}, scratch)
	// The lease RTT includes the coordinator-side long-poll wait: this
	// histogram is the worker's view of how long fetching work takes,
	// not just the wire time.
	w.hLeaseRTT.ObserveDuration(time.Since(start))
	return tasks, err
}

// estimate is how long the healthy node expects work to take: its declared
// sleep plus its spin at the benchmarked speed. A scripted degradation is
// deliberately not in it — the node does not know it is failing.
func (w *Worker) estimate(work Work) time.Duration {
	return time.Duration(work.SleepUS)*time.Microsecond +
		time.Duration(float64(work.Spin)/w.speed*float64(time.Second))
}

// flush hands results to the flusher, reporting false when the worker is
// stopping instead: the leave posted by Stop already failed these
// dispatches over, and a late post would only be deduped.
func (w *Worker) flush(gen int64, results []WireResult) bool {
	for _, res := range results {
		select {
		case w.results <- genResult{gen: gen, res: res}:
		case <-w.stop:
			return false
		}
	}
	return true
}

// flushLoop is the posting path of leases that run long: it coalesces the
// completions executors hand it into batched results posts. The loop is
// self-clocking — the first completion posts immediately, and everything
// handed over during that post's round trip becomes the next batch — so
// batching adds no latency and grows with load. Batches stay well under
// LeaseTTL: a completion is never held longer than resultHold plus one
// post round trip.
func (w *Worker) flushLoop() {
	defer w.flushWG.Done()
	batch := make([]WireResult, 0, maxResultsFlush)
	for first := range w.results {
		gen := first.gen
		batch = append(batch[:0], first.res)
	drain:
		for len(batch) < maxResultsFlush {
			select {
			case gr, ok := <-w.results:
				if !ok {
					break drain
				}
				if gr.gen != gen {
					// Generation boundary: flush what we have, then start the
					// new registration's batch.
					w.postResults(gen, batch)
					gen = gr.gen
					batch = batch[:0]
				}
				batch = append(batch, gr.res)
			default:
				break drain
			}
		}
		w.postResults(gen, batch)
	}
}

// postResults delivers a result batch, retrying transport errors for as
// long as the worker is alive. Giving up earlier would strand the
// dispatches in flight on a node the coordinator still believes live —
// redelivery only triggers on node death, and a blip shorter than the
// dead-after bound never kills the node. On ErrGone the batch is
// abandoned: the coordinator has already reassigned the work, and posting
// under a new generation would only be deduped anyway.
func (w *Worker) postResults(gen int64, results []WireResult) {
	if len(results) == 0 {
		return
	}
	_, tr := w.session()
	for attempt := 0; ; attempt++ {
		err := tr.Results(ResultsRequest{ID: w.cfg.ID, Gen: gen, Results: results})
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

// degradePenalty returns the extra time a task of natural duration d must
// take once the scripted DegradeAfter instant has passed (0 before it, or
// when no degradation is configured).
func (w *Worker) degradePenalty(d time.Duration) time.Duration {
	if w.cfg.DegradeAfter <= 0 || w.cfg.DegradeFactor <= 1 {
		return 0
	}
	if time.Since(w.start) < w.cfg.DegradeAfter {
		return 0
	}
	return time.Duration(float64(d) * (w.cfg.DegradeFactor - 1))
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
