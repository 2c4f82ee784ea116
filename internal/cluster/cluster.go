// Package cluster is the distributed worker-node subsystem: a coordinator
// that dispatches skeleton tasks to remote worker processes over HTTP, and
// the worker runtime those processes run. It is the layer that turns the
// adaptive engine's "grid of heterogeneous, unreliable nodes" from a
// simulation into real processes while leaving the adaptive machinery
// unchanged:
//
//   - workers register with an id, a concurrency capacity, and a
//     benchmark-derived speed — the register-time calibration sample a
//     cluster job's initial dispatch weights are ranked from (Algorithm 1's
//     ranking step over reported benchmarks instead of fresh probes);
//   - a Pool projects a snapshot of live nodes as a platform.Platform, so
//     remote nodes appear to skel/engine exactly like grid workers. A farm
//     chunk or dmap block is queued on its node as one dispatch group (a
//     lone Exec is the group of one) that a worker drains in one lease
//     frame and answers in its next lease request, so the granularity
//     Algorithm 1 calibrates is what amortises the wire — one round trip
//     per chunk; outcomes are emitted one by one, and the Result.Time the
//     job's Detector monitors (Algorithm 2) is the node-measured execution
//     time plus a per-task share of queueing and wire time — the node's
//     speed, not the task's place in its chunk (see Pool);
//   - a lease takes the node's capacity share of what is queued, so the
//     executors of one node split a chunk; the worker's -batch flag only
//     caps that;
//   - missed heartbeats retire nodes: every queued or in-flight dispatch of
//     a dead node fails with ErrNodeLost, which surfaces through the
//     engine's Faults path — the skeleton re-queues the task onto a live
//     node (at-least-once redelivery) and retires the dead worker index;
//   - each delivery carries a fresh dispatch id, so a late result from a
//     node that was declared dead (or from a superseded registration) is
//     recognised and dropped — redelivery never produces duplicate results;
//   - membership is observable: Subscribe streams node up/down events, the
//     Pool is growable (Admit appends a late-registering node's execution
//     slots), and the service layer feeds both into running jobs' engine
//     memberships — a node that joins mid-stream starts executing tasks
//     for jobs submitted before it existed, making join symmetric with
//     the node-loss path;
//   - the wire has two bindings behind one Transport interface, served on
//     one port by Server (first-byte sniffing): JSON over HTTP — the
//     universal bootstrap every worker registers through — and
//     length-prefixed CRC-checked binary frames over persistent
//     connections, whose batched lease/results bodies decode into reused
//     buffers so the steady-state dispatch path allocates nothing per
//     task. Workers offer their bindings at register time and the
//     coordinator picks, so a fleet can mix transports mid-upgrade. On
//     both, LeaseRequest.Results carries a lease's finished executions
//     back with the request for the next one; a lease that outlasts the
//     worker's resultHold streams them instead, so long tasks still report
//     one by one. When a lease's last task runs from 1 ms to 1 s, the
//     worker leases ahead as that task begins, so the next task is on the
//     node before this one ends, and the results held so far ride that
//     request; otherwise they go through its flusher's batched results
//     posts.
//
// The coordinator is transport-level only: it never decides which node
// runs a task. Placement stays with the skeletons' adaptive dispatch
// (weights, demand, remapping), which is the point of the exercise.
package cluster

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"grasp/internal/metrics"
	"grasp/internal/platform"
	"grasp/internal/trace"
)

// Sentinel errors.
var (
	// ErrGone reports a request for a node that is unknown, superseded by a
	// newer registration, or no longer live. Workers react by
	// re-registering.
	ErrGone = errors.New("cluster: node unknown, superseded, or not live")
	// ErrNodeLost marks an execution lost to node death or eviction; it is
	// the cluster analogue of grid.ErrNodeFailed and travels in
	// platform.Result.Err so the engine's failure path re-queues the task.
	ErrNodeLost = errors.New("cluster: node lost before delivering the result")
)

// Node states.
const (
	StateLive = "live"
	StateDead = "dead"
	StateLeft = "left"
)

// Config parameterises a Coordinator.
type Config struct {
	// DeadAfter is how long a node may stay silent (no lease, result, or
	// heartbeat traffic) before it is declared dead and its outstanding
	// work reassigned (default 3s).
	DeadAfter time.Duration
	// SweepEvery is the death-sweep period (default DeadAfter/4).
	SweepEvery time.Duration
	// MaxLeaseWait bounds a lease long-poll (default 5s).
	MaxLeaseWait time.Duration
	// LeaseTTL bounds how long a leased execution may stay unresolved on a
	// live node before the sweeper requeues it for redelivery — the guard
	// against a lease response lost in transit, which would otherwise
	// strand the dispatch forever (the node keeps heartbeating, so death
	// never fires). It must exceed the longest legitimate execution plus
	// the under 1 s a task may wait on its node behind the task it was
	// leased ahead of (default 90s, above the service layer's 60s per-task
	// sleep cap); a lease of several tasks runs in order on one executor,
	// so the i-th task's TTL counts from i TTLs after the lease. A late
	// result from the original delivery is deduplicated as usual.
	LeaseTTL time.Duration
	// DeadRetention is how long dead/left registrations stay listed for
	// inspection before being pruned, with their per-node metric series
	// (default 20×DeadAfter). Worker ids default to <host>-<pid>, so a
	// churning fleet mints new ids forever; without pruning the registry
	// grows without bound.
	DeadRetention time.Duration
	// Registry receives the cluster's operational metrics (default: a
	// fresh registry).
	Registry *metrics.Registry
	// Logger receives membership and lifecycle events as structured
	// records carrying node/gen/transport fields (default: discard).
	Logger *slog.Logger
}

const (
	// maxBatch bounds the tasks one lease hands out, whatever the worker
	// asks for.
	maxBatch = 64
	// traceCap bounds the coordinator's dispatch trace ring; the ring
	// overwrites its oldest events once full.
	traceCap = 4096
)

func (c Config) withDefaults() Config {
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3 * time.Second
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = c.DeadAfter / 4
	}
	if c.MaxLeaseWait <= 0 {
		c.MaxLeaseWait = 5 * time.Second
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 90 * time.Second
	}
	if c.DeadRetention <= 0 {
		c.DeadRetention = 20 * c.DeadAfter
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// dispatchOutcome resolves one submitted execution; idx is its position in
// the chunk it was submitted with.
type dispatchOutcome struct {
	idx    int
	micros int64
	err    error
}

// dispatch is one queued or in-flight execution on a specific node.
type dispatch struct {
	id   int64
	task int
	work Work
	idx  int
	sink chan<- dispatchOutcome // its chunk's sink; resolved exactly once
	// leasedAt is when the dispatch's turn on its executor began at the
	// latest; the sweeper requeues it LeaseTTL later in case the lease
	// response never arrived.
	leasedAt time.Time
}

// dispatchPool recycles dispatch structs across executions — half of the
// zero-allocation dispatch path, next to chunkPool and the codec's pooled
// frame buffers.
var dispatchPool = sync.Pool{New: func() any { return new(dispatch) }}

// recycle returns a dispatch nothing references any more to the pool.
func (d *dispatch) recycle() {
	d.work, d.sink = Work{}, nil
	dispatchPool.Put(d)
}

// resolve delivers the dispatch's single outcome and recycles it. The
// caller holds co.mu and has just removed d from the node's queue or
// in-flight map — that removal is what makes resolution exactly-once —
// and the send cannot block: a chunk's sink has room for every one of
// its dispatches.
func (d *dispatch) resolve(micros int64, err error) {
	d.sink <- dispatchOutcome{idx: d.idx, micros: micros, err: err}
	d.recycle()
}

// chunk is one dispatch group in flight — a farm chunk, a dmap block, or
// a lone Exec (the group of one): the sink its dispatches resolve onto,
// and the scratch they are assembled in before the node's queue takes
// them. Chunks are pooled, so a steady stream of groups allocates nothing.
type chunk struct {
	sink chan dispatchOutcome // capacity ≥ the group's size
	ds   []*dispatch          // submit scratch; the coordinator's once queued
}

var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// release returns the chunk to the pool. Only the submitter may call it,
// and only after receiving one outcome per task, which leaves the sink
// empty and the chunk safe to reuse as-is.
func (ch *chunk) release() { chunkPool.Put(ch) }

// node is one registration's server-side state. A re-registration under
// the same id replaces the whole entry under a new generation.
type node struct {
	id         string
	gen        int64
	capacity   int
	speed      float64
	state      string
	registered time.Time
	lastSeen   time.Time
	queue      []*dispatch
	inflight   map[int64]*dispatch
	// wake nudges one long-polling lease when work arrives; gone is closed
	// on death/leave so every poller exits immediately.
	wake chan struct{}
	gone chan struct{}
	completed, failed,
	deduped int64
	// Per-node metric handles, resolved once at registration so the lease
	// and results hot paths never build a metric name ("cluster_node_" +
	// LabelSafe(id) + ...) per operation.
	mInflight  *metrics.Gauge
	mCompleted *metrics.Counter
}

// NodeEvent is one membership change: a node registering (EventUp) or
// leaving the live set for any reason — death, eviction, graceful leave,
// or supersession by a re-registration (EventDown). Subscribers use the
// stream to keep running jobs' worker memberships in sync with the
// cluster, making node join symmetric with the node-loss path.
type NodeEvent struct {
	Kind string   // EventUp or EventDown
	Node NodeInfo // the node's state at the event
}

// NodeEvent kinds.
const (
	EventUp   = "up"
	EventDown = "down"
)

// Coordinator owns the node registry and the per-node task queues. It is
// safe for concurrent use; create one with NewCoordinator and Close it to
// stop the death sweeper.
type Coordinator struct {
	cfg   Config
	reg   *metrics.Registry
	log   *slog.Logger
	start time.Time
	// tr is the coordinator's bounded dispatch trace: every dispatch
	// queued and every result accepted lands here, stamped relative to
	// start. A warm ring append allocates nothing, so the trace rides the
	// zero-allocation dispatch path for free.
	tr *trace.Log

	// Distribution handles, resolved once like the counters below:
	// server-side lease wait and results batch depth.
	hLeaseWait *metrics.Histogram
	hBatch     *metrics.Histogram

	// Coordinator-wide metric handles, resolved once in NewCoordinator so
	// the dispatch hot path (submit/Lease/Results) never takes the
	// registry's name-lookup path per operation.
	mRegisters      *metrics.Counter
	mHeartbeats     *metrics.Counter
	mDeaths         *metrics.Counter
	mTasksFailed    *metrics.Counter
	mDispatched     *metrics.Counter
	mLeases         *metrics.Counter
	mLeasesExpired  *metrics.Counter
	mCompleted      *metrics.Counter
	mResultsDropped *metrics.Counter
	mResultsPosts   *metrics.Counter
	mNodesLive      *metrics.Gauge

	mu           sync.Mutex
	nodes        map[string]*node
	nextGen      int64
	nextDispatch int64
	// Durability (see durable.go): persist receives the registry's durable
	// state under co.mu; the ceilings are the journaled bounds under which
	// gens and dispatch ids may be handed out.
	persist         func(RegistryState)
	genCeiling      int64
	dispatchCeiling int64

	watcherMu   sync.Mutex
	watchers    map[int]func(NodeEvent)
	nextWatcher int
	events      chan NodeEvent
	eventsLost  atomic.Bool

	// wanted is per-job advisory demand for extra worker nodes (see
	// SetWanted); the sum is published as the cluster_nodes_wanted gauge.
	wantedMu sync.Mutex
	wanted   map[string]int

	// binaryServed is set by NewServer: the binary binding exists only on
	// the dual-transport listener, so negotiation must never pick it when
	// the coordinator is mounted as a bare HTTP handler.
	binaryServed atomic.Bool

	stop     chan struct{}
	stopOnce sync.Once
}

// NewCoordinator builds a coordinator and starts its death sweeper.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	co := &Coordinator{
		cfg:      cfg,
		reg:      cfg.Registry,
		log:      cfg.Logger,
		start:    time.Now(),
		tr:       trace.NewBounded(traceCap),
		nodes:    make(map[string]*node),
		watchers: make(map[int]func(NodeEvent)),
		events:   make(chan NodeEvent, 1024),
		wanted:   make(map[string]int),
		stop:     make(chan struct{}),
	}
	co.hLeaseWait = co.reg.Histogram("cluster_lease_wait_seconds", metrics.DefDurationBuckets)
	co.hBatch = co.reg.Histogram("cluster_results_batch_size", metrics.BatchBuckets)
	co.mRegisters = co.reg.Counter("cluster_registers_total")
	co.mHeartbeats = co.reg.Counter("cluster_heartbeats_total")
	co.mDeaths = co.reg.Counter("cluster_deaths_total")
	co.mTasksFailed = co.reg.Counter("cluster_tasks_failed_total")
	co.mDispatched = co.reg.Counter("cluster_tasks_dispatched_total")
	co.mLeases = co.reg.Counter("cluster_leases_total")
	co.mLeasesExpired = co.reg.Counter("cluster_leases_expired_total")
	co.mCompleted = co.reg.Counter("cluster_tasks_completed_total")
	co.mResultsDropped = co.reg.Counter("cluster_results_dropped_total")
	co.mResultsPosts = co.reg.Counter("cluster_results_posts_total")
	co.mNodesLive = co.reg.Gauge("cluster_nodes_live")
	go co.sweep()
	go co.dispatchEvents()
	return co
}

// SetWanted records a job's advisory demand for extra worker nodes — the
// predictive service layer's scale-out request. The coordinator cannot
// spawn graspworker processes itself, so the aggregate demand is a
// signal: published as the cluster_nodes_wanted gauge and on
// /api/v1/nodes for an external autoscaler (or an operator) to act on.
// n <= 0 clears the job's demand; demand is also advisory-only state and
// never outlives the process.
func (co *Coordinator) SetWanted(job string, n int) {
	co.wantedMu.Lock()
	if n <= 0 {
		delete(co.wanted, job)
	} else {
		co.wanted[job] = n
	}
	total := 0
	for _, v := range co.wanted {
		total += v
	}
	co.wantedMu.Unlock()
	co.reg.Gauge("cluster_nodes_wanted").Set(int64(total))
}

// NodesWanted sums the jobs' advisory demand for extra worker nodes.
func (co *Coordinator) NodesWanted() int {
	co.wantedMu.Lock()
	defer co.wantedMu.Unlock()
	total := 0
	for _, v := range co.wanted {
		total += v
	}
	return total
}

// Subscribe registers a membership watcher and returns its cancel
// function. Events are delivered in order from a single dispatcher
// goroutine, decoupled from the registry lock, so watchers may call back
// into the coordinator freely; a watcher that blocks stalls delivery to
// every watcher, so keep them quick.
func (co *Coordinator) Subscribe(fn func(NodeEvent)) (cancel func()) {
	co.watcherMu.Lock()
	defer co.watcherMu.Unlock()
	id := co.nextWatcher
	co.nextWatcher++
	co.watchers[id] = fn
	return func() {
		co.watcherMu.Lock()
		defer co.watcherMu.Unlock()
		delete(co.watchers, id)
	}
}

// emit queues a membership event for the dispatcher without blocking the
// registry lock; under pathological churn the bounded buffer drops events
// (counted) and flags the dispatcher to resync: once the queue drains it
// replays the whole registry as synthetic events — EventUp for live
// nodes, EventDown for expired registrations still listed — so a dropped
// event can never permanently desync a subscriber (replay is free:
// Pool.Admit deduplicates and down-handling is idempotent).
func (co *Coordinator) emit(ev NodeEvent) {
	select {
	case co.events <- ev:
	default:
		co.eventsLost.Store(true)
		co.reg.Counter("cluster_events_dropped_total").Inc()
	}
}

// dispatchEvents fans queued membership events out to the subscribers.
func (co *Coordinator) dispatchEvents() {
	deliver := func(ev NodeEvent) {
		co.watcherMu.Lock()
		fns := make([]func(NodeEvent), 0, len(co.watchers))
		for _, fn := range co.watchers {
			fns = append(fns, fn)
		}
		co.watcherMu.Unlock()
		for _, fn := range fns {
			fn(ev)
		}
	}
	for {
		select {
		case <-co.stop:
			return
		case ev := <-co.events:
			deliver(ev)
		}
		if len(co.events) == 0 && co.eventsLost.Swap(false) {
			for _, ni := range co.Nodes() {
				kind := EventDown
				if ni.State == StateLive {
					kind = EventUp
				}
				deliver(NodeEvent{Kind: kind, Node: ni})
			}
		}
	}
}

// Metrics exposes the coordinator's operational counters and gauges.
func (co *Coordinator) Metrics() *metrics.Registry { return co.reg }

// Trace exposes the coordinator's bounded dispatch trace: dispatch events
// as executions are queued to nodes, complete events as results are
// accepted, timestamped relative to the coordinator's start.
func (co *Coordinator) Trace() *trace.Log { return co.tr }

// now returns the coordinator-relative timestamp trace events carry.
func (co *Coordinator) now() time.Duration { return time.Since(co.start) }

// Close stops the death sweeper. Outstanding dispatches are failed so no
// Pool call stays blocked forever.
func (co *Coordinator) Close() {
	co.stopOnce.Do(func() {
		close(co.stop)
		co.mu.Lock()
		defer co.mu.Unlock()
		for _, n := range co.nodes {
			if n.state == StateLive {
				co.expireLocked(n, StateLeft, "coordinator closed")
			}
		}
	})
}

// Register admits (or re-admits) a worker. A live node under the same id
// is superseded: its outstanding work fails over exactly as if it had
// died, and the new registration starts clean under a fresh generation.
func (co *Coordinator) Register(req RegisterRequest) (RegisterResponse, error) {
	if req.ID == "" {
		return RegisterResponse{}, fmt.Errorf("cluster: register with empty node id")
	}
	capacity := req.Capacity
	if capacity < 1 {
		capacity = 1
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if old, ok := co.nodes[req.ID]; ok && old.state == StateLive {
		co.expireLocked(old, StateDead, "superseded by re-registration")
	}
	co.reserveGenLocked()
	co.nextGen++
	now := time.Now()
	mInflight, mCompleted := co.nodeMetricsLocked(req.ID)
	n := &node{
		id:         req.ID,
		gen:        co.nextGen,
		capacity:   capacity,
		speed:      req.SpeedOPS,
		state:      StateLive,
		registered: now,
		lastSeen:   now,
		inflight:   make(map[int64]*dispatch),
		wake:       make(chan struct{}, 1),
		gone:       make(chan struct{}),
		mInflight:  mInflight,
		mCompleted: mCompleted,
	}
	co.nodes[req.ID] = n
	co.persistLocked()
	co.mRegisters.Inc()
	co.mNodesLive.Set(co.liveCountLocked())
	co.log.Info("cluster node registered",
		"node", n.id, "gen", n.gen, "capacity", n.capacity, "speed_ops", n.speed)
	co.emit(NodeEvent{Kind: EventUp, Node: n.infoLocked(now)})
	return RegisterResponse{
		Gen:         n.gen,
		HeartbeatMS: (co.cfg.DeadAfter / 3).Milliseconds(),
		Transport:   co.pickTransport(req.Transports),
	}, nil
}

// pickTransport resolves register-time transport negotiation: the worker
// offers the bindings it speaks in preference order, and the coordinator
// picks the first one it serves. Binary is served only when a
// dual-transport Server is accepting frames (binaryServed); a coordinator
// mounted as a bare HTTP handler serves JSON alone. JSON is the fallback
// for an offer with nothing served in it: every worker bootstraps
// registration over it.
func (co *Coordinator) pickTransport(offers []string) string {
	for _, o := range offers {
		if o == TransportJSON || o == TransportBinary && co.binaryServed.Load() {
			return o
		}
	}
	return TransportJSON
}

// nodeMetricsLocked resolves a node id's per-node metric handles once, at
// entry creation — a Register re-registration or a durable Restore lands
// on the same underlying series as the id's previous incarnation.
func (co *Coordinator) nodeMetricsLocked(id string) (*metrics.Gauge, *metrics.Counter) {
	safe := metrics.LabelSafe(id)
	return co.reg.Gauge("cluster_node_inflight_" + safe),
		co.reg.Counter("cluster_node_" + safe + "_completed_total")
}

// lookupLocked resolves an (id, gen) pair to its live node.
func (co *Coordinator) lookupLocked(id string, gen int64) (*node, error) {
	n, ok := co.nodes[id]
	if !ok || n.gen != gen || n.state != StateLive {
		return nil, ErrGone
	}
	return n, nil
}

// Heartbeat refreshes a node's liveness.
func (co *Coordinator) Heartbeat(req HeartbeatRequest) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	n, err := co.lookupLocked(req.ID, req.Gen)
	if err != nil {
		return err
	}
	n.lastSeen = time.Now()
	co.mHeartbeats.Inc()
	return nil
}

// Leave retires a node gracefully: outstanding work fails over immediately.
func (co *Coordinator) Leave(req LeaveRequest) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	n, err := co.lookupLocked(req.ID, req.Gen)
	if err != nil {
		return err
	}
	co.expireLocked(n, StateLeft, "left")
	return nil
}

// Evict administratively retires a live node (the DELETE /nodes/{id}
// admin action); its outstanding work fails over immediately.
func (co *Coordinator) Evict(id string) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	n, ok := co.nodes[id]
	if !ok || n.state != StateLive {
		return ErrGone
	}
	co.expireLocked(n, StateDead, "evicted")
	return nil
}

// expireLocked moves a node out of the live set and fails its queued and
// in-flight dispatches with ErrNodeLost, which is what drives the engine's
// Faults-based reassignment for every affected job.
func (co *Coordinator) expireLocked(n *node, state, cause string) {
	if n.state != StateLive {
		return
	}
	n.state = state
	lost := len(n.queue) + len(n.inflight)
	for _, d := range n.queue {
		d.resolve(0, ErrNodeLost)
	}
	n.queue = nil
	for id, d := range n.inflight {
		delete(n.inflight, id)
		d.resolve(0, ErrNodeLost)
	}
	n.failed += int64(lost)
	close(n.gone)
	co.persistLocked()
	co.mDeaths.Inc()
	co.mTasksFailed.Add(int64(lost))
	co.mNodesLive.Set(co.liveCountLocked())
	n.mInflight.Set(0)
	co.log.Warn("cluster node expired",
		"node", n.id, "gen", n.gen, "state", state, "cause", cause, "reassigned", lost)
	co.emit(NodeEvent{Kind: EventDown, Node: n.infoLocked(time.Now())})
}

// liveCountLocked counts live nodes.
func (co *Coordinator) liveCountLocked() int64 {
	var live int64
	for _, n := range co.nodes {
		if n.state == StateLive {
			live++
		}
	}
	return live
}

// sweep runs the periodic maintenance pass: silent live nodes are
// declared dead, leases unresolved past the TTL on live nodes are
// requeued for redelivery, and long-expired registrations are pruned
// along with their per-node metric series.
func (co *Coordinator) sweep() {
	t := time.NewTicker(co.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-co.stop:
			return
		case <-t.C:
		}
		now := time.Now()
		co.mu.Lock()
		for id, n := range co.nodes {
			switch {
			case n.state == StateLive && now.Sub(n.lastSeen) > co.cfg.DeadAfter:
				co.expireLocked(n, StateDead, "missed heartbeats")
			case n.state == StateLive:
				co.requeueExpiredLeasesLocked(n, now)
			case now.Sub(n.lastSeen) > co.cfg.DeadRetention:
				co.pruneLocked(id)
			}
		}
		co.mu.Unlock()
	}
}

// pruneLocked drops a long-expired registration and its per-node metric
// series. It is idempotent, and it holds the invariant that makes the
// deletion safe against resurrection: every per-node series write in the
// coordinator happens under co.mu after a successful lookup, so once the
// entry is gone here no concurrent Lease/Results can re-create the series
// with a stale value. (The writes used to happen after releasing co.mu,
// which let a pre-prune lookup's metric update land post-prune and leak
// the series forever — visible as a flake under -race -shuffle=on.)
func (co *Coordinator) pruneLocked(id string) {
	if _, ok := co.nodes[id]; !ok {
		return
	}
	delete(co.nodes, id)
	safe := metrics.LabelSafe(id)
	co.reg.Delete("cluster_node_inflight_" + safe)
	co.reg.Delete("cluster_node_" + safe + "_completed_total")
	co.reg.Counter("cluster_nodes_pruned_total").Inc()
}

// requeueExpiredLeasesLocked redelivers in-flight dispatches whose lease
// outlived the TTL on a node that is otherwise alive — the lease response
// (or the worker's grip on it) was lost in transit. The dispatch keeps its
// id and sink: resolution only ever happens out of the in-flight
// map, so if the original delivery's result does arrive later it is
// deduplicated, and the redelivered execution resolves the task instead.
func (co *Coordinator) requeueExpiredLeasesLocked(n *node, now time.Time) {
	requeued := 0
	for id, d := range n.inflight {
		if now.Sub(d.leasedAt) > co.cfg.LeaseTTL {
			delete(n.inflight, id)
			n.queue = append(n.queue, d)
			requeued++
		}
	}
	if requeued == 0 {
		return
	}
	co.mLeasesExpired.Add(int64(requeued))
	co.log.Warn("cluster leases expired; requeued for redelivery",
		"node", n.id, "count", requeued, "ttl", co.cfg.LeaseTTL)
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// submit queues one dispatch group on a node — one co.mu hold and one
// wake whatever its size; a single execution is the group of one — and
// returns the chunk whose sink will carry exactly one outcome per task.
// The caller receives them all, then releases the chunk. An error means
// the node is already gone and nothing was queued: the caller should fail
// every execution immediately.
func (co *Coordinator) submit(id string, gen int64, tasks []platform.Task) (*chunk, error) {
	ch := chunkPool.Get().(*chunk)
	if cap(ch.sink) < len(tasks) {
		ch.sink = make(chan dispatchOutcome, len(tasks))
	}
	// Assembled outside the lock, so no producer code (a WorkCarrier) ever
	// runs under co.mu.
	ch.ds = ch.ds[:0]
	for i := range tasks {
		d := dispatchPool.Get().(*dispatch)
		d.task, d.work = tasks[i].ID, EncodeWork(tasks[i].Cost, tasks[i].Data)
		d.idx, d.sink = i, ch.sink
		ch.ds = append(ch.ds, d)
	}
	co.mu.Lock()
	n, err := co.lookupLocked(id, gen)
	if err != nil {
		co.mu.Unlock()
		for _, d := range ch.ds {
			d.recycle()
		}
		ch.release()
		return nil, err
	}
	for _, d := range ch.ds {
		co.reserveDispatchLocked()
		co.nextDispatch++
		d.id = co.nextDispatch
	}
	n.queue = append(n.queue, ch.ds...)
	co.mu.Unlock()
	// From here the dispatches belong to the coordinator: any of them may
	// already be resolved and recycled.
	co.mDispatched.Add(int64(len(tasks)))
	at := co.now()
	for i := range tasks {
		co.tr.Append(trace.Event{At: at, Kind: trace.KindDispatch, Node: id, Task: tasks[i].ID})
	}
	select {
	case n.wake <- struct{}{}:
	default:
	}
	return ch, nil
}

// Lease hands out up to req.Max queued executions, long-polling up to
// req.WaitMS (bounded by MaxLeaseWait) while the queue is empty.
func (co *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	tasks, err := co.LeaseAppend(req, nil)
	return LeaseResponse{Tasks: tasks}, err
}

// LeaseAppend is Lease with caller-owned memory: the leased batch is
// appended onto buf (pass a reused slice's [:0] — the binary server
// threads per-connection scratch through here) and the long-poll timer is
// created lazily, so a lease that finds work queued allocates nothing.
//
// req.Results — the requester's previous lease, finished — are applied
// first, by the code a results post runs and under the co.mu hold that
// takes the next batch, so they resolve on arrival whether or not the
// request then long-polls. A stale generation applies nothing.
func (co *Coordinator) LeaseAppend(req LeaseRequest, buf []WireTask) ([]WireTask, error) {
	begin := time.Now()
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait <= 0 || wait > co.cfg.MaxLeaseWait {
		wait = co.cfg.MaxLeaseWait
	}
	maxTasks := req.Max
	if maxTasks < 1 || maxTasks > maxBatch {
		maxTasks = maxBatch
	}
	results := req.Results
	var deadline *time.Timer
	var deadlineC <-chan time.Time
	defer func() {
		if deadline != nil {
			deadline.Stop()
		}
	}()
	for {
		co.mu.Lock()
		n, err := co.lookupLocked(req.ID, req.Gen)
		if err != nil {
			co.mu.Unlock()
			co.mResultsDropped.Add(int64(len(results)))
			return buf, err
		}
		now := time.Now()
		n.lastSeen = now
		if len(results) > 0 {
			co.applyResultsLocked(n, results)
			results = nil // applied once, not again after a long-poll wake
		}
		// A lease takes the node's capacity share of what is queued, not
		// all of it — guided self-scheduling at node level — so one executor
		// never runs a whole chunk serially while its siblings idle.
		take := min(maxTasks, (len(n.queue)+n.capacity-1)/n.capacity)
		for i, d := range n.queue[:take] {
			// An executor runs its lease in order, so the i-th task's turn
			// may legitimately begin up to i TTLs from now.
			d.leasedAt = now.Add(time.Duration(i) * co.cfg.LeaseTTL)
			n.inflight[d.id] = d
			buf = append(buf, WireTask{Dispatch: d.id, Task: d.task, Work: d.work})
		}
		n.queue = n.queue[0:copy(n.queue, n.queue[take:])]
		if take > 0 {
			// The per-node gauge is written under co.mu so it can never race
			// the sweeper's prune of this node's series (see pruneLocked).
			co.mLeases.Inc()
			n.mInflight.Set(int64(len(n.inflight)))
		}
		queued := len(n.queue)
		wake, gone := n.wake, n.gone
		co.mu.Unlock()
		if take > 0 {
			if queued > 0 {
				// Wake tokens are buffered(1), so a submit burst collapses to
				// one token: cascade it to the next parked poller while work
				// remains, or idle executors wait out their long-poll.
				select {
				case wake <- struct{}{}:
				default:
				}
			}
			// Observed at the explicit return (not via a deferred closure)
			// to keep the work-was-queued path allocation-free.
			co.hLeaseWait.ObserveDuration(time.Since(begin))
			return buf, nil
		}
		if deadline == nil {
			deadline = time.NewTimer(wait)
			deadlineC = deadline.C
		}
		select {
		case <-wake:
		case <-gone:
			return buf, ErrGone
		case <-deadlineC:
			co.hLeaseWait.ObserveDuration(time.Since(begin))
			return buf, nil
		case <-co.stop:
			return buf, ErrGone
		}
	}
}

// Results accepts a batch of finished executions. Results for dispatches
// no longer in flight — a delivery that raced death-driven reassignment,
// or a duplicate post — are dropped and counted, which is what keeps
// at-least-once redelivery from ever surfacing a task twice.
func (co *Coordinator) Results(req ResultsRequest) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	n, err := co.lookupLocked(req.ID, req.Gen)
	if err != nil {
		co.mResultsDropped.Add(int64(len(req.Results)))
		return err
	}
	n.lastSeen = time.Now()
	co.applyResultsLocked(n, req.Results)
	return nil
}

// applyResultsLocked resolves one results-bearing frame — a results post
// or the results a lease request carried — against n's in-flight map.
func (co *Coordinator) applyResultsLocked(n *node, results []WireResult) {
	// The posts counter next to the completed counter makes batching
	// observable: completions-per-post is how many results one frame
	// carries; the histogram gives the depth's distribution.
	co.mResultsPosts.Inc()
	co.hBatch.Observe(float64(len(results)))
	at := co.now()
	var accepted, dropped int64
	for i := range results {
		r := &results[i]
		d, ok := n.inflight[r.Dispatch]
		if !ok {
			dropped++
			n.deduped++
			continue
		}
		delete(n.inflight, r.Dispatch)
		accepted++
		n.completed++
		co.tr.Append(trace.Event{
			At: at, Kind: trace.KindComplete, Node: n.id, Task: r.Task,
			Dur: time.Duration(r.Micros) * time.Microsecond,
		})
		d.resolve(r.Micros, nil)
	}
	// Per-node series are written under co.mu: a prune of this node's
	// series cannot interleave between the caller's lookup and these writes
	// and have them resurrect deleted series (see pruneLocked). The handles
	// themselves were resolved at registration — no name building here.
	co.mCompleted.Add(accepted)
	n.mCompleted.Add(accepted)
	co.mResultsDropped.Add(dropped)
	n.mInflight.Set(int64(len(n.inflight)))
}

// infoLocked snapshots one node for the admin listing.
func (n *node) infoLocked(now time.Time) NodeInfo {
	return NodeInfo{
		ID:         n.id,
		Gen:        n.gen,
		State:      n.state,
		Capacity:   n.capacity,
		SpeedOPS:   n.speed,
		Queued:     len(n.queue),
		InFlight:   len(n.inflight),
		Completed:  n.completed,
		Failed:     n.failed,
		Deduped:    n.deduped,
		LastSeenMS: now.Sub(n.lastSeen).Milliseconds(),
	}
}

// Nodes lists every registration (live and expired), sorted by id.
func (co *Coordinator) Nodes() []NodeInfo {
	now := time.Now()
	co.mu.Lock()
	out := make([]NodeInfo, 0, len(co.nodes))
	for _, n := range co.nodes {
		out = append(out, n.infoLocked(now))
	}
	co.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Live lists the live nodes, sorted by id — the snapshot a cluster job's
// Pool is built from.
func (co *Coordinator) Live() []NodeInfo {
	all := co.Nodes()
	out := all[:0]
	for _, ni := range all {
		if ni.State == StateLive {
			out = append(out, ni)
		}
	}
	return out
}
