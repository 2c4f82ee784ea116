// Package service multiplexes many concurrent named streaming jobs onto one
// shared runtime and platform — the layer that turns the adaptive skeletons
// from batch programs into a long-running system serving continuous
// traffic.
//
// The service is skeleton-agnostic: a job declares its skeleton (farm,
// pipeline, dmap) and the adapt registry resolves it to an engine.Runner;
// from here on the service only ever touches the engine contract. Each job
// is one runner fed through a one-slot hand-off channel, so the engine's
// in-flight window is the only bound on admitted work and submission
// backpressure propagates all the way to the caller: what does not fit the
// window waits in the blocked Push. The service calibrates the
// platform once (Algorithm 1 over spin probes) and the one ranking's
// dispatch weights feed every skeleton type — chunk shares for farms,
// decomposition blocks for dmaps, stage mappings for pipelines. Per-job
// thresholds are derived from each job's own warm-up tasks and installed
// live through the engine's control channel, and detector breaches
// re-calibrate the job in place (reweighting or remapping, per skeleton)
// without draining the stream.
//
// Worker membership is elastic: the internal/alloc fair-share allocator
// partitions the local worker slots among the live jobs by their `share`
// weights (work-conserving — a lone job owns the whole platform, and
// slots freed by a finishing job flow to the survivors), publishing
// membership deltas that reach each running skeleton through the engine's
// control channel with weights drawn from the cached calibration ranking.
// Cluster jobs get the same elasticity from the coordinator's node
// events: a graspworker that registers mid-stream joins running jobs'
// memberships, its register-time benchmark sample becoming its initial
// dispatch weight.
//
// A job's task pool — submitted count, pending tasks, retained results,
// lost count, closed/done flags — lives in one place, the service's wal
// (wal.go), and changes only through committed records; the Job keeps a
// visibility watermark over it, advanced after each ack's commit returns.
// With a DataDir the wal has a store behind it and the service is
// crash-recoverable: every externally visible mutation is journaled and
// fsynced before its effects are observable, and a restart replays the
// records through the function that applied them live. Concurrent commits
// group into bounded batches (one write syscall, one fsync each), so
// durable ingest scales with request concurrency; a nil commit means the
// record is fsynced, and storage errors latch the wal fail-stop. Without a
// DataDir the same wal has no store and a commit only applies.
//
// The service runs only on the real runtime (rt.Local): it exists to serve
// actual traffic, while the simulator remains the domain of the experiment
// harness.
package service

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"grasp/internal/alloc"
	"grasp/internal/calibrate"
	"grasp/internal/cluster"
	"grasp/internal/metrics"
	"grasp/internal/monitor"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/sched"
	"grasp/internal/skel/adapt"
	"grasp/internal/skel/engine"
	"grasp/internal/trace"
)

// Config parameterises a Service.
type Config struct {
	// Workers is the number of platform worker slots (default GOMAXPROCS,
	// minimum 2 so adaptation has somewhere to shift work).
	Workers int
	// DefaultWindow is the per-job in-flight window when a job does not set
	// its own (default 2× Workers).
	DefaultWindow int
	// ThresholdFactor sets each job's Z = factor × warm-up mean task time
	// (default 4, the core layer's default).
	ThresholdFactor float64
	// WarmupTasks is how many completions a job observes before deriving
	// its threshold (default 2× Workers).
	WarmupTasks int
	// MaxResults is the default per-job result-retention bound when a job
	// does not set its own (default 100000, capped at 1000000). This is the
	// knob that keeps a long-lived daemon's memory finite.
	MaxResults int
	// DefaultShare is the fair-share weight a job gets when its spec omits
	// `share` (default 1). Shares partition the local worker slots among
	// concurrent jobs: a job with share 3 holds ~3× the workers of a
	// share-1 job, and the split rebalances live as jobs come and go.
	DefaultShare float64
	// Cluster, when non-nil, lets jobs declare `placement: cluster`: their
	// tasks execute on remote graspworker processes registered with this
	// coordinator instead of the local platform.
	Cluster *cluster.Coordinator
	// DataDir, when non-empty, makes the service durable: every accepted
	// mutation is journaled (write-ahead, fsynced) under this directory, and
	// Open replays it — resuming unfinished jobs at their last acknowledged
	// result and re-delivering un-acked tasks exactly once. Empty: the
	// service is purely in-memory (the pre-durability behaviour).
	DataDir string
	// Logger receives job lifecycle events as structured records carrying
	// per-job fields (default: discard).
	Logger *slog.Logger
	// DefaultAdapt selects the adaptation policy for jobs whose spec omits
	// `adapt`: "reactive" (the default — the paper's breach-driven policy)
	// or "predictive".
	DefaultAdapt string
	// ShedFactor arms admission control for predictive jobs: pushes are
	// shed with ErrOverloaded (HTTP 429 + Retry-After) once the job's
	// queue-depth forecast exceeds ShedFactor × its window, and resume at
	// half that (hysteresis). The forecast counts every committed task not
	// yet completed; the daemon holds at most window + 1 of them, so the
	// rest is load waiting outside the engine, in blocked pushes. Zero
	// defaults to 2 (a further window waiting there); negative disables
	// shedding.
	ShedFactor float64
	// ForecastEvery is the predictive queue-depth sampling interval
	// (default 20ms).
	ForecastEvery time.Duration
}

const (
	// probeSpin is the busy-loop iteration count of a calibration probe.
	probeSpin = 50000
	// jobTraceCap bounds each job's trace ring: the per-job timeline
	// retains at most this many events, overwriting the oldest and
	// counting the drops.
	jobTraceCap = 4096
)

func (c Config) withDefaults() Config {
	if c.Workers < 2 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers < 2 {
			c.Workers = 2
		}
	}
	if c.DefaultWindow <= 0 {
		c.DefaultWindow = 2 * c.Workers
	}
	if c.ThresholdFactor <= 0 {
		c.ThresholdFactor = 4
	}
	if c.WarmupTasks <= 0 {
		c.WarmupTasks = 2 * c.Workers
	}
	if c.MaxResults <= 0 {
		c.MaxResults = 100_000
	}
	if c.MaxResults > 1_000_000 {
		c.MaxResults = 1_000_000
	}
	if c.DefaultShare <= 0 {
		c.DefaultShare = 1
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.DefaultAdapt == "" {
		c.DefaultAdapt = AdaptReactive
	}
	if c.ShedFactor == 0 {
		c.ShedFactor = 2
	}
	if c.ForecastEvery <= 0 {
		c.ForecastEvery = 20 * time.Millisecond
	}
	return c
}

// Service owns the shared runtime, platform, calibration cache, and job
// table. Create one with New; it is safe for concurrent use.
type Service struct {
	cfg   Config
	l     *rt.Local
	pf    platform.Platform
	reg   *metrics.Registry
	log   *slog.Logger
	alloc *alloc.Allocator

	// The series touched per task or per push — the task-latency
	// distribution across every job, how long each Push spent handing its
	// batch to the engine, and the submitted/shed/completed totals — are
	// resolved once so Push and onResult (the hot paths) never take the
	// registry's name-lookup path.
	hTaskLatency, hPushWait       *metrics.Histogram
	cSubmitted, cShed, cCompleted *metrics.Counter

	// wal holds every job's task pool and, when the service is durable, the
	// journal behind it; closed signals shutdown to recovery waiters.
	wal       *wal
	closed    chan struct{}
	closeOnce sync.Once

	mu      sync.Mutex
	jobs    map[string]*Job
	pending map[string]bool // names reserved by in-flight Submits and Removes

	calOnce sync.Once
	ranking calibrate.Ranking
	calErr  error
}

// New builds a service over a fresh local runtime and platform. The
// fair-share allocator partitions the platform's worker slots among the
// live local jobs, so no job assumes it owns the whole platform. New
// panics if the durable layer cannot open; daemons configuring a DataDir
// should call Open and handle the error.
func New(cfg Config) *Service {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("service: %v", err))
	}
	return s
}

// Open builds a service, recovering durable state when cfg.DataDir is
// set: the journal under it is replayed, done jobs reappear with their
// retained results (pollers' cursors stay valid across the restart),
// unfinished jobs resume — local ones immediately, cluster ones as soon
// as a worker node is live again (with no cfg.Cluster they stay
// recovering, logged) — and every accepted-but-unacknowledged task is
// re-delivered. Open fails when a default (DefaultWindow, DefaultAdapt,
// ThresholdFactor, DefaultShare) is outside the bounds JobSpec.Validate
// holds a spec to; with valid defaults and no DataDir, Open never fails.
func Open(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	// The daemon-wide defaults fill every spec that omits a field, so they
	// are held to the bounds a spec is: a default window past maxWindow or
	// an unknown default policy would reach every such job unchecked.
	if err := (JobSpec{}).withDefaults(cfg).Validate(); err != nil {
		return nil, fmt.Errorf("service: default job spec: %v", err)
	}
	l := rt.NewLocal()
	slots := make([]int, cfg.Workers)
	for i := range slots {
		slots[i] = i
	}
	s := &Service{
		cfg:     cfg,
		l:       l,
		pf:      platform.NewLocalPlatform(l, cfg.Workers),
		reg:     metrics.NewRegistry(),
		log:     cfg.Logger,
		alloc:   alloc.New(slots),
		closed:  make(chan struct{}),
		jobs:    make(map[string]*Job),
		pending: make(map[string]bool),
	}
	s.hTaskLatency = s.reg.Histogram("service_task_latency_seconds", metrics.DefDurationBuckets)
	s.hPushWait = s.reg.Histogram("service_push_wait_seconds", metrics.DefDurationBuckets)
	s.cSubmitted = s.reg.Counter("service_tasks_submitted_total")
	s.cShed = s.reg.Counter("service_tasks_shed_total")
	s.cCompleted = s.reg.Counter("service_tasks_completed_total")
	w, err := openWAL(cfg.DataDir, walOptions{})
	if err != nil {
		return nil, err
	}
	s.wal = w
	if cfg.DataDir == "" {
		return s, nil
	}
	w.hFsync = s.reg.Histogram("service_journal_fsync_seconds", metrics.DefDurationBuckets)
	w.hBatch = s.reg.Histogram("service_commit_batch_size", metrics.BatchBuckets)
	w.log = cfg.Logger
	// The coordinator's token ceilings must be restored before it serves
	// any cluster traffic: a gen or dispatch id minted below the pre-crash
	// ceiling could collide with an id a surviving worker still holds.
	if co := cfg.Cluster; co != nil {
		if st := w.clusterState(); st != nil {
			co.Restore(*st)
		}
		co.SetPersist(func(st cluster.RegistryState) {
			// Best-effort after a latched wal error; the registry keeps
			// serving and the loss surfaces on the next Submit/Push.
			w.commit(walRecord{Kind: walCluster, Cluster: &st})
		})
	}
	names, jobs := w.jobs()
	for i, name := range names {
		s.recoverJob(name, jobs[i])
	}
	return s, nil
}

// Close flushes the durable layer — a final snapshot folding the journal
// away, fsynced — and stops background recovery. It does not wait for
// running jobs; their un-acked tasks are in the journal and resume on the
// next Open. This is the graceful-shutdown path graspd takes on SIGTERM.
func (s *Service) Close() error {
	s.closeOnce.Do(func() { close(s.closed) })
	return s.wal.close()
}

// Metrics exposes the service's operational counters.
func (s *Service) Metrics() *metrics.Registry { return s.reg }

// Workers returns the platform worker count.
func (s *Service) Workers() int { return s.cfg.Workers }

// calibration runs Algorithm 1 once per service lifetime and caches the
// ranking; every job after the first reuses the cached result — the
// "per-platform calibration reuse" that amortises probing across jobs.
func (s *Service) calibration() (calibrate.Ranking, error) {
	first := false
	s.calOnce.Do(func() {
		first = true
		spin := probeSpin
		probe := platform.Task{ID: -1, Cost: float64(spin), Fn: func() any {
			cluster.Spin(int64(spin)) // the shared spin kernel: see cluster.Spin
			return spin
		}}
		done := make(chan struct{})
		s.l.Go("service.calibrate", func(c rt.Ctx) {
			defer close(done)
			out, err := calibrate.Run(s.pf, c, calibrate.Options{
				Strategy: calibrate.TimeOnly,
				Probes:   []platform.Task{probe},
			})
			if err != nil {
				s.calErr = err
				return
			}
			s.ranking = out.Ranking
		})
		<-done
		s.reg.Counter("service_calibrations_total").Inc()
	})
	if !first {
		s.reg.Counter("service_calibration_reuse_total").Inc()
	}
	return s.ranking, s.calErr
}

// Sentinel errors callers (the HTTP layer) map onto status codes.
var (
	// ErrJobExists reports a duplicate job name.
	ErrJobExists = errors.New("job already exists")
	// ErrInvalid reports a malformed submission.
	ErrInvalid = errors.New("invalid request")
	// ErrNoCluster reports a cluster placement the service cannot satisfy:
	// no coordinator configured, or no live worker nodes.
	ErrNoCluster = errors.New("cluster placement unavailable")
	// ErrOverloaded reports a push shed by admission control: the job's
	// queue-depth forecast is over the bound, so accepting the batch would
	// stall the caller on backpressure. The HTTP layer maps it to 429 with
	// a Retry-After hint; retry after the queue drains.
	ErrOverloaded = errors.New("job overloaded")
)

// RetryAfter is the hint returned alongside ErrOverloaded — how long a
// shed caller should wait before retrying.
func (s *Service) RetryAfter() time.Duration { return shedRetryAfter }

// Cluster returns the coordinator serving `placement: cluster` jobs (nil
// when the daemon runs without one).
func (s *Service) Cluster() *cluster.Coordinator { return s.cfg.Cluster }

// clusterWeights ranks a pool's execution slots by their nodes'
// register-time benchmark speeds — Algorithm 1's ranking step applied to
// reported benchmarks instead of fresh probes: each node's speed becomes
// a predicted probe time, so a node twice as fast starts with twice the
// dispatch share. Round-trip observations then reweight live via the
// engine. liveGens restricts the ranking to current registrations (nil
// means all members): the pool is append-only across loss/rejoin cycles,
// and normalising over dead generations' slots would dilute the live
// workers' weights a little more with every churn cycle.
func clusterWeights(members []cluster.PoolMember, liveGens map[string]int64) map[int]float64 {
	var workers []int
	var samples []calibrate.Sample
	const refOps = 1e6 // nominal probe size; only ratios matter for weights
	for i, m := range members {
		if liveGens != nil {
			if gen, ok := liveGens[m.ID]; !ok || gen != m.Gen {
				continue
			}
		}
		speed := m.SpeedOPS
		if speed <= 0 {
			speed = 1
		}
		workers = append(workers, i)
		samples = append(samples, calibrate.Sample{
			Worker:    i,
			Time:      time.Duration(refOps / speed * float64(time.Second)),
			ProbeCost: refOps,
		})
	}
	return calibrate.Rank(samples, calibrate.TimeOnly).Weights(workers)
}

// clusterPlatform snapshots the live worker nodes into a per-job platform
// plus dispatch weights from their register-time benchmarks. The pool is
// growable: watchCluster later appends slots for nodes that register
// while the job runs.
func (s *Service) clusterPlatform() (*cluster.Pool, []int, map[int]float64, error) {
	coord := s.cfg.Cluster
	if coord == nil {
		return nil, nil, nil, fmt.Errorf("service: no cluster coordinator: %w", ErrNoCluster)
	}
	nodes := coord.Live()
	if len(nodes) == 0 {
		return nil, nil, nil, fmt.Errorf("service: no live worker nodes: %w", ErrNoCluster)
	}
	pool := cluster.NewPool(coord, s.l, nodes)
	members := pool.Members() // one worker index per node execution slot
	workers := make([]int, len(members))
	for i := range members {
		workers[i] = i
	}
	s.reg.Counter("service_cluster_calibrations_total").Inc()
	return pool, workers, clusterWeights(members, nil), nil
}

// liveGens maps node id → generation for the coordinator's live set.
func liveGens(nodes []cluster.NodeInfo) map[string]int64 {
	out := make(map[string]int64, len(nodes))
	for _, ni := range nodes {
		out[ni.ID] = ni.Gen
	}
	return out
}

// watchCluster subscribes a running cluster job to coordinator membership
// events, making node join symmetric with the node-loss path: a node that
// registers mid-stream is admitted into the job's pool (its register-time
// benchmark sample becoming its initial weight, alongside a re-normalised
// map for the whole membership), and a node that dies, leaves, or is
// superseded has its slots gracefully removed — on top of the ErrNodeLost
// failure path that already retires slots with work in flight.
func (s *Service) watchCluster(j *Job, coord *cluster.Coordinator, pool *cluster.Pool) {
	// admitMu serialises the event-dispatcher and snapshot-replay admit
	// paths: the weight map is recomputed from the pool *after* each
	// admission, so the last delta's full map always covers every slot
	// admitted so far — two racing admits could otherwise overwrite the
	// pending map with a stale one missing the other's slots.
	var admitMu sync.Mutex
	admit := func(ni cluster.NodeInfo) {
		admitMu.Lock()
		defer admitMu.Unlock()
		added := pool.Admit(ni)
		if len(added) == 0 {
			return
		}
		weights := clusterWeights(pool.Members(), liveGens(coord.Live()))
		members := make([]engine.Member, len(added))
		for i, w := range added {
			members[i] = engine.Member{Worker: w, Weight: weights[w]}
		}
		j.applyDelta(members, nil, weights)
		s.reg.Counter("service_cluster_joins_total").Inc()
	}
	j.clusterUnsub = coord.Subscribe(func(ev cluster.NodeEvent) {
		select {
		case <-j.done:
			return
		default:
		}
		switch ev.Kind {
		case cluster.EventUp:
			admit(ev.Node)
		case cluster.EventDown:
			// Under admitMu so a down-event cannot slip between another
			// path's Admit and its applyDelta — the removal would land on
			// a workerSet that does not hold the slots yet, and no later
			// event would ever retire them.
			admitMu.Lock()
			if slots := pool.SlotsOf(ev.Node.ID, ev.Node.Gen); len(slots) > 0 {
				j.applyDelta(nil, slots, nil)
			}
			admitMu.Unlock()
		}
	})
	// Close the snapshot→subscribe gap: admit anything that registered in
	// between (Admit deduplicates, so replaying the snapshot is free).
	for _, ni := range coord.Live() {
		admit(ni)
	}
}

// Submit registers a new named job and starts its skeleton's engine
// runner. The name must be unused. Local jobs join the fair-share
// allocator — their worker set is their share of the platform, not the
// whole of it, and it rebalances live as jobs come and go; cluster jobs
// start on the nodes live at submission and gain nodes that register
// later through the coordinator membership subscription.
func (s *Service) Submit(name string, spec JobSpec) (*Job, error) {
	if name == "" {
		return nil, fmt.Errorf("service: job name must be non-empty: %w", ErrInvalid)
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("service: job %q: %v: %w", name, err, ErrInvalid)
	}
	explicitWindow := spec.Window > 0
	spec = spec.withDefaults(s.cfg)

	j := &Job{
		name: name,
		svc:  s,
		spec: spec,
		// Exists before the runner starts (the forecast loop reads it); the
		// create record installs this object in the wal.
		wj:      new(walJob),
		running: true,
		done:    make(chan struct{}),
		tr:      trace.NewBounded(jobTraceCap),
	}

	// Reserve the name without publishing the job: a half-constructed Job
	// must never be reachable through s.Job (a concurrent Push would find
	// a nil input channel), and a duplicate submission must never disturb
	// running jobs' allocations.
	s.mu.Lock()
	if _, dup := s.jobs[name]; dup || s.pending[name] {
		s.mu.Unlock()
		return nil, fmt.Errorf("service: job %q: %w", name, ErrJobExists)
	}
	s.pending[name] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.pending, name)
		s.mu.Unlock()
	}()

	if err := s.startRunner(j, explicitWindow); err != nil {
		return nil, fmt.Errorf("service: job %q: %w", name, err)
	}

	// Commit the creation before the job becomes reachable: a crash after
	// Submit returns must replay it. On a durable failure the just-started
	// runner is drained back out (no tasks ever entered it).
	if err := s.wal.commit(walRecord{Kind: walCreate, Job: name, Spec: &j.spec, adopt: j.wj}); err != nil {
		j.in.Close(nil)
		return nil, fmt.Errorf("service: job %q: journal: %w", name, err)
	}

	// Publish the fully constructed job.
	s.mu.Lock()
	s.jobs[name] = j
	s.mu.Unlock()

	s.reg.Counter("service_jobs_total").Inc()
	s.reg.Counter("service_jobs_" + spec.skeleton() + "_total").Inc()
	s.reg.Counter("service_jobs_placement_" + spec.placement() + "_total").Inc()
	s.log.Info("job submitted",
		"job", name, "skeleton", spec.skeleton(), "placement", spec.placement(),
		"window", j.spec.Window, "share", j.spec.share())
	return j, nil
}

// startRunner takes a constructed (but unpublished) Job through placement
// resolution and launches its engine runner — the part of submission
// shared by Submit and crash recovery. explicitWindow marks the window as
// caller-chosen (recovered specs always are: they were defaulted before
// journaling), suppressing the cluster auto-expansion.
func (s *Service) startRunner(j *Job, explicitWindow bool) error {
	name := j.name

	// Resolve the declared skeleton to its engine runner. The Weighted
	// chunk policy is what makes the calibrated weights (and every live
	// re-weighting) actually shift a farm's dispatch shares; dmap and
	// pipeline consume the same weights through their own topologies.
	run, err := adapt.New(adapt.Spec{
		Skeleton:  j.spec.Skeleton,
		Chunk:     sched.Weighted{},
		WaveSize:  j.spec.WaveSize,
		Alpha:     j.spec.Alpha,
		Stages:    len(j.spec.Stages),
		StageTask: j.stageTask,
	})
	if err != nil {
		return fmt.Errorf("%v: %w", err, ErrInvalid)
	}

	// The control channel and membership maps must exist before any
	// membership source can rebalance this job (the allocator may shrink
	// it the instant a later job joins).
	j.control = s.l.NewChan("service.control."+name, 16)
	j.workerSet = make(map[int]bool)
	j.engineSet = make(map[int]bool)
	j.memberWeights = make(map[int]float64)

	// Resolve the placement to a platform, worker set, and initial weights:
	// the job's fair share of the locally calibrated platform, or a
	// growable pool over the cluster's live nodes weighted by their
	// register-time benchmarks. Everything downstream is placement-agnostic.
	// The resolution is the job's calibrate phase: the timeline brackets it
	// and records one calibrate event per worker slot with its initial
	// dispatch weight.
	j.tr.Append(trace.Event{At: s.l.Now(), Kind: trace.KindPhaseStart, Msg: "calibrate"})
	var (
		pf      platform.Platform = s.pf
		pool    *cluster.Pool
		workers []int
		weights map[int]float64
	)
	if j.spec.placement() == PlacementCluster {
		pool, workers, weights, err = s.clusterPlatform()
		if err != nil {
			return err
		}
		pf = pool
		// The service default window is sized to the local worker slots; a
		// cluster usually has far more execution slots than that, so an
		// unspecified window grows to cover them — never shrinking below the
		// local default, which still bounds tiny clusters sensibly, nor
		// growing past the window a spec may ask for.
		if w := min(2*pool.TotalCapacity(), maxWindow); !explicitWindow && w > j.spec.Window {
			j.spec.Window = w
		}
		j.mu.Lock()
		for _, w := range workers {
			j.workerSet[w] = true
			j.engineSet[w] = true // the runner starts with exactly these
		}
		j.mu.Unlock()
	} else {
		if _, err := s.calibration(); err != nil {
			return fmt.Errorf("calibration: %w", err)
		}
		// Holding j.mu across Join makes the initial workerSet atomic with
		// the callback registration: a rebalance triggered by another
		// job's submit/finish the instant Join returns serialises after
		// this critical section instead of racing the snapshot below.
		// (Join cannot call this job's own callback — the joiner is
		// excluded from its own rebalance notifications — so there is no
		// self-deadlock, and no other holder of j.mu ever waits on the
		// allocator.)
		j.mu.Lock()
		workers = s.alloc.Join(name, j.spec.share(), j.onAllocDelta)
		for _, w := range workers {
			j.workerSet[w] = true
			j.engineSet[w] = true // the runner starts with exactly these
		}
		j.mu.Unlock()
		weights = s.ranking.Weights(workers)
	}
	j.pf, j.pool = pf, pool
	for _, w := range workers {
		node := ""
		if pool != nil {
			node = pool.NodeName(w)
		}
		j.tr.Append(trace.Event{
			At: s.l.Now(), Kind: trace.KindCalibrate,
			Node: node, Task: w, Value: weights[w],
		})
	}
	j.tr.Append(trace.Event{At: s.l.Now(), Kind: trace.KindPhaseEnd, Msg: "calibrate"})
	// One slot, not a window: the engine's credit window is the only bound
	// between Push and the workers, and nothing buffered here could start
	// any sooner. The slot lets a pusher stage its next task while the
	// engine admits the previous one.
	j.in = s.l.NewChan("service.in."+name, 1)
	j.det = &monitor.Detector{
		// Z starts disabled; the warm-up installs it via the control
		// channel once the job's own task times are known. The rule's
		// observation window covers the job's worker set at submission —
		// for a cluster job that is the pool's slot count, not the daemon's
		// local workers: a breach should summarise one round over the
		// whole substrate, not two samples out of forty slots.
		Rule:       monitor.RuleMinOver,
		Window:     len(workers),
		MinSamples: len(workers),
	}
	if pool != nil {
		s.watchCluster(j, s.cfg.Cluster, pool)
	}

	s.reg.Gauge("service_jobs_active").Add(1)
	s.reg.Gauge("service_job_workers_" + metrics.LabelSafe(name)).Set(int64(len(workers)))

	// The stream phase opens here and closes in finish; the warmup phase
	// closes when onResult installs the job's threshold. The engine shares
	// the same trace log (and the same clock — c.Now() is s.l.Now()), so
	// dispatch/complete/threshold/recalibrate events interleave with these
	// phase spans on one coherent timeline.
	window := j.spec.Window
	opts := engine.StreamOptions{
		Workers:       workers,
		Window:        window,
		Weights:       weights,
		Detector:      j.det,
		Control:       j.control,
		OnResult:      j.onResult,
		OnRecalibrate: j.onRecalibrate,
		Log:           j.tr,
	}
	if j.spec.predictive() {
		opts.Predict = &engine.Predict{} // the engine's default margin, 1.5 × the fleet mean
		opts.OnForecast = j.onForecast
		j.mu.Lock()
		j.effShare = j.spec.share()
		j.mu.Unlock()
		go s.forecastLoop(j)
	}
	j.tr.Append(trace.Event{At: s.l.Now(), Kind: trace.KindPhaseStart, Msg: "stream"})
	j.tr.Append(trace.Event{At: s.l.Now(), Kind: trace.KindPhaseStart, Msg: "warmup"})
	s.l.Go("service.job."+name, func(c rt.Ctx) {
		rep := run(pf, c, j.in, opts)
		j.finish(rep)
		s.reg.Gauge("service_jobs_active").Add(-1)
	})
	return nil
}

// recoverJob rebuilds one journaled job at Open time around its replayed
// state (adopted, not copied). Done jobs come back as
// finished husks — their retained results still serve the cursor API, so a
// poller that was mid-drain when the daemon died finishes cleanly.
// Unfinished jobs come back in JobRecovering: visible, accepting durable
// pushes, but with no runner yet; resume attaches one and re-delivers the
// un-acked tasks — immediately for local placement, or as soon as a
// worker node re-registers for cluster placement.
func (s *Service) recoverJob(name string, wj *walJob) {
	pool := s.wal.view(wj)
	j := &Job{
		name: name,
		svc:  s,
		spec: pool.Spec,
		wj:   wj,
		// Everything replayed is on disk, so all of it is visible.
		completed: pool.completed(),
		done:      make(chan struct{}),
		tr:        trace.NewBounded(jobTraceCap),
	}
	s.mu.Lock()
	s.jobs[name] = j
	s.mu.Unlock()
	if pool.Done {
		close(j.done)
		return
	}
	s.reg.Counter("service_jobs_recovered_total").Inc()
	s.log.Info("job recovered from journal",
		"job", name, "skeleton", j.spec.skeleton(), "placement", j.spec.placement(),
		"submitted", pool.Submitted, "completed", j.completed)
	if j.spec.placement() == PlacementCluster {
		if s.cfg.Cluster == nil {
			// Nothing can run it here; it stays journaled and accepting
			// durable pushes until an Open with a coordinator resumes it.
			s.log.Warn("cluster job stays recovering: no cluster coordinator (start graspd with -cluster-listen to resume it)",
				"job", name)
			return
		}
		go s.resumeWhenNodesLive(j)
		return
	}
	if err := s.resume(j); err != nil {
		s.log.Error("job resume failed", "job", name, "err", err)
	}
}

// resumeWhenNodesLive parks a recovered cluster job until the worker
// fleet re-registers (the workers survived the daemon; their next
// heartbeat gets ErrGone and they re-register through the normal path),
// then resumes it. Service shutdown abandons the wait — the job stays
// journaled for the next Open.
func (s *Service) resumeWhenNodesLive(j *Job) {
	for {
		if len(s.cfg.Cluster.Live()) > 0 {
			err := s.resume(j)
			if err == nil {
				return
			}
			if !errors.Is(err, ErrNoCluster) {
				s.log.Error("job resume failed", "job", j.name, "err", err)
				return
			}
			// The node died again between the check and the platform
			// snapshot; keep waiting.
		}
		select {
		case <-s.closed:
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// resume attaches a runner to a recovered job and re-delivers its
// un-acked tasks. Holding sendMu across the backlog copy, the running flip
// and the feed serialises against Push and CloseInput: a durable push
// journaled while the job was recovering is either in the backlog fed here
// or arrives after the flip through the normal live path — never both,
// never neither.
func (s *Service) resume(j *Job) error {
	if err := s.startRunner(j, true); err != nil {
		return err
	}
	j.sendMu.Lock()
	defer j.sendMu.Unlock()
	pending, closed := s.wal.backlog(j.wj), s.wal.view(j.wj).Closed
	j.mu.Lock()
	j.running = true
	j.wakeLocked() // parked polls answer accepting (or draining)
	j.mu.Unlock()
	if len(pending) > 0 {
		// A feed error means the substrate died mid-redelivery; the
		// remainder is counted lost when the job ends, exactly as a live
		// push cut short would be.
		j.feed(pending)
		s.reg.Counter("service_tasks_redelivered_total").Add(int64(len(pending)))
	}
	s.log.Info("job resumed", "job", j.name, "redelivered", len(pending), "closed", closed)
	if closed {
		j.in.Close(nil)
	}
	return nil
}

// Job returns the named job.
func (s *Service) Job(name string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[name]
	return j, ok
}

// Statuses snapshots every job's status, sorted by name order of the map
// iteration (callers sort if they need determinism).
func (s *Service) Statuses() []JobStatus {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Remove deletes a finished job and its retained results — the retention
// lever for a daemon that otherwise accumulates every result it ever
// produced. Only done jobs can be removed; a running job's farm cannot be
// detached from the shared runtime. The commit (a disk flush) runs without
// s.mu so other jobs' lookups never wait on it; the name stays reserved.
func (s *Service) Remove(name string) error {
	s.mu.Lock()
	j, ok := s.jobs[name]
	if !ok || s.pending[name] {
		s.mu.Unlock()
		return fmt.Errorf("service: no job %q", name)
	}
	if !j.finished() {
		s.mu.Unlock()
		return fmt.Errorf("service: job %q is not done; close and drain it first", name)
	}
	s.pending[name] = true
	s.mu.Unlock()
	err := s.wal.commit(walRecord{Kind: walRemove, Job: name})
	s.mu.Lock()
	delete(s.pending, name)
	if err == nil {
		delete(s.jobs, name)
	}
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("service: job %q: journal: %w", name, err)
	}
	s.reg.Delete("service_job_workers_" + metrics.LabelSafe(name))
	s.reg.Counter("service_jobs_removed_total").Inc()
	s.log.Info("job removed", "job", name)
	return nil
}
