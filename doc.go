// Package grasp is a Go reproduction of "Adaptive structured parallelism
// for computational grids" (González-Vélez & Cole, PPoPP 2007): the GRASP
// methodology for self-adaptive algorithmic-skeleton programs on
// non-dedicated heterogeneous platforms.
//
// The implementation lives under internal/, the runnable examples under
// examples/ (indexed in examples/README.md), and the experiment CLIs under
// cmd/. Two documents are generated from this code and checked against it
// in CI: DESIGN.md (the system inventory, assembled from the per-package
// doc comments plus the experiment index) and EXPERIMENTS.md (every
// experiment's table and shape-check outcomes, executed on its declared
// substrate). Regenerate both with `go generate .` — equivalently `go run
// ./cmd/graspbench -write-docs`. The root-level bench_test.go additionally
// regenerates every experiment table as a testing.B benchmark.
//
// # The adaptive engine
//
// The paper's central claim — one adaptive mechanism serves every
// structured-parallelism skeleton — is realised as skel/engine, the
// skeleton-agnostic execution contract: calibrated weights in, detector
// breach events and per-worker observed times out, a recalibrate hook,
// streaming ingestion behind a bounded admission-credit window,
// failure/retire handling, and an elastic worker membership — the worker
// set is a live, versioned view that control updates grow and shrink
// mid-stream (a crash retire being the remove path's special case). A
// streaming skeleton is an engine.Runner; the skeleton packages
// contribute only their dispatch topologies and structural adaptation
// levers, each of which doubles as its grow/shrink lever. The farm and
// the deal map each have exactly one coordinator loop: the Runner feeds
// it from a live channel and recalibrates in place on a breach
// (engine.ModeRecalibrate); the finite-population entry point (farm.Run,
// dmap.Run) hands the same loop its task slice as an already-closed,
// pre-admitted input and stops on a breach (engine.ModeStop), returning
// the undispatched tail so core can feed it back to calibration.
//
//   - skel/farm: demand-driven chunk pulls; breaches re-weight dispatch
//     shares by inverse recent mean time.
//   - skel/dmap: scatter waves with EWMA re-weighting between waves;
//     breaches re-weight the block decomposition in place.
//   - skel/pipeline: a stage graph over buffers bounded by the credit
//     window alone; breaches remap the bottleneck stage onto a spare
//     worker, else swap it with the fastest stage's worker. The batch
//     pipeline.Run has no loop of its own: each stage is a farm.Stream
//     over a pool of one (window 1, or MaxReplicas for a replicable
//     stage), and remap / replicate / crash-replace are membership
//     updates of that stage's farm.
//   - skel/compose: the stage graph itself (RunFarms) — one farm.Stream
//     per stage, window = pool size — plus demand-proportional pool
//     sizing; compose.Run and pipeline.Run both run on it. With
//     Options.Migrate a rebalancer beside the graph moves idle workers to
//     the stage where items wait, as Update{Remove} on one stage's farm
//     and Update{Add} on another's.
//   - skel/dc, skel/reduce map their levers (grain, combining-tree shape)
//     onto the same contract and share the engine's failure/retire
//     bookkeeping.
//
// skel/adapt resolves skeleton names to runners for the service layer.
//
// # Streaming layer
//
// Above the skeletons sits a streaming service stack that keeps the
// adaptive skeletons alive under continuous traffic:
//
//   - Every engine.Runner is a long-lived skeleton fed from a channel.
//     Admission is bounded by an in-flight window (credits), so
//     backpressure reaches the producer; detector breaches re-calibrate
//     the run in place from live execution times — the streaming analogue
//     of Algorithm 2's feedback to Algorithm 1 — and externally injected
//     engine.Update values on a control channel adjust weights and
//     thresholds without draining.
//   - service multiplexes many concurrent named jobs — of any skeleton —
//     onto one shared runtime and platform, calibrating once and feeding
//     the one ranking to every skeleton type, deriving each job's
//     threshold from its own warm-up completions, and exporting
//     operational counters (metrics.Registry).
//   - alloc partitions the platform's worker slots among the live jobs by
//     their fair-share weights (the per-job `share` knob): every slot is
//     always owned by some job (work-conserving — a lone job gets the
//     whole platform, a finishing job's slots flow to the survivors), and
//     rebalances reach running skeletons as engine membership deltas with
//     weights from the cached calibration ranking.
//   - cmd/graspd serves that service over a JSON HTTP API (submit jobs
//     with a skeleton field, stream tasks, poll results through the same
//     cursor endpoints for every topology, /metrics). See README.md for
//     the API and a curl walkthrough; bench/ drives it under load.
//
// # Cluster layer
//
// internal/cluster crosses the process boundary: graspd (with
// -cluster-listen) runs a coordinator that remote cmd/graspworker
// processes register with — announcing an id, a concurrency capacity, and
// a benchmark-derived speed — then serve task batches over long-poll
// leases and heartbeat between them; a farm chunk or dmap block reaches
// its node as one dispatch group, so a lease carries the skeleton's
// calibrated granularity, and it is answered as a unit: the results of a
// lease ride the worker's next lease request (on either binding), one
// round trip per chunk, unless the lease runs long enough — about a
// millisecond — that its results stream through the results verb
// instead. A job created with `"placement":
// "cluster"` executes on a cluster.Pool, a platform.Platform over the
// nodes live at submission, so remote processes appear to skel/engine as
// ordinary grid workers and the adaptive machinery runs unchanged — the
// paper's portability claim made concrete (local and cluster placements
// have identical semantics):
//
//   - initial dispatch weights come from Algorithm 1's ranking step
//     applied to the register-time benchmark samples;
//   - the detector observes node-measured execution time plus each
//     task's share of its chunk's queueing and wire time (a lone task's
//     round trip), so Algorithm 2 adapts to real network, queueing, and
//     node heterogeneity without mistaking chunk position for slowness;
//   - missed heartbeats (or eviction) retire a node through the engine's
//     Faults path: its queued and in-flight executions fail over and the
//     skeleton redelivers them to live nodes under fresh dispatch ids,
//     while late results from dead incarnations are deduplicated — at
//     least-once redelivery, exactly-once results;
//   - node join is symmetric with node loss: the coordinator streams
//     membership events, the pool grows (Admit), and a graspworker that
//     registers mid-stream joins running jobs' memberships — its
//     register-time benchmark sample becoming its initial dispatch weight
//     — and starts executing their tasks without any restart.
//
// The wire itself has two bindings served on one port: length-prefixed
// CRC-checked binary frames over persistent connections (the default and
// the fast path — batched lease/results bodies decoded into reused
// buffers, zero steady-state allocations per task) and JSON over HTTP.
// Each worker speaks the one binding it was started with (graspworker
// -transport) for its whole session, so mixed fleets — JSON workers next
// to binary ones — are a supported state, not an error. cluster.Server
// sniffs each connection's first byte to route it.
//
// The daemon exposes node administration at /api/v1/nodes, per-node
// execution tallies in cluster job statuses, and cluster gauges in
// /metrics. See README.md's cluster quickstart and transport section.
//
// # Durability layer
//
// internal/journal is the storage primitive under the control plane: an
// append-only write-ahead log of CRC-framed records with a torn-tail
// truncation rule, plus a snapshot/compaction store (epoch-named journal
// files folded into a single fsynced snapshot). The service layer keeps
// each job's task pool — submitted count, pending tasks, retained
// results, lost count, closed/done flags — in one place, its wal, and
// changes it only by committing records (creation, accepted batches,
// acknowledged results, close, completion, removal, the cluster
// registry's token ceilings). A commit applies the record through the
// function replay uses and, with -data-dir, fsyncs it before its effects
// are observable: "accepted" implies "survives a crash", a result becomes
// visible only once its ack is on disk (so it is never re-delivered),
// "done" is announced only once durable, and submitted = completed +
// pending + lost holds by construction. A graspd started with
// -data-dir replays snapshot+journal on startup (before the cluster
// listener accepts a single registration), resumes unfinished jobs at
// their last durable cursor, re-delivers exactly the un-acked tasks, and
// re-adopts surviving workers through the normal re-register path;
// SIGTERM flushes a final compacting snapshot. The
// fault-injection recovery suite (TestRecovery*, FuzzJournalReplay,
// TestClusterE2EDaemonRecovery) proves the exactly-once contract across
// SIGKILL. See README.md's Durability section.
//
// # Predictive adaptation and admission control
//
// The paper's detector is reactive: Algorithm 2 recalibrates only after a
// completion time has already tripped the threshold. The predictive
// policy (per-job `adapt: "predictive"`, daemon default via -adapt) acts
// one step earlier. Inside the engine, every worker's normalised
// completion times feed a stats.TrendWindow forecaster that
// extrapolates the next completion; when a worker's forecast trend
// crosses 1.5× the rest of the fleet's mean, the engine reweights the
// membership and re-derives Z from the forecast before the detector
// trips, tagging the trace event `predictive=true` and counting it
// separately (predictive_recals,
// forecast values per worker in job status and `forecast` timeline
// events). At the service layer a per-job forecast loop (-forecast-every)
// extrapolates queue depth (submitted − completed): a predicted backlog
// autoscales the job's effective fair share through the allocator — a
// cluster job instead records advisory node demand with the coordinator,
// surfaced on /api/v1/nodes for an external autoscaler — and, past
// -shed-factor × window, admission control sheds further pushes with HTTP
// 429 + Retry-After until the forecast falls back,
// shedding load instead of buffering it without bound. loadgen grows
// seeded slow-node degradation schedules for the simulator, and
// graspworker's -degrade-after/-degrade-factor script a straggling node
// across real process boundaries. E29, TestForecastAutoscalesTheShare and the
// scenario suite (TestScenarioE2EFlashCrowd, TestScenarioE2ESlowNode) hold
// the policy to its claims: strictly fewer breaches than reactive on the
// same degradation, a forecast over the window lifting the job's share,
// and overload answered with 429s while every admitted task still
// completes exactly once. See README.md's "Overload & admission
// control" section.
//
// # Observability layer
//
// Every job carries a bounded trace ring (internal/trace): dispatch,
// completion, calibration, breach, recalibration, adaptation, and phase
// events are appended as they happen and served live at
// /api/v1/jobs/{name}/timeline — JSON events from an `after` cursor,
// closed phase spans, and completion-throughput buckets, or a CSV dump
// with format=csv; the coordinator keeps its own trace at
// /api/v1/cluster/timeline. internal/metrics adds fixed-bucket
// histograms (task latency, journal fsync, lease wait, results batch
// size) and renders /metrics in Prometheus text exposition format, the
// daemons' one exposition. Both daemons log through
// log/slog with per-job/per-node fields (-log-format, -log-level) and
// mount net/http/pprof on a separate -debug-addr listener. The
// instrumentation is budgeted, not just present: histogram Observe and
// the trace ring's Append are zero-allocation, and CI's ladder ratio gate
// fails if one observation plus two appends cost a task more than 5% of
// its binary-wire time in the same bench/ladder run. TestHTTPTimeline
// reads a job's phases and per-task events back from the endpoint alone,
// and TestServiceThreeConcurrentStreamingJobs checks each job's breaches
// and recalibrations in its trace against its status.
// See README.md's Observability section.
package grasp

//go:generate go run ./cmd/graspbench -write-docs
