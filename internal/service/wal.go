package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"grasp/internal/cluster"
	"grasp/internal/journal"
	"grasp/internal/metrics"
)

// The service's write-ahead log — and the one place a job's task pool
// lives: the walJob in wal.state is the only holder of a job's submitted
// count, pending tasks, retained results, lost count and closed/done
// flags. It changes only through commit, which applies the record — with
// the function replay uses, so a restart rebuilds exactly the state
// pollers were reading and compaction's snapshot is that state marshalled
// — and, on a durable service, journals and fsyncs it before returning:
//
//   - Submit commits the create record before the job is published;
//   - Push commits the accepted batch before a single task reaches the
//     engine (so "accepted" implies "survives a crash");
//   - onResult commits the ack before it advances the job's visibility
//     watermark (Job.completed): apply runs ahead of the fsync, but pollers
//     read only below the watermark, so visible still implies durable — a
//     cursor advanced past a result never sees that task re-delivered.
//
// A service opened without a DataDir gets the same wal with no store:
// commit is lock, apply, unlock — nothing is marshalled, queued or synced,
// and Pending is not tracked because nothing can be re-delivered. With a
// store, concurrent committers coalesce into batches journaled through one
// write syscall and one fsync, so durable ingest throughput scales with
// concurrency instead of being capped at the disk's serial fsync rate.

// walRecord kinds.
const (
	walCreate  = "create"
	walTasks   = "tasks"
	walResults = "results"
	walClose   = "close"
	walDone    = "done"
	walRemove  = "remove"
	walCluster = "cluster"
)

// walRecord is one journaled mutation.
type walRecord struct {
	Kind    string                 `json:"kind"`
	Job     string                 `json:"job,omitempty"`
	Spec    *JobSpec               `json:"spec,omitempty"`
	Tasks   []TaskSpec             `json:"tasks,omitempty"`
	Results []TaskResult           `json:"results,omitempty"`
	Cluster *cluster.RegistryState `json:"cluster,omitempty"`

	// adopt, set on a live create, is the walJob the submitting Job already
	// holds; apply installs it instead of allocating one.
	adopt *walJob
}

// walJob is one job's state: the defaulted spec, lifecycle flags, the
// accepted-but-unacknowledged tasks (Pending — exactly what recovery must
// re-deliver) and the acknowledged results under the retention bound,
// guarded by the owning wal's lock. Submitted == ResultsBase +
// len(Results) + len(Pending) + Lost (once done, if Pending is not kept).
type walJob struct {
	Spec        JobSpec      `json:"spec"`
	Closed      bool         `json:"closed,omitempty"`
	Done        bool         `json:"done,omitempty"`
	Lost        int          `json:"lost,omitempty"`
	Submitted   int          `json:"submitted,omitempty"`
	Pending     []TaskSpec   `json:"pending,omitempty"`
	Results     []TaskResult `json:"results,omitempty"`
	ResultsBase int          `json:"results_base,omitempty"`
}

// completed counts the acknowledged results, retained or trimmed.
func (wj *walJob) completed() int { return wj.ResultsBase + len(wj.Results) }

// walState is the full state — the snapshot payload.
type walState struct {
	Jobs    map[string]*walJob     `json:"jobs,omitempty"`
	Cluster *cluster.RegistryState `json:"cluster,omitempty"`

	// volatile: no store behind the state, so Pending is not tracked.
	volatile bool
}

// apply folds one record into the state. It must be deterministic and
// total: replay calls it on every journaled record and commit calls it on
// the live state, so what a restart rebuilds is what pollers were reading.
// Records referencing unknown jobs (a remove journaled, then replayed
// against a snapshot already past it) are ignored.
func (st *walState) apply(rec walRecord) {
	if st.Jobs == nil {
		st.Jobs = make(map[string]*walJob)
	}
	wj := st.Jobs[rec.Job]
	switch rec.Kind {
	case walCreate:
		if rec.Spec != nil {
			wj = rec.adopt
			if wj == nil {
				wj = new(walJob)
			}
			wj.Spec = *rec.Spec
			st.Jobs[rec.Job] = wj
		}
	case walTasks:
		if wj != nil {
			wj.Submitted += len(rec.Tasks)
			switch {
			case wj.Done: // a push racing the last node's death: counted, never run
				wj.Lost += len(rec.Tasks)
			case !st.volatile:
				wj.Pending = append(wj.Pending, rec.Tasks...)
			}
		}
	case walResults:
		if wj != nil {
			for _, r := range rec.Results {
				wj.ack(r)
			}
		}
	case walClose:
		if wj != nil {
			wj.Closed = true
		}
	case walDone:
		if wj != nil {
			// What was accepted and has not completed is lost, not re-delivered.
			wj.Done = true
			wj.Lost = max(wj.Submitted-wj.completed(), 0)
			wj.Pending = nil
		}
	case walRemove:
		delete(st.Jobs, rec.Job)
	case walCluster:
		st.Cluster = rec.Cluster
	}
}

// ack settles one acknowledged result: the first pending occurrence of
// its task id is retired (redelivery after a crash re-pushes exactly the
// un-acked remainder) and the result joins the retained slice, trimmed
// back to MaxResults once the overshoot reaches a quarter of it (slack, so
// the copy amortises; it reallocates, so a poller's sub-slice stays put).
func (wj *walJob) ack(r TaskResult) {
	for i := range wj.Pending {
		if wj.Pending[i].ID == r.ID {
			wj.Pending = slices.Delete(wj.Pending, i, i+1) // in place: resume copies
			break
		}
	}
	wj.Results = append(wj.Results, r)
	if slack := wj.Spec.MaxResults / 4; len(wj.Results) > wj.Spec.MaxResults+max(slack, 1) {
		drop := len(wj.Results) - wj.Spec.MaxResults
		wj.ResultsBase += drop
		wj.Results = append(wj.Results[:0:0], wj.Results[drop:]...)
	}
}

// walStore is the slice of journal.Store the wal drives, as an interface
// so fault-injection tests can interpose failing stores between the
// group-commit machinery and the disk. *journal.Store is the production
// implementation.
type walStore interface {
	AppendBatch(payloads [][]byte) error
	Sync() error
	JournalSize() int64
	Rotate(state []byte) error
	Close() error
}

// walCommit is one record enqueued for the flush leader: the decoded
// record (applied to the state in queue order), its marshalled bytes,
// and the channel the leader delivers the batch's shared result on.
type walCommit struct {
	rec  walRecord
	raw  []byte
	done chan error
}

// wal owns the state and, on a durable service, the store behind it. All
// methods are safe for concurrent use; a storage error latches (fail-stop
// durability): every later commit reports it and appends nothing, so the
// daemon can degrade loudly instead of silently diverging from its
// journal.
//
// Commits are group-committed: concurrent committers enqueue, the first
// to find no leader becomes one and drains the queue in bounded batches —
// one write syscall and one fsync per batch — then wakes every member
// with the shared result. A single uncontended commit degenerates to the
// old serial path (a batch of one); under 16 concurrent pushers the disk
// sees one fsync for the whole convoy.
//
// Lock order: a job's j.mu before w.mu, never the reverse. Job.Results and
// Job.Status hold j.mu across wal.view (so the visibility watermark cannot
// pass what they read), which takes w.mu. Nothing the flush leader calls
// into a job — advancing a watermark from the leader, say — may therefore
// run under w.mu: the leader only signals each commit's buffered done
// channel, and the committer touches its job after commit has returned.
type wal struct {
	mu    sync.Mutex
	idle  *sync.Cond // signalled when a flush round retires (flushing → false)
	store walStore   // nil: an in-memory service; commit only applies
	state walState

	// queue and flushing are the group-commit core. Committers append to
	// queue under mu; flushing marks a live leader, which also guarantees
	// exclusive store access while the lock is released around I/O.
	queue    []*walCommit
	flushing bool

	opt walOptions // defaults resolved

	err    error
	closed bool

	// hFsync, when set (Open wires it to the service registry), observes
	// every batch's fsync time — the floor under durable-path latency.
	// hBatch observes how many records each flush coalesced.
	hFsync *metrics.Histogram
	hBatch *metrics.Histogram
	log    *slog.Logger
}

const (
	// defaultMaxJournalBytes triggers compaction once the journal outgrows it.
	defaultMaxJournalBytes = 8 << 20
	// defaultMaxBatch bounds one flush by record count; with 9-byte
	// frames and small records this keeps wakeup convoys and batch latency
	// bounded while still amortising the fsync ~two orders of magnitude.
	defaultMaxBatch = 256
	// defaultMaxBatchBytes bounds one flush by marshalled payload, so
	// a convoy of maximal task batches cannot buffer unbounded memory.
	defaultMaxBatchBytes = 4 << 20
)

// walOptions tunes the group-commit flush loop. The zero value means
// defaults everywhere.
type walOptions struct {
	// maxBytes triggers snapshot compaction once the journal outgrows it.
	maxBytes int64
	// maxBatch caps records per flush. No service sets it: 1 reproduces the
	// serial one-fsync-per-record discipline, the reference
	// BenchmarkDurableIngest and the group-commit tests compare against.
	maxBatch int
	// maxBatchBytes caps marshalled bytes per flush.
	maxBatchBytes int64
}

func (o walOptions) withDefaults() walOptions {
	if o.maxBytes <= 0 {
		o.maxBytes = defaultMaxJournalBytes
	}
	if o.maxBatch <= 0 {
		o.maxBatch = defaultMaxBatch
	}
	if o.maxBatchBytes <= 0 {
		o.maxBatchBytes = defaultMaxBatchBytes
	}
	return o
}

// newWAL wires the group-commit machinery over an open store (shared by
// openWAL and the fault-injection tests); nil: an in-memory service's wal.
func newWAL(store walStore, opt walOptions) *wal {
	w := &wal{
		store: store,
		state: walState{volatile: store == nil},
		opt:   opt.withDefaults(),
	}
	w.idle = sync.NewCond(&w.mu)
	return w
}

// openWAL recovers (or initialises) the durable state under dir; an empty
// dir opens a wal with no store and nothing to recover.
func openWAL(dir string, opt walOptions) (*wal, error) {
	if dir == "" {
		return newWAL(nil, opt), nil
	}
	store, rec, err := journal.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	w := newWAL(store, opt)
	if rec.Snapshot != nil {
		if err := json.Unmarshal(rec.Snapshot, &w.state); err != nil {
			store.Close()
			return nil, fmt.Errorf("service: wal snapshot: %w", err)
		}
	}
	for _, raw := range rec.Records {
		var r walRecord
		if err := json.Unmarshal(raw, &r); err != nil {
			// A record that framed correctly but does not parse is corruption
			// past what the CRC caught; refuse to guess at the state.
			store.Close()
			return nil, fmt.Errorf("service: wal record: %w", err)
		}
		w.state.apply(r)
	}
	return w, nil
}

// errWALClosed: the service has shut down; nothing was applied or journaled.
var errWALClosed = errors.New("service: wal is closed")

// commit applies rec to the state and makes it durable — journaled and
// fsynced before commit returns nil (without a store it only applies).
// Concurrent commits coalesce: this caller either joins the current
// leader's queue and sleeps until its batch's single fsync completes, or
// becomes the leader itself. Oversized journals compact inline (by the
// leader).
func (w *wal) commit(rec walRecord) error {
	if w.store == nil {
		w.mu.Lock()
		w.state.apply(rec)
		w.mu.Unlock()
		return nil
	}
	// Marshal outside the mutex: a slow marshal of a large task batch must
	// never extend the critical section or stall another committer's batch.
	raw, merr := json.Marshal(rec)

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return errWALClosed
	}
	if w.err != nil {
		err := w.latched(rec)
		w.mu.Unlock()
		return err
	}
	if merr != nil {
		// A record that cannot marshal can never reach the journal: latch,
		// exactly as a storage error would.
		w.err = merr
		w.mu.Unlock()
		return merr
	}
	c := &walCommit{rec: rec, raw: raw, done: make(chan error, 1)}
	w.queue = append(w.queue, c)
	if !w.flushing {
		// No leader in flight: this committer leads until the queue drains
		// (its own batch is delivered by the time flushLoop returns).
		w.flushLoop()
	}
	w.mu.Unlock()
	return <-c.done
}

// latched answers a record reaching a wal whose journal has failed:
// requests (create, tasks, close, remove) are refused unapplied; acks of
// accepted work (results, done) still apply, so publication is not
// suppressed. Called with w.mu held.
func (w *wal) latched(rec walRecord) error {
	if rec.Kind == walResults || rec.Kind == walDone {
		w.state.apply(rec)
	}
	return w.err
}

// flushLoop drains the queue as the flush leader: carve a bounded batch,
// apply it to the state in order, journal it through one write syscall
// and one fsync, deliver the shared result to every member, repeat.
// Called with w.mu held and returns with it held; the lock is released
// around the store I/O — which is when committers queue behind the leader
// — with the flushing flag keeping store access exclusive in between.
func (w *wal) flushLoop() {
	w.flushing = true
	for len(w.queue) > 0 {
		if w.err != nil {
			// Fail-stop: the error latched mid-drain, so everyone still
			// queued gets it without touching the store.
			for _, c := range w.queue {
				c.done <- w.latched(c.rec)
			}
			w.queue = nil
			break
		}
		batch := w.takeBatch()
		// Application stays ordered with the journal: records are applied
		// under the lock, in queue order, before their bytes are written —
		// the exact order replay will see.
		for _, c := range batch {
			w.state.apply(c.rec)
		}
		w.mu.Unlock()
		err := w.flushBatch(batch)
		w.mu.Lock()
		if err == nil && w.store.JournalSize() > w.opt.maxBytes {
			err = w.rotateAsLeader()
		}
		if err != nil {
			w.err = err
			if w.log != nil {
				w.log.Error("wal commit failed; latching fail-stop",
					"err", err, "records", len(batch), "batched", len(batch) > 1)
			}
		}
		for _, c := range batch {
			c.done <- err
		}
	}
	w.flushing = false
	w.idle.Broadcast()
}

// takeBatch carves the next flush batch off the queue, bounded by record
// count and marshalled bytes (always at least one record so a single
// oversized commit still progresses).
func (w *wal) takeBatch() []*walCommit {
	n, size := 0, int64(0)
	for n < len(w.queue) && n < w.opt.maxBatch {
		size += int64(len(w.queue[n].raw))
		if n > 0 && size > w.opt.maxBatchBytes {
			break
		}
		n++
	}
	batch := w.queue[:n:n]
	w.queue = w.queue[n:]
	return batch
}

// flushBatch journals one group: a single buffered write syscall, then a
// single fsync covering every record in the batch. Called by the leader
// with w.mu released; the flushing flag guarantees exclusive store
// access.
func (w *wal) flushBatch(batch []*walCommit) error {
	raws := make([][]byte, len(batch))
	for i, c := range batch {
		raws[i] = c.raw
	}
	err := w.store.AppendBatch(raws)
	if err == nil {
		syncStart := time.Now()
		err = w.store.Sync()
		if w.hFsync != nil {
			w.hFsync.ObserveDuration(time.Since(syncStart))
		}
	}
	if w.hBatch != nil {
		w.hBatch.Observe(float64(len(batch)))
	}
	if err == nil && w.log != nil && w.log.Enabled(context.Background(), slog.LevelDebug) {
		w.log.Debug("wal flush", "records", len(batch), "batched", len(batch) > 1)
	}
	return err
}

// rotateAsLeader folds the state into a fresh snapshot. Called with w.mu
// held, by the flush leader or by close; the snapshot marshal and the
// store I/O run with the lock released — safe because only the leader
// mutates the state while flushing is set (concurrent readers take the
// lock and only read), and close waits for the flush round to retire.
func (w *wal) rotateAsLeader() error {
	w.mu.Unlock()
	snap, err := json.Marshal(w.state)
	if err == nil {
		err = w.store.Rotate(snap)
	}
	w.mu.Lock()
	return err
}

// close waits for any in-flight flush round to retire, takes a final
// snapshot (compacting the journal away), and releases the store — the
// graceful-shutdown flush. Safe to call more than once; a wal with no
// store has nothing to flush and keeps serving.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.flushing {
		w.idle.Wait()
	}
	if w.closed || w.store == nil {
		return nil
	}
	w.closed = true
	var err error
	if w.err == nil {
		// closed is set and no flush is in flight, so the state is frozen.
		err = w.rotateAsLeader()
	}
	if cerr := w.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// view returns a copy of one job's state taken under the lock — O(1), as
// every read must be: pollers share this lock with the commit path. Pending
// is dropped (ack edits it in place; resume uses backlog); the rest stays valid.
func (w *wal) view(wj *walJob) walJob {
	w.mu.Lock()
	defer w.mu.Unlock()
	v := *wj
	v.Pending = nil
	return v
}

// backlog copies one job's un-acked tasks — what resume re-delivers.
func (w *wal) backlog(wj *walJob) []TaskSpec {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]TaskSpec(nil), wj.Pending...)
}

// jobs lists the replayed jobs in name order, for deterministic recovery.
func (w *wal) jobs() (names []string, jobs []*walJob) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for name := range w.state.Jobs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		jobs = append(jobs, w.state.Jobs[name])
	}
	return names, jobs
}

// clusterState returns the last journaled coordinator state (nil when
// none). The pointer is safe to share: cluster records replace it
// wholesale, never mutate it.
func (w *wal) clusterState() *cluster.RegistryState {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state.Cluster
}
