package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
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
// flags. It changes only through enqueued records, applied with the
// function replay uses — so a restart rebuilds exactly the state pollers
// were reading and compaction's snapshot is that state marshalled — and,
// on a durable service, journaled and fsynced by the wal's flusher.
// Nothing on the dispatch path waits for the fsync:
//
//   - Submit commits the create record before the job is published;
//   - Push queues the accepted batch, feeds the engine while it syncs, and
//     answers once it is durable (so "accepted" implies "survives a crash");
//   - onResult queues the ack and returns; the flusher advances the job's
//     visibility watermark (Job.completed) once the ack is durable. Apply
//     runs ahead of the fsync, but pollers read only below the watermark,
//     so visible still implies durable — a cursor advanced past a result
//     never sees that task re-delivered.
//
// A service opened without a DataDir gets the same wal with no store:
// enqueue is lock, apply, unlock — nothing is marshalled, queued or
// synced, no goroutine runs, and Pending is not tracked because nothing
// can be re-delivered.

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
	// fed, set on a live push's batch, marks tasks that reach the engine
	// while the record syncs: like an ack, the record still applies if the
	// wal latches before its batch is carved, so every task that runs is
	// counted submitted.
	fed bool
}

// walJob is one job's state: the defaulted spec, lifecycle flags, the
// accepted-but-unacknowledged tasks (Pending — exactly what recovery must
// re-deliver; nil when none, so snapshots omit it) and the acknowledged
// results under the retention bound, guarded by the owning wal's lock.
// Submitted == ResultsBase + len(Results) + len(Pending.tasks()) + Lost
// (once done, if Pending is not kept).
type walJob struct {
	Spec        JobSpec       `json:"spec"`
	Closed      bool          `json:"closed,omitempty"`
	Done        bool          `json:"done,omitempty"`
	Lost        int           `json:"lost,omitempty"`
	Submitted   int           `json:"submitted,omitempty"`
	Pending     *pendingTasks `json:"pending,omitempty"`
	Results     []TaskResult  `json:"results,omitempty"`
	ResultsBase int           `json:"results_base,omitempty"`
}

// completed counts the acknowledged results, retained or trimmed.
func (wj *walJob) completed() int { return wj.ResultsBase + len(wj.Results) }

// pendingTasks is a job's un-acked tasks in accept order (resume's
// order), indexed so an ack retires its task in O(1) amortised: the slot
// is marked, and the slots compact once fewer than half are live. Ids may
// repeat; an ack retires its id's first pending occurrence, so each id's
// slots are chained. It serialises as the list of pending tasks.
type pendingTasks struct {
	slots []pendingSlot
	ids   map[int][2]int // id → its first and last pending slot
	live  int
}

type pendingSlot struct {
	task  TaskSpec
	next  int // the id's next pending slot, or -1
	acked bool
}

// push appends one task; the zero value is an empty set.
func (p *pendingTasks) push(ts TaskSpec) {
	if p.ids == nil {
		p.ids = make(map[int][2]int)
	}
	i := len(p.slots)
	p.slots = append(p.slots, pendingSlot{task: ts, next: -1})
	run, ok := p.ids[ts.ID]
	if ok {
		p.slots[run[1]].next = i
	} else {
		run[0] = i
	}
	p.ids[ts.ID] = [2]int{run[0], i}
	p.live++
}

// retire removes id's first pending occurrence, if any, and returns how
// many tasks are left.
func (p *pendingTasks) retire(id int) int {
	run, ok := p.ids[id]
	if !ok {
		return p.live
	}
	s := &p.slots[run[0]]
	s.acked, p.live = true, p.live-1
	if s.next < 0 {
		delete(p.ids, id)
	} else {
		p.ids[id] = [2]int{s.next, run[1]}
	}
	if 2*p.live < len(p.slots) { // compact in place: no slot moves up
		old := p.slots
		p.slots, p.live = old[:0], 0
		clear(p.ids)
		for _, s := range old {
			if !s.acked {
				p.push(s.task)
			}
		}
	}
	return p.live
}

// tasks copies the pending tasks out in accept order; a nil set has none.
func (p *pendingTasks) tasks() []TaskSpec {
	if p == nil || p.live == 0 {
		return nil
	}
	out := make([]TaskSpec, 0, p.live)
	for _, s := range p.slots {
		if !s.acked {
			out = append(out, s.task)
		}
	}
	return out
}

func (p *pendingTasks) MarshalJSON() ([]byte, error) { return json.Marshal(p.tasks()) }

func (p *pendingTasks) UnmarshalJSON(raw []byte) error {
	var tasks []TaskSpec
	err := json.Unmarshal(raw, &tasks)
	for _, ts := range tasks {
		p.push(ts)
	}
	return err
}

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
			case !st.volatile && len(rec.Tasks) > 0:
				if wj.Pending == nil {
					wj.Pending = new(pendingTasks)
				}
				for _, ts := range rec.Tasks {
					wj.Pending.push(ts)
				}
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
	if wj.Pending != nil && wj.Pending.retire(r.ID) == 0 {
		wj.Pending = nil
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
	Size() int64
	Rotate(state []byte) error
	Close() error
}

// walCommit is one record queued for the flusher: the decoded record
// (applied to the state when its batch is carved), its marshalled bytes,
// and then, which receives the batch's outcome.
type walCommit struct {
	rec  walRecord
	raw  []byte
	then func(error)
}

// wal owns the state and, on a durable service, the store behind it. All
// methods are safe for concurrent use; a storage error latches (fail-stop
// durability): no further byte reaches the store and every later request
// is refused, so the daemon degrades loudly instead of silently diverging
// from its journal. Acks and fed pushes still apply (latchedApplies):
// tasks a push fed before its batch failed may still run and publish,
// counted and visible though never durable.
//
// Records are group-committed by one flusher goroutine per durable wal,
// in bounded batches — one write syscall and one fsync each. Whatever
// queued while an fsync was in flight is the next batch: a lone
// committer's batch is its one record, concurrent pushers share an fsync,
// and a job's acks coalesce with no timer.
//
// Lock order: a job's j.mu before w.mu, never the reverse. Job.Results and
// Job.Status hold j.mu across wal.view (so the visibility watermark cannot
// pass what they read), which takes w.mu. The flusher therefore delivers
// outcomes — which take j.mu to advance a watermark — with w.mu released,
// strictly in queue order: a done record's waiter runs only after every
// earlier ack's completion, so a status that says done serves every result.
type wal struct {
	mu    sync.Mutex
	wake  *sync.Cond // signalled when the queue grows or the wal closes
	store walStore   // nil: an in-memory service; enqueue only applies
	state walState

	// queue is the group-commit core: records wait here, in journal order,
	// for the flusher; flushed closes when the flusher has drained it and
	// exited (close waits for it).
	queue   []*walCommit
	flushed chan struct{}

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
	w.wake = sync.NewCond(&w.mu)
	if store != nil {
		w.flushed = make(chan struct{})
		go w.flush()
	}
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
	var st walState
	if rec.Snapshot != nil {
		if err := json.Unmarshal(rec.Snapshot, &st); err != nil {
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
		st.apply(r)
	}
	w := newWAL(store, opt)
	w.state = st // the flusher reads the state only once a record is queued
	return w, nil
}

// errWALClosed: the service has shut down; nothing was applied or journaled.
var errWALClosed = errors.New("service: wal is closed")

// enqueue hands rec to the wal without waiting for the disk. With no
// store, rec applies before enqueue returns and then is never called. With
// one, rec's place in the queue fixes its journal position and apply
// order; the flusher applies it when it carves rec's batch, journals and
// fsyncs the batch, and calls then with the outcome: nil once rec is
// durable. An error means rec was refused unapplied and then will not be
// called: the wal is closed, or latched and rec is not an ack.
func (w *wal) enqueue(rec walRecord, then func(error)) error {
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
	defer w.mu.Unlock()
	if w.closed {
		return errWALClosed
	}
	if w.err == nil && merr != nil {
		// A record that cannot marshal can never reach the journal: latch,
		// exactly as a storage error would.
		w.err = merr
	}
	if w.err != nil && rec.Kind != walResults && rec.Kind != walDone {
		return w.err
	}
	w.queue = append(w.queue, &walCommit{rec: rec, raw: raw, then: then})
	w.wake.Signal()
	return nil
}

// applied is the outcome of a record applied in memory: closed, it reads
// nil at once.
var applied = func() chan error { c := make(chan error); close(c); return c }()

// begin is enqueue with the outcome delivered on the returned channel
// (applied, in memory): Push feeds its batch before the receive.
func (w *wal) begin(rec walRecord) (<-chan error, error) {
	if w.store == nil {
		return applied, w.enqueue(rec, nil)
	}
	synced := make(chan error, 1)
	return synced, w.enqueue(rec, func(err error) { synced <- err })
}

// commit is enqueue plus the wait: once it returns nil, rec has applied
// and, on a durable wal, is fsynced. Its caller has acted on nothing yet,
// so a latch that overtakes rec in the queue refuses it — unless it is a
// done record, which settles work already accepted.
func (w *wal) commit(rec walRecord) error {
	synced, err := w.begin(rec)
	if err != nil {
		return err
	}
	return <-synced
}

// latchedApplies reports whether a record carved after the wal latched
// still applies: acks of accepted work (results, done), so publication is
// not suppressed, and a push's batch whose tasks are being fed.
func latchedApplies(rec walRecord) bool {
	return rec.Kind == walResults || rec.Kind == walDone || rec.fed
}

// flush is a durable wal's flusher goroutine: it carves a bounded batch,
// applies it in queue order, journals it (one write, one fsync), delivers
// every outcome in queue order with w.mu released, and repeats — until the
// wal is closed and the queue drained. Only the flusher mutates the state,
// so a rotation can marshal it unlocked.
func (w *wal) flush() {
	defer close(w.flushed)
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for len(w.queue) == 0 && !w.closed {
			w.wake.Wait()
		}
		if len(w.queue) == 0 {
			return
		}
		batch := w.takeBatch()
		// Application stays ordered with the journal: records are applied
		// under the lock, in queue order, before their bytes are written —
		// the exact order replay will see. Past a latch nothing is written,
		// and only what was already under way applies.
		err := w.err
		for _, c := range batch {
			if err == nil || latchedApplies(c.rec) {
				w.state.apply(c.rec)
			}
		}
		if err == nil {
			w.mu.Unlock()
			err = w.flushBatch(batch)
			w.mu.Lock()
			if err == nil && w.store.Size() > w.opt.maxBytes {
				err = w.rotate()
			}
			if err != nil {
				w.err = err
				if w.log != nil {
					w.log.Error("wal commit failed; latching fail-stop",
						"err", err, "records", len(batch), "batched", len(batch) > 1)
				}
			}
		}
		w.mu.Unlock()
		for _, c := range batch {
			c.then(err)
		}
		w.mu.Lock()
	}
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
// single fsync covering every record in the batch. Called by the flusher
// with w.mu released; it is the only goroutine touching the store until
// close.
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

// rotate folds the state into a fresh snapshot. Called with w.mu held, by
// the flusher or by close once the flusher has exited; the marshal and the
// store I/O run with the lock released — safe because only the flusher
// mutates the state. Records still queued are not in the snapshot: they
// are journaled after it, so replay applies them exactly once.
func (w *wal) rotate() error {
	w.mu.Unlock()
	snap, err := json.Marshal(w.state)
	if err == nil {
		err = w.store.Rotate(snap)
	}
	w.mu.Lock()
	return err
}

// close refuses further records, waits for the flusher to drain what is
// queued (their outcomes delivered) and exit, takes a final snapshot
// (compacting the journal away), and releases the store — the
// graceful-shutdown flush. Safe to call more than once; a wal with no
// store has nothing to flush and keeps serving.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.store == nil {
		return nil
	}
	w.closed = true
	w.wake.Signal()
	w.mu.Unlock()
	<-w.flushed
	w.mu.Lock()
	var err error
	if w.err == nil {
		// closed is set and the flusher has exited, so the state is frozen.
		err = w.rotate()
	}
	if cerr := w.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// ackInline is onResult's in-memory ack: unlike an enqueued record, it
// allocates nothing.
func (w *wal) ackInline(wj *walJob, r TaskResult) {
	w.mu.Lock()
	wj.ack(r)
	w.mu.Unlock()
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
	return wj.Pending.tasks()
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
