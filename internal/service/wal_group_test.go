package service

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"grasp/internal/journal"
	"grasp/internal/metrics"
)

// errDiskGone is the injected storage failure the latched-error tests
// assert on: every committer must surface exactly this error.
var errDiskGone = errors.New("injected: disk gone")

// failingStore wraps a real journal.Store and starts failing Sync after
// syncsLeft successful ones — the appends land in the file, the fsync
// covering them reports failure, which is precisely the
// crash-between-append-and-sync window for a group.
type failingStore struct {
	*journal.Store
	mu        sync.Mutex
	syncsLeft int
}

func (f *failingStore) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.syncsLeft <= 0 {
		return errDiskGone
	}
	f.syncsLeft--
	return f.Store.Sync()
}

// gatedStore wraps a real journal.Store, counts batches and records, and
// blocks its first Sync until the test releases the gate — pinning the
// flush leader mid-fsync so a convoy of followers provably queues behind
// one flush round.
type gatedStore struct {
	*journal.Store
	mu      sync.Mutex
	syncs   int
	records int
	gate    chan struct{}
}

func (g *gatedStore) AppendBatch(p [][]byte) error {
	g.mu.Lock()
	g.records += len(p)
	g.mu.Unlock()
	return g.Store.AppendBatch(p)
}

func (g *gatedStore) Sync() error {
	g.mu.Lock()
	g.syncs++
	first := g.syncs == 1
	g.mu.Unlock()
	if first {
		<-g.gate
	}
	return g.Store.Sync()
}

// walOverStore opens a real store in dir and hands it to the caller to
// wrap before the wal is built over it.
func walOverStore(t *testing.T, dir string) *journal.Store {
	t.Helper()
	store, rec, err := journal.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("expected a fresh store, replayed %+v", rec)
	}
	return store
}

// TestRecoveryGroupCommitCoalesces pins the flush leader inside its fsync
// and piles 31 followers behind it: the whole convoy must drain in
// exactly one more flush — 32 records, 2 batches, 2 fsyncs — and a
// replay over the same directory must agree with the live mirror record
// for record. This is the "fsyncs per record < 1" property made
// deterministic.
func TestRecoveryGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	gs := &gatedStore{Store: walOverStore(t, dir), gate: make(chan struct{})}
	w := newWAL(gs, walOptions{})

	const followers = 31
	var wg sync.WaitGroup
	errs := make([]error, followers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[0] = w.commit(walRecord{Kind: walCreate, Job: "g", Spec: &JobSpec{}})
	}()
	// The leader is mid-fsync once the gated Sync has been entered; every
	// commit from here on must join the queue rather than reach the store.
	waitUntil(t, 5*time.Second, "leader pinned in fsync", func() bool {
		gs.mu.Lock()
		defer gs.mu.Unlock()
		return gs.syncs == 1
	})
	for i := 0; i < followers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i+1] = w.commit(walRecord{Kind: walTasks, Job: "g", Tasks: []TaskSpec{{ID: i, Cost: 1}}})
		}()
	}
	waitUntil(t, 5*time.Second, "followers queued", func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.queue) == followers
	})
	close(gs.gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	gs.mu.Lock()
	syncs, records := gs.syncs, gs.records
	gs.mu.Unlock()
	if records != followers+1 {
		t.Fatalf("store absorbed %d records, want %d", records, followers+1)
	}
	if syncs != 2 {
		t.Fatalf("convoy took %d fsyncs, want exactly 2 (leader + one group)", syncs)
	}

	live := w.mirror()
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	replayed, err := openWAL(dir, walOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.close()
	if got := replayed.mirror(); !bytes.Equal(got, live) {
		t.Fatalf("replay diverges from live mirror:\nlive:     %s\nreplayed: %s", live, got)
	}
	_, jobs := replayed.jobs()
	if len(jobs) != 1 {
		t.Fatalf("replayed %d jobs, want 1", len(jobs))
	}
	if pending := replayed.backlog(jobs[0]); len(pending) != followers {
		t.Fatalf("replayed %d pending tasks, want %d", len(pending), followers)
	}
}

// TestRecoveryOneCommitterNeverBatches: with a single committer the queue
// never holds more than one record, so takeBatch never reaches the
// maxBatch bound and the group-commit wal (maxBatch 0 → 256) does exactly
// the serial one's work (maxBatch 1) — one fsync per record, every batch
// of size 1. Any throughput difference between the two modes at one
// pusher (BenchmarkDurableIngest's p1 pair) is the disk, not the code.
func TestRecoveryOneCommitterNeverBatches(t *testing.T) {
	const records = 64
	for _, maxBatch := range []int{0, 1} {
		cs := &countingStore{Store: walOverStore(t, t.TempDir())}
		w := newWAL(cs, walOptions{maxBatch: maxBatch})
		w.hBatch = metrics.NewRegistry().Histogram("service_commit_batch_size", metrics.BatchBuckets)
		if err := w.commit(walRecord{Kind: walCreate, Job: "one", Spec: &JobSpec{}}); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < records; i++ {
			if err := w.commit(walRecord{Kind: walTasks, Job: "one", Tasks: []TaskSpec{{ID: i, Cost: 1}}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		if got := cs.syncs.Load(); got != records {
			t.Errorf("maxBatch %d: %d fsyncs for %d records from one committer, want one each", maxBatch, got, records)
		}
		_, counts := w.hBatch.Buckets()
		if n := w.hBatch.Count(); n != records || counts[0] != records {
			t.Errorf("maxBatch %d: %d batches, %d of size 1, want %d of each", maxBatch, n, counts[0], records)
		}
	}
}

// TestRecoveryLatchedErrorConcurrent drives N goroutines through one
// failing store: the first batch whose fsync fails latches the wal, every
// committer — batched with the failure, queued behind it, or arriving
// after — must observe that same error, and the mirror must never diverge
// from what is actually in the journal (the failed group's appends landed
// in the file; its fsync did not, so none of its members were
// acknowledged).
func TestRecoveryLatchedErrorConcurrent(t *testing.T) {
	dir := t.TempDir()
	fs := &failingStore{Store: walOverStore(t, dir), syncsLeft: 1}
	w := newWAL(fs, walOptions{})

	// One durable record before the disk "fails", so replay has a prefix.
	if err := w.commit(walRecord{Kind: walCreate, Job: "latch", Spec: &JobSpec{}}); err != nil {
		t.Fatal(err)
	}

	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.commit(walRecord{Kind: walTasks, Job: "latch", Tasks: []TaskSpec{{ID: i, Cost: 1}}})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, errDiskGone) {
			t.Fatalf("commit %d returned %v, want the latched %v", i, err, errDiskGone)
		}
	}
	// The latch is permanent: a late committer gets the same error without
	// the store seeing another byte.
	if err := w.commit(walRecord{Kind: walClose, Job: "latch"}); !errors.Is(err, errDiskGone) {
		t.Fatalf("post-latch commit returned %v, want %v", err, errDiskGone)
	}

	// Fail-stop kept mirror and journal in agreement: every record the
	// mirror applied was appended before the failing fsync, so a replay of
	// the directory reconstructs the live mirror exactly — and none of the
	// failed commits were acknowledged, so nothing beyond the journal was
	// ever promised.
	live := w.mirror()
	// close skips the final snapshot on a latched wal (rotating would need
	// a working disk); it only releases the store.
	if err := w.close(); err != nil {
		t.Fatalf("close after latch: %v", err)
	}
	replayed, err := openWAL(dir, walOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.close()
	if got := replayed.mirror(); !bytes.Equal(got, live) {
		t.Fatalf("mirror diverged from journal after latched error:\nlive:     %s\nreplayed: %s", live, got)
	}
}

// TestRecoveryReplayDeterminismConcurrent is the replay-determinism
// property under the group path: many goroutines commit interleaved
// random schedules concurrently, so records coalesce into multi-record
// batches in nondeterministic orders — yet whatever order the leader
// journals must be exactly the order the mirror applied, and a fresh wal
// over the same directory must reconstruct a byte-identical state.
func TestRecoveryReplayDeterminismConcurrent(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			// A small cap forces compactions mid-convoy. The first fsync is
			// held until every other committer has queued behind it, so the
			// second flush is provably a multi-record batch; later ones
			// coalesce whatever queues during each fsync.
			gs := &gatedStore{Store: walOverStore(t, dir), gate: make(chan struct{})}
			w := newWAL(gs, walOptions{maxBytes: 4096})
			spec := JobSpec{}.withDefaults(Config{}.withDefaults())
			spec.MaxResults = 8
			const committers = 8
			var wg sync.WaitGroup
			for g := 0; g < committers; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed*100 + int64(g)))
					name := fmt.Sprintf("job-%d", g)
					if err := w.commit(walRecord{Kind: walCreate, Job: name, Spec: &spec}); err != nil {
						t.Error(err)
						return
					}
					for step := 0; step < 40; step++ {
						var rec walRecord
						switch rng.Intn(6) {
						case 0, 1, 2:
							rec = walRecord{Kind: walTasks, Job: name, Tasks: []TaskSpec{{ID: g*1000 + step, Cost: 1}}}
						case 3, 4:
							rec = walRecord{Kind: walResults, Job: name, Results: []TaskResult{
								{ID: g*1000 + rng.Intn(step+1), Worker: rng.Intn(4), Micros: int64(rng.Intn(1000))},
							}}
						case 5:
							rec = walRecord{Kind: walClose, Job: name}
						}
						if err := w.commit(rec); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			waitUntil(t, 5*time.Second, "the convoy to queue behind the pinned leader", func() bool {
				w.mu.Lock()
				defer w.mu.Unlock()
				return len(w.queue) == committers-1
			})
			close(gs.gate)
			wg.Wait()
			if t.Failed() {
				return
			}
			live := w.mirror()
			w.close()

			replayed, err := openWAL(dir, walOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer replayed.close()
			if got := replayed.mirror(); !bytes.Equal(got, live) {
				t.Fatalf("concurrent replay diverges:\nlive:     %s\nreplayed: %s", live, got)
			}
		})
	}
}

// TestRecoveryRedeliversExactlyTheUnacked recovers from a crash image that
// is written, not raced: five tasks accepted, two acknowledged, the
// directory copied with the wal still open. Every accepted task is in the
// recovered job's count (accepted ⇒ durable), exactly the three un-acked
// ones are re-delivered — service_tasks_redelivered_total says so — and the
// job drains with all five delivered once. TestRecoveryMidStreamCrash is
// the same contract with the crash point left to the scheduler.
func TestRecoveryRedeliversExactlyTheUnacked(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, walOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	spec := JobSpec{}.withDefaults(Config{}.withDefaults())
	const accepted, acked = 5, 2
	for _, rec := range []walRecord{
		{Kind: walCreate, Job: "redo", Spec: &spec},
		{Kind: walTasks, Job: "redo", Tasks: burst(0, accepted, 0)},
		{Kind: walResults, Job: "redo", Results: []TaskResult{{ID: 0}, {ID: 1}}},
	} {
		if err := w.commit(rec); err != nil {
			t.Fatal(err)
		}
	}

	s := durableService(t, copyDir(t, dir))
	defer s.Close()
	j, ok := s.Job("redo")
	if !ok {
		t.Fatal("job lost across the crash")
	}
	if st := j.Status(); st.Submitted != accepted {
		t.Errorf("recovered job reports %d submitted, want the %d accepted before the crash", st.Submitted, accepted)
	}
	if got := s.Metrics().Snapshot()["service_tasks_redelivered_total"]; got != accepted-acked {
		t.Errorf("service_tasks_redelivered_total = %d, want the %d un-acked tasks", got, accepted-acked)
	}
	if err := j.CloseInput(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 10*time.Second)
	results, _ := j.Results(0)
	assertExactlyOnceIDs(t, results, accepted)
	if st := j.Status(); st.Lost != 0 {
		t.Errorf("recovered job lost %d tasks", st.Lost)
	}
	assertConserved(t, s)
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
