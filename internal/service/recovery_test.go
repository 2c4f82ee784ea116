package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"grasp/internal/journal"
)

// The fault-injection recovery suite for the durable control plane. All
// tests here match -run TestRecovery, which CI loops under -race. The
// crash tests use the crash-copy technique: while the first service is
// live, its data directory is copied byte-for-byte and a second service
// recovers from the copy. The copy is a legitimate point-in-time crash
// image — a SIGKILL preserves exactly what had reached the filesystem —
// and because the copier may catch an append mid-record, it exercises
// the torn-tail truncation path for free.

// mirror returns a serialised copy of the wal's state: what the
// replay-determinism properties compare a live wal and its replay by.
func (w *wal) mirror() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	raw, _ := json.Marshal(w.state)
	return raw
}

// copyDir snapshots src into a fresh directory — the simulated crash
// image of a running daemon's data dir.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// durableService opens a small durable service over dir.
func durableService(t *testing.T, dir string) *Service {
	t.Helper()
	s, err := Open(Config{Workers: 2, WarmupTasks: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// assertExactlyOnceIDs checks results cover ids 0..n-1 exactly once.
func assertExactlyOnceIDs(t *testing.T, results []TaskResult, n int) {
	t.Helper()
	seen := make(map[int]int, n)
	for _, r := range results {
		seen[r.ID]++
	}
	for id := 0; id < n; id++ {
		if seen[id] != 1 {
			t.Errorf("task %d delivered %d times, want exactly once", id, seen[id])
		}
	}
	if len(results) != n {
		t.Errorf("delivered %d results, want %d", len(results), n)
	}
}

// TestRecoveryGracefulShutdownAndReopen is the SIGTERM satellite's unit
// test: Close flushes a final snapshot + fsync, and a reopen restores the
// finished job — results, counters, cursors — from the compacted
// snapshot alone.
func TestRecoveryGracefulShutdownAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := durableService(t, dir)
	j, err := s.Submit("graceful", JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	if _, err := j.Push(burst(0, n, 100)); err != nil {
		t.Fatal(err)
	}
	if err := j.CloseInput(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 10*time.Second)
	assertConserved(t, s)
	// What pollers read is the state the wal applied, so what a restart
	// replays must be that state and that status, byte for byte.
	live, before := s.wal.mirror(), countsOf(j.Status())
	if err := s.Close(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// The flush compacts: the journal is folded into the snapshot, so the
	// current epoch's journal holds no records.
	w2, err := openWAL(dir, walOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if size := w2.store.JournalSize(); size != 0 {
		t.Errorf("journal holds %d bytes after graceful shutdown, want a compacted 0", size)
	}
	w2.close()

	s2 := durableService(t, dir)
	defer s2.Close()
	j2, ok := s2.Job("graceful")
	if !ok {
		t.Fatal("job lost across graceful restart")
	}
	assertConserved(t, s2)
	if replayed := s2.wal.mirror(); !bytes.Equal(replayed, live) {
		t.Errorf("replayed state diverges from the state pollers read:\nlive:     %s\nreplayed: %s", live, replayed)
	}
	if after := countsOf(j2.Status()); after != before {
		t.Errorf("status changed across the restart: live %+v, replayed %+v", before, after)
	}
	st := j2.Status()
	if st.State != JobDone {
		t.Fatalf("recovered state = %s, want done", st.State)
	}
	if st.Submitted != n || st.Completed != n {
		t.Errorf("recovered counters submitted=%d completed=%d, want %d/%d", st.Submitted, st.Completed, n, n)
	}
	results, next := j2.Results(0)
	assertExactlyOnceIDs(t, results, n)
	if next != n {
		t.Errorf("recovered cursor next = %d, want %d", next, n)
	}
}

// TestRecoveryCloseIsIdempotent: double Close must not error (the signal
// handler and a deferred cleanup may both fire).
func TestRecoveryCloseIsIdempotent(t *testing.T) {
	s := durableService(t, t.TempDir())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	assertConserved(t, s)
}

// TestRecoveryMidStreamCrash is the core fault injection: the data dir is
// crash-copied while a job streams, and the recovered service must finish
// the job with every task delivered exactly once — the replayed backlog
// (accepted but un-acked at the crash point) is re-delivered, and nothing
// a poller could already have seen is delivered twice.
func TestRecoveryMidStreamCrash(t *testing.T) {
	dir := t.TempDir()
	s := durableService(t, dir)
	defer s.Close()
	j, err := s.Submit("crashy", JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	if _, err := j.Push(burst(0, n, 500)); err != nil {
		t.Fatal(err)
	}
	// Let some tasks complete so the crash image holds a mix of acked and
	// pending work.
	deadline := time.Now().Add(10 * time.Second)
	for j.Status().Completed < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	assertConserved(t, s)
	crash := copyDir(t, dir) // SIGKILL equivalent: state as of this instant

	s2 := durableService(t, crash)
	defer s2.Close()
	j2, ok := s2.Job("crashy")
	if !ok {
		t.Fatal("job lost across crash")
	}
	// Recovery re-attached the runner; the job streams on. Push more work
	// post-recovery, then drain.
	if _, err := j2.Push(burst(n, 10, 100)); err != nil {
		t.Fatalf("push after recovery: %v", err)
	}
	if err := j2.CloseInput(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2, 20*time.Second)
	results, _ := j2.Results(0)
	assertExactlyOnceIDs(t, results, n+10)
	if st := j2.Status(); st.Lost != 0 {
		t.Errorf("recovered job lost %d tasks", st.Lost)
	}
	assertConserved(t, s2)
}

// TestRecoveryCursorStability: a poller's cursor from before the crash
// remains valid after it — the recovered results slice preserves
// positions, so polling resumes where it left off with no gap and no
// repeat.
func TestRecoveryCursorStability(t *testing.T) {
	dir := t.TempDir()
	s := durableService(t, dir)
	defer s.Close()
	j, err := s.Submit("cursor", JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	if _, err := j.Push(burst(0, n, 200)); err != nil {
		t.Fatal(err)
	}
	// Poll a prefix before the crash.
	deadline := time.Now().Add(10 * time.Second)
	var cursor int
	var pre []TaskResult
	for len(pre) < 8 && time.Now().Before(deadline) {
		batch, next := j.Results(cursor)
		pre = append(pre, batch...)
		cursor = next
		time.Sleep(time.Millisecond)
	}

	assertConserved(t, s)
	crash := copyDir(t, dir)
	s2 := durableService(t, crash)
	defer s2.Close()
	j2, _ := s2.Job("cursor")
	if j2 == nil {
		t.Fatal("job lost across crash")
	}
	if err := j2.CloseInput(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2, 20*time.Second)
	// Resume polling from the pre-crash cursor: the union must be exactly
	// once. (The recovered service may not have seen every pre-crash ack —
	// un-acked tasks re-deliver — but everything at a cursor position the
	// poller already consumed is journaled, never re-delivered.)
	post, _ := j2.Results(cursor)
	assertExactlyOnceIDs(t, append(append([]TaskResult(nil), pre...), post...), n)
	assertConserved(t, s2)
}

// TestRecoveryClosedJobDrains: a job whose input was closed before the
// crash recovers, re-delivers its backlog, and drains to done without any
// further client action.
func TestRecoveryClosedJobDrains(t *testing.T) {
	dir := t.TempDir()
	s := durableService(t, dir)
	defer s.Close()
	j, err := s.Submit("closed", JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 15
	if _, err := j.Push(burst(0, n, 300)); err != nil {
		t.Fatal(err)
	}
	if err := j.CloseInput(); err != nil {
		t.Fatal(err)
	}

	assertConserved(t, s)
	crash := copyDir(t, dir)
	s2 := durableService(t, crash)
	defer s2.Close()
	j2, _ := s2.Job("closed")
	if j2 == nil {
		t.Fatal("job lost across crash")
	}
	waitDone(t, j2, 20*time.Second)
	results, _ := j2.Results(0)
	assertExactlyOnceIDs(t, results, n)
	if st := j2.Status(); st.State != JobDone {
		t.Errorf("state = %s, want done", st.State)
	}
	assertConserved(t, s2)
}

// TestRecoveryRemovedJobStaysRemoved: a removed job must not resurrect.
func TestRecoveryRemovedJobStaysRemoved(t *testing.T) {
	dir := t.TempDir()
	s := durableService(t, dir)
	j, err := s.Submit("removed", JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Push(burst(0, 5, 50)); err != nil {
		t.Fatal(err)
	}
	j.CloseInput()
	waitDone(t, j, 10*time.Second)
	assertConserved(t, s)
	if err := s.Remove("removed"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := durableService(t, dir)
	defer s2.Close()
	if _, ok := s2.Job("removed"); ok {
		t.Fatal("removed job resurrected by recovery")
	}
	assertConserved(t, s2)
}

// TestRecoveryReplayDeterminism is the property the whole design rests
// on: after any sequence of journaled operations, replay(snapshot+log)
// must equal the live mirror state exactly. A random schedule of
// create/tasks/results/close/done/remove/cluster records — interleaved
// with compactions — is committed to a live wal, and a fresh wal opened
// over the same directory must reconstruct a byte-identical state.
func TestRecoveryReplayDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			// A small cap forces several compactions through the schedule.
			w, err := openWAL(dir, walOptions{maxBytes: 4096})
			if err != nil {
				t.Fatal(err)
			}
			spec := JobSpec{}.withDefaults(Config{}.withDefaults())
			spec.MaxResults = 8 // tiny retention so trims replay too
			jobs := []string{"a", "b", "c"}
			nextID := 0
			for step := 0; step < 200; step++ {
				name := jobs[rng.Intn(len(jobs))]
				var rec walRecord
				switch rng.Intn(10) {
				case 0, 1:
					rec = walRecord{Kind: walCreate, Job: name, Spec: &spec}
				case 2, 3, 4:
					tasks := make([]TaskSpec, 1+rng.Intn(4))
					for i := range tasks {
						tasks[i] = TaskSpec{ID: nextID, Cost: 1}
						nextID++
					}
					rec = walRecord{Kind: walTasks, Job: name, Tasks: tasks}
				case 5, 6, 7:
					rec = walRecord{Kind: walResults, Job: name, Results: []TaskResult{
						{ID: rng.Intn(max(nextID, 1)), Worker: rng.Intn(4), Micros: int64(rng.Intn(1000))},
					}}
				case 8:
					switch rng.Intn(3) {
					case 0:
						rec = walRecord{Kind: walClose, Job: name}
					case 1:
						rec = walRecord{Kind: walDone, Job: name}
					case 2:
						rec = walRecord{Kind: walRemove, Job: name}
					}
				case 9:
					rec = walRecord{Kind: walCluster, Cluster: nil}
				}
				if err := w.commit(rec); err != nil {
					t.Fatal(err)
				}
			}
			live := w.mirror()
			w.close() // includes a final compaction; replay must still agree

			replayed, err := openWAL(dir, walOptions{maxBytes: 4096})
			if err != nil {
				t.Fatal(err)
			}
			defer replayed.close()
			if got := replayed.mirror(); !bytes.Equal(got, live) {
				t.Fatalf("replayed state diverges from live mirror:\nlive:     %s\nreplayed: %s", live, got)
			}
		})
	}
}

// TestRecoveryReplaysALostCountFromAnOlderBuild: earlier builds journaled
// a "lost" count on the done record. Replay derives the count from the
// job's own tallies and ignores the field, so such a journal still opens,
// and to the state the live service reported.
func TestRecoveryReplaysALostCountFromAnOlderBuild(t *testing.T) {
	dir := t.TempDir()
	store, _, err := journal.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{}.withDefaults(Config{}.withDefaults())
	for _, rec := range []walRecord{
		{Kind: walCreate, Job: "old", Spec: &spec},
		{Kind: walTasks, Job: "old", Tasks: burst(0, 3, 0)},
		{Kind: walResults, Job: "old", Results: []TaskResult{{ID: 0, Micros: 5}}},
	} {
		raw, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Append(raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Append([]byte(`{"kind":"done","job":"old","lost":7}`)); err != nil {
		t.Fatal(err)
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	store.Close()

	w, err := openWAL(dir, walOptions{})
	if err != nil {
		t.Fatalf("a journal carrying a lost count does not replay: %v", err)
	}
	defer w.close()
	wj := w.state.Jobs["old"]
	if wj == nil || !wj.Done || wj.Submitted != 3 || wj.completed() != 1 || wj.Lost != 2 || len(wj.Pending) != 0 {
		t.Fatalf("replayed job = %+v, want done with 3 submitted, 1 completed, 2 lost and none pending", wj)
	}
}

// TestRecoveryTornTail: garbage at the journal's tail (the crash cut an
// append mid-record) must not block recovery — the valid prefix replays
// and the service opens normally.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	s := durableService(t, dir)
	j, err := s.Submit("torn", JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Push(burst(0, 10, 50)); err != nil {
		t.Fatal(err)
	}
	j.CloseInput()
	waitDone(t, j, 10*time.Second)
	assertConserved(t, s)
	// No graceful close: leave the journal populated, then tear its tail.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	tore := false
	for _, e := range entries {
		if len(e.Name()) > 8 && e.Name()[:8] == "journal-" {
			path := filepath.Join(dir, e.Name())
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{0xA7, 0xFF, 0x00}) // half a header
			f.Close()
			tore = true
		}
	}
	if !tore {
		t.Fatal("no journal file found to tear")
	}
	s2 := durableService(t, dir)
	defer s2.Close()
	j2, ok := s2.Job("torn")
	if !ok {
		t.Fatal("job lost to torn tail")
	}
	if st := j2.Status(); st.State != JobDone && st.State != JobDraining && st.State != JobAccepting {
		t.Fatalf("unexpected recovered state %q", st.State)
	}
	assertConserved(t, s2)
}

// TestRecoveryWalStateJSONStable guards the on-disk schema: a walState
// round-trips through JSON without loss (field renames would silently
// orphan journals written by earlier builds).
func TestRecoveryWalStateJSONStable(t *testing.T) {
	st := walState{Jobs: map[string]*walJob{
		"j": {
			Spec:        JobSpec{}.withDefaults(Config{}.withDefaults()),
			Closed:      true,
			Submitted:   3,
			Pending:     []TaskSpec{{ID: 2, Cost: 1}},
			Results:     []TaskResult{{ID: 0, Worker: 1, Micros: 42}},
			ResultsBase: 1,
		},
	}}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back walState
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	raw2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatalf("walState does not round-trip:\n%s\n%s", raw, raw2)
	}
}
