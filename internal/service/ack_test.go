package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// Tests for the acks and pushes that no longer wait for the disk on the
// dispatch path: a push feeds its batch while the record syncs, an ack is
// queued by the coordinator and published by the wal's flusher once
// durable. All match -run TestAsyncAck, which CI repeats under -race.

// TestAsyncAckDoneServesEveryResult closes a durable job while its acks
// are still queued behind a held fsync — another job's create — so its
// done record joins them in the next batch. The wal delivers outcomes in
// queue order, so the job cannot read done before every result is
// published. The test holds j.mu — which publishing an ack takes — across
// the fsync's release: were done's waiter signalled ahead of the earlier
// acks, Done would close while they wait.
func TestAsyncAckDoneServesEveryResult(t *testing.T) {
	s, ks := serviceOverStore(t)
	h := NewHandler(s)
	j, err := s.Submit("alldone", JobSpec{Window: 8, WarmupTasks: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	// The tasks sleep long enough for the push, the close and the other
	// job's parked create to be in place before the first of them completes.
	if _, err := j.Push(burst(0, n, 100_000)); err != nil {
		t.Fatal(err)
	}
	if err := j.CloseInput(); err != nil {
		t.Fatal(err)
	}
	release := ks.arm(t, walCreate)
	go s.Submit("other", JobSpec{WarmupTasks: 2})
	waitUntil(t, 10*time.Second, "the done record to queue behind the held fsync", func() bool {
		s.wal.mu.Lock()
		defer s.wal.mu.Unlock()
		q := s.wal.queue
		return len(q) > 0 && q[len(q)-1].rec.Kind == walDone
	})
	if got := ks.parkedSyncs(); got != 1 {
		t.Fatalf("%d fsyncs parked, want the other job's create", got)
	}
	poll := parkPoll(t, context.Background(), h, j, 0)

	j.mu.Lock()
	release()
	select {
	case <-j.Done():
		t.Errorf("the job read done with %d of %d results published", j.completed, n)
	case <-time.After(100 * time.Millisecond):
	}
	j.mu.Unlock()

	waitDone(t, j, 10*time.Second)
	if st := j.Status(); st.State != JobDone || st.Completed != n || st.InFlight != 0 {
		t.Errorf("done status reads completed=%d in_flight=%d, want %d/0", st.Completed, st.InFlight, n)
	}
	results, next := j.Results(0)
	assertExactlyOnceIDs(t, results, n)
	if next != n {
		t.Errorf("done job's cursor next = %d, want %d", next, n)
	}
	if p := awaitPoll(t, poll, 5*time.Second); p.page.State == JobDone && len(p.page.Results) != n {
		t.Errorf("a poll reading done served %d of %d results: %s", len(p.page.Results), n, p.raw)
	}
	if p := awaitPoll(t, pollAsync(t, context.Background(), h, j.Name(), 0), 5*time.Second); p.page.State != JobDone || len(p.page.Results) != n {
		t.Errorf("a poll after done answered %s, want done with all %d results", p.raw, n)
	}
	assertConserved(t, s)
}

// TestAsyncAckJournalFailureMidPush fails the fsync covering a push's
// batch while the push is still feeding it, with a second push queued
// behind the failing batch and feeding too. Both POSTs get 409 carrying
// the journal error, the wal stays latched and refuses what comes later,
// and every task the two pushes fed runs, counts as submitted and
// publishes exactly once: submitted = completed + pending + lost holds.
func TestAsyncAckJournalFailureMidPush(t *testing.T) {
	s, ks := serviceOverStore(t)
	h := NewHandler(s)
	j, err := s.Submit("latched", JobSpec{Window: 2, WarmupTasks: 2})
	if err != nil {
		t.Fatal(err)
	}
	post := func(specs []TaskSpec) <-chan *httptest.ResponseRecorder {
		body, err := json.Marshal(specs)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest("POST", "/api/v1/jobs/latched/tasks", bytes.NewReader(body))
		out := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			out <- rec
		}()
		return out
	}
	const first, second = 10, 2
	release := ks.armFailure(t, walTasks)
	// A window of 2 keeps the first push feeding for ≈ 100 ms.
	posts := []<-chan *httptest.ResponseRecorder{post(burst(0, first, 20_000))}
	waitUntil(t, 10*time.Second, "the first batch's fsync to park", func() bool { return ks.parkedSyncs() == 1 })
	posts = append(posts, post(burst(first, second, 20_000)))
	waitUntil(t, 5*time.Second, "the second batch to queue behind it", func() bool {
		s.wal.mu.Lock()
		defer s.wal.mu.Unlock()
		for _, c := range s.wal.queue {
			if c.rec.Kind == walTasks {
				return true
			}
		}
		return false
	})
	release()
	for i, c := range posts {
		if rec := <-c; rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), errDiskGone.Error()) {
			t.Errorf("POST %d answered %d %s, want 409 with the journal error", i, rec.Code, rec.Body)
		}
	}

	if n, err := j.Push(burst(first+second, 1, 0)); n != 0 || !errors.Is(err, errDiskGone) {
		t.Errorf("a push after the latch accepted %d (%v), want 0 and the journal error", n, err)
	}
	if _, err := s.Submit("later", JobSpec{}); !errors.Is(err, errDiskGone) {
		t.Errorf("a submit after the latch returned %v, want the journal error", err)
	}
	const fed = first + second
	waitUntil(t, 10*time.Second, "every fed task to publish", func() bool { return j.Status().Completed >= fed })
	if st := j.Status(); st.Submitted != fed || st.Completed != fed || st.InFlight != 0 {
		t.Errorf("status submitted=%d completed=%d in_flight=%d, want %d/%d/0", st.Submitted, st.Completed, st.InFlight, fed, fed)
	}
	results, _ := j.Results(0)
	assertExactlyOnceIDs(t, results, fed)
	assertConserved(t, s)
}

// TestAsyncAckOwnsItsRecord completes many tasks of three jobs at once on
// a durable service, their acks piling up behind a held fsync, so the
// flusher applies each ack long after its coordinator has moved on to the
// next. A shut-down-and-reopened service must then replay every job's
// results byte for byte as the live one served them: an ack record that
// shared a buffer with the next completion would apply that completion's
// result instead of its own (and race under -race).
func TestAsyncAckOwnsItsRecord(t *testing.T) {
	dir := t.TempDir()
	ks := &kindStore{Store: walOverStore(t, dir)}
	s := OpenForTest(t, Config{Workers: 4})
	s.wal = newWAL(ks, walOptions{})

	const jobs, perJob = 3, 100
	js := make([]*Job, jobs)
	for i := range js {
		j, err := s.Submit(fmt.Sprintf("own-%d", i), JobSpec{Window: 16, WarmupTasks: 2})
		if err != nil {
			t.Fatal(err)
		}
		js[i] = j
	}
	release := ks.arm(t, walResults)
	var wg sync.WaitGroup
	for _, j := range js {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := j.Push(burst(0, perJob, 0)); err != nil {
				t.Error(err)
			}
		}()
	}
	waitUntil(t, 10*time.Second, "every task to complete behind the held fsync", func() bool {
		return s.Metrics().Snapshot()["service_tasks_completed_total"] == jobs*perJob
	})
	release()
	wg.Wait()
	live := make([][]byte, jobs)
	for i, j := range js {
		if err := j.CloseInput(); err != nil {
			t.Fatal(err)
		}
		waitDone(t, j, 10*time.Second)
		results, _ := j.Results(0)
		assertExactlyOnceIDs(t, results, perJob)
		live[i], _ = json.Marshal(results)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := durableService(t, dir)
	defer reopened.Close()
	for i, j := range js {
		rj, ok := reopened.Job(j.Name())
		if !ok {
			t.Fatalf("job %s lost across the restart", j.Name())
		}
		results, _ := rj.Results(0)
		if replayed, _ := json.Marshal(results); !bytes.Equal(replayed, live[i]) {
			t.Errorf("job %s: replayed results differ from the live ones:\nlive:     %s\nreplayed: %s", j.Name(), live[i], replayed)
		}
	}
}
