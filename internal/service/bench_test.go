package service

import (
	"sync"
	"sync/atomic"
	"testing"

	"grasp/internal/journal"
)

// countingStore wraps a journal.Store and counts fsyncs, so the
// benchmark can report fsyncs-per-record — the economics the group
// commit exists to change.
type countingStore struct {
	*journal.Store
	syncs atomic.Int64
}

func (c *countingStore) Sync() error {
	c.syncs.Add(1)
	return c.Store.Sync()
}

// BenchmarkDurableIngest drives concurrent committers through the wal
// under the group-commit discipline and under the serial
// fsync-per-record reference (maxBatch 1, which no service sets). p16 is
// the contended shape of the durable ingest path, where coalescing pays:
// CI's group-commit gate runs the p16 pair and fails unless serial ns/op
// is >= 2x group's and group stays <= 0.5 fsyncs/record. p1 is the
// uncontended shape, where both modes do the same work
// (TestRecoveryOneCommitterNeverBatches) and differ only by disk jitter.
// CI's bench smoke runs all four at -benchtime=1x.
func BenchmarkDurableIngest(b *testing.B) {
	for _, mode := range []struct {
		name     string
		maxBatch int
		pushers  int
	}{{"group-p16", 0, 16}, {"serial-p16", 1, 16}, {"group-p1", 0, 1}, {"serial-p1", 1, 1}} {
		b.Run(mode.name, func(b *testing.B) {
			dir := b.TempDir()
			store, _, err := journal.OpenStore(dir)
			if err != nil {
				b.Fatal(err)
			}
			cs := &countingStore{Store: store}
			w := newWAL(cs, walOptions{maxBatch: mode.maxBatch})
			defer w.close()
			if err := w.commit(walRecord{Kind: walCreate, Job: "bench", Spec: &JobSpec{}}); err != nil {
				b.Fatal(err)
			}
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for p := 0; p < mode.pushers; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						err := w.commit(walRecord{Kind: walTasks, Job: "bench",
							Tasks: []TaskSpec{{ID: int(i), Cost: 1}}})
						if err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(cs.syncs.Load())/float64(b.N), "fsyncs/record")
		})
	}
}

// BenchmarkServicePush streams b.N zero-work tasks through one in-memory
// farm job — Push, the engine, onResult — so -benchmem reports what the
// service path allocates per task. The store-less wal must add nothing to
// it: a commit there is lock, apply, unlock.
func BenchmarkServicePush(b *testing.B) {
	s := New(Config{Workers: 2})
	j, err := s.Submit("bench", JobSpec{Window: 64})
	if err != nil {
		b.Fatal(err)
	}
	batch := burst(0, 64, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; sent += len(batch) {
		if _, err := j.Push(batch[:min(len(batch), b.N-sent)]); err != nil {
			b.Fatal(err)
		}
	}
	if err := j.CloseInput(); err != nil {
		b.Fatal(err)
	}
	<-j.Done()
	if st := j.Status(); st.Completed != b.N {
		b.Fatalf("completed %d of %d", st.Completed, b.N)
	}
}
