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

// BenchmarkDurableIngest drives 16 concurrent committers through the
// wal — the contended shape of the durable ingest path — under the
// group-commit discipline and under the serial fsync-per-record
// discipline (CommitMaxBatch = 1). CI's bench smoke runs this at
// -benchtime=1x for compile-and-run coverage; the enforced >=2x
// group/serial throughput gate lives in graspbench -compare, which
// measures the same contended shape end to end.
func BenchmarkDurableIngest(b *testing.B) {
	for _, mode := range []struct {
		name     string
		maxBatch int
	}{{"group", 0}, {"serial", 1}} {
		b.Run(mode.name+"-p16", func(b *testing.B) {
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
			const pushers = 16
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for p := 0; p < pushers; p++ {
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
