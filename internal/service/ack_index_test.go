package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// newPending indexes tasks as a pending set.
func newPending(tasks []TaskSpec) *pendingTasks {
	p := new(pendingTasks)
	for _, ts := range tasks {
		p.push(ts)
	}
	return p
}

// linearJob is walJob as it was before its pending set had an index: a
// plain slice, searched and shifted on every ack. It is the reference
// the indexed set is checked against, field for field and byte for byte
// in the snapshot.
type linearJob struct {
	Spec        JobSpec      `json:"spec"`
	Closed      bool         `json:"closed,omitempty"`
	Done        bool         `json:"done,omitempty"`
	Lost        int          `json:"lost,omitempty"`
	Submitted   int          `json:"submitted,omitempty"`
	Pending     []TaskSpec   `json:"pending,omitempty"`
	Results     []TaskResult `json:"results,omitempty"`
	ResultsBase int          `json:"results_base,omitempty"`
}

// ack is the linear retirement: the first pending occurrence of the id
// goes, then the result is retained under the same trim rule.
func (lj *linearJob) ack(r TaskResult) {
	for i := range lj.Pending {
		if lj.Pending[i].ID == r.ID {
			lj.Pending = slices.Delete(lj.Pending, i, i+1)
			break
		}
	}
	lj.Results = append(lj.Results, r)
	if slack := lj.Spec.MaxResults / 4; len(lj.Results) > lj.Spec.MaxResults+max(slack, 1) {
		drop := len(lj.Results) - lj.Spec.MaxResults
		lj.ResultsBase += drop
		lj.Results = append(lj.Results[:0:0], lj.Results[drop:]...)
	}
}

// TestWalAckMatchesLinearReference drives seeded pushes and acks — ids
// drawn from a small range, so they repeat within the backlog, acks of
// ids not pending among them, a backlog that grows and drains to empty —
// through the wal's apply and through the linear reference, and requires
// the same pending tasks in the same order and the same results after
// every step, and the same snapshot bytes, which round-trip, every eighth
// step and whenever the backlog is empty.
func TestWalAckMatchesLinearReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			spec := JobSpec{MaxResults: 16}
			st := walState{}
			st.apply(walRecord{Kind: walCreate, Job: "j", Spec: &spec})
			wj := st.Jobs["j"]
			ref := &linearJob{Spec: spec}
			for step := 0; step < 1500; step++ {
				// Phases of 250 steps grow the backlog, then drain it.
				pushShare := 6
				if step/250%2 == 1 {
					pushShare = 1
				}
				if rng.Intn(10) < pushShare {
					tasks := make([]TaskSpec, rng.Intn(4))
					for i := range tasks {
						tasks[i] = TaskSpec{ID: rng.Intn(40), Cost: float64(step), SleepUS: int64(i)}
					}
					st.apply(walRecord{Kind: walTasks, Job: "j", Tasks: tasks})
					ref.Submitted += len(tasks)
					ref.Pending = append(ref.Pending, tasks...)
				} else {
					id := rng.Intn(44)
					if len(ref.Pending) > 0 && rng.Intn(4) > 0 {
						id = ref.Pending[rng.Intn(len(ref.Pending))].ID
					}
					r := TaskResult{ID: id, Worker: step % 3, Micros: int64(step)}
					st.apply(walRecord{Kind: walResults, Job: "j", Results: []TaskResult{r}})
					ref.ack(r)
				}
				if got := wj.Pending.tasks(); !slices.Equal(got, ref.Pending) {
					t.Fatalf("step %d: pending %v, reference %v", step, got, ref.Pending)
				}
				if !slices.Equal(wj.Results, ref.Results) || wj.ResultsBase != ref.ResultsBase {
					t.Fatalf("step %d: results differ from the reference", step)
				}
				if (wj.Pending == nil) != (len(ref.Pending) == 0) {
					t.Fatalf("step %d: an empty pending set is kept (nil: %v)", step, wj.Pending == nil)
				}
				if step%8 != 0 && len(ref.Pending) > 0 {
					continue // bytes are compared every eighth step and whenever the backlog drains
				}
				got, err := json.Marshal(wj)
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(ref)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("step %d: snapshot\n%s\nreference\n%s", step, got, want)
				}
				var back walJob
				if err := json.Unmarshal(got, &back); err != nil {
					t.Fatal(err)
				}
				if again, _ := json.Marshal(&back); !bytes.Equal(again, got) {
					t.Fatalf("step %d: snapshot does not round-trip:\n%s\n%s", step, got, again)
				}
			}
		})
	}
}

// BenchmarkWALAck prices one ack against a deep durable backlog. Each op
// acks the oldest pending task and accepts one more, so the depth holds;
// the cost per op should not grow with the depth.
func BenchmarkWALAck(b *testing.B) {
	for _, depth := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("pending=%d", depth), func(b *testing.B) {
			spec := defaultSpec()
			st := walState{}
			st.apply(walRecord{Kind: walCreate, Job: "j", Spec: &spec})
			st.apply(walRecord{Kind: walTasks, Job: "j", Tasks: burst(0, depth, 0)})
			wj := st.Jobs["j"]
			one := make([]TaskSpec, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wj.ack(TaskResult{ID: i, Micros: 1})
				one[0] = TaskSpec{ID: depth + i, Cost: 1}
				st.apply(walRecord{Kind: walTasks, Job: "j", Tasks: one})
			}
		})
	}
}

// nullStore is a walStore with no disk behind it, so a benchmark over it
// prices the wal's own work; it keeps the size of the last snapshot.
type nullStore struct{ snapshotBytes int }

func (n *nullStore) AppendBatch([][]byte) error { return nil }
func (n *nullStore) Sync() error                { return nil }
func (n *nullStore) Size() int64                { return 0 }
func (n *nullStore) Rotate(state []byte) error  { n.snapshotBytes = len(state); return nil }
func (n *nullStore) Close() error               { return nil }

// BenchmarkWALRotate prices one snapshot of a wal whose one job holds a
// deep pending backlog: the marshal every record queued behind a rotation
// waits for. The store writes nothing, so the figure is not the disk's.
func BenchmarkWALRotate(b *testing.B) {
	for _, depth := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("pending=%d", depth), func(b *testing.B) {
			ns := &nullStore{}
			w := newWAL(ns, walOptions{})
			defer w.close()
			spec := defaultSpec()
			for _, rec := range []walRecord{
				{Kind: walCreate, Job: "j", Spec: &spec},
				{Kind: walTasks, Job: "j", Tasks: burst(0, depth, 0)},
			} {
				if err := w.commit(rec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.mu.Lock()
				err := w.rotate()
				w.mu.Unlock()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(ns.snapshotBytes), "snapshot-B")
		})
	}
}
