package cluster

// Benchmarks pinning the zero-allocation dispatch path. The codec
// benchmarks cover encode/decode of the hot frames (lease batch, results
// batch, and the lease request that carries the previous lease's
// results); BenchmarkDispatchSteadyState drives the coordinator's whole
// in-process loop — chunk submit, lease carrying the last chunk's results,
// outcomes, release — the way the binary server does, with every buffer
// reused. All report allocations; the dispatch loop must stay at 0
// allocs/task.

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"grasp/internal/journal"
	"grasp/internal/platform"
)

// benchTasks builds a full lease batch for the codec benchmarks.
func benchTasks(n int) []WireTask {
	tasks := make([]WireTask, n)
	for i := range tasks {
		tasks[i] = WireTask{Dispatch: int64(i + 1), Task: i, Work: Work{Cost: 1, Spin: 1000}}
	}
	return tasks
}

func BenchmarkCodecLeaseEncode(b *testing.B) {
	tasks := benchTasks(64)
	buf := make([]byte, 0, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = journal.FinishFrame(appendLeaseResponse(beginMsg(buf[:0], msgLeaseResp), tasks))
	}
	if len(buf) == 0 {
		b.Fatal("no frame")
	}
}

func BenchmarkCodecLeaseDecode(b *testing.B) {
	frame := journal.FinishFrame(appendLeaseResponse(beginMsg(nil, msgLeaseResp), benchTasks(64)))
	scratch := make([]WireTask, 0, 64)
	var fr frameReader
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, payload, err := fr.read(frame)
		if err != nil {
			b.Fatal(err)
		}
		scratch, err = decodeLeaseResponse(payload, scratch[:0])
		if err != nil || len(scratch) != 64 {
			b.Fatalf("decode: %v", err)
		}
	}
}

// benchResults builds a full results batch for the codec benchmarks.
func benchResults(n int) []WireResult {
	results := make([]WireResult, n)
	for i := range results {
		results[i] = WireResult{Dispatch: int64(i + 1), Task: i, Micros: 100}
	}
	return results
}

func BenchmarkCodecLeaseWithResultsEncode(b *testing.B) {
	req := LeaseRequest{ID: "bench-node", Gen: 1, Max: 64, WaitMS: 2000, Results: benchResults(64)}
	buf := make([]byte, 0, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = journal.FinishFrame(appendLeaseRequest(beginMsg(buf[:0], msgLease), req))
	}
}

func BenchmarkCodecLeaseWithResultsDecode(b *testing.B) {
	in := LeaseRequest{ID: "bench-node", Gen: 1, Max: 64, WaitMS: 2000, Results: benchResults(64)}
	frame := journal.FinishFrame(appendLeaseRequest(beginMsg(nil, msgLease), in))
	out := LeaseRequest{Results: make([]WireResult, 0, 64)}
	var fr frameReader
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, payload, err := fr.read(frame)
		if err != nil {
			b.Fatal(err)
		}
		if err := decodeLeaseRequest(payload, &out); err != nil || len(out.Results) != 64 {
			b.Fatalf("decode: %v", err)
		}
	}
}

func BenchmarkCodecResultsEncode(b *testing.B) {
	req := ResultsRequest{ID: "bench-node", Gen: 1, Results: benchResults(64)}
	buf := make([]byte, 0, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = journal.FinishFrame(appendResultsRequest(beginMsg(buf[:0], msgResults), req))
	}
}

func BenchmarkCodecResultsDecode(b *testing.B) {
	in := ResultsRequest{ID: "bench-node", Gen: 1, Results: benchResults(64)}
	frame := journal.FinishFrame(appendResultsRequest(beginMsg(nil, msgResults), in))
	var out ResultsRequest
	out.Results = make([]WireResult, 0, 64)
	var fr frameReader
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, payload, err := fr.read(frame)
		if err != nil {
			b.Fatal(err)
		}
		if err := decodeResultsRequest(payload, &out); err != nil || len(out.Results) != 64 {
			b.Fatalf("decode: %v", err)
		}
	}
}

// BenchmarkCodecJSONLeaseRoundTrip is the same lease batch through the
// JSON binding's encoding, for the comparison the binary codec exists to
// win.
func BenchmarkCodecJSONLeaseRoundTrip(b *testing.B) {
	resp := LeaseResponse{Tasks: benchTasks(64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := json.Marshal(resp)
		if err != nil {
			b.Fatal(err)
		}
		var out LeaseResponse
		if err := json.Unmarshal(data, &out); err != nil || len(out.Tasks) != 64 {
			b.Fatalf("round trip: %v", err)
		}
	}
}

// BenchmarkDispatchSteadyState measures the coordinator's end-to-end
// in-process dispatch loop at steady state, for the chunk of one (what
// Exec and a sched.Single farm submit) and a chunk of 16, as a worker
// executor drives it: submit the chunk under one lock hold, then one lease
// request that carries the previous chunk's results out of reused scratch
// and takes this chunk into reused scratch (as the binary server does);
// receive the previous chunk's outcomes off its sink and release it. The
// sweep and long-poll machinery is live but idle. Reported allocs/op are
// per task and must be 0.
func BenchmarkDispatchSteadyState(b *testing.B) {
	for _, k := range []int{1, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			co := NewCoordinator(Config{DeadAfter: time.Hour}) // no death sweeps mid-benchmark
			defer co.Close()
			// Capacity 1: one lease takes the whole queued chunk.
			reg, err := co.Register(RegisterRequest{ID: "bench-node", Capacity: 1})
			if err != nil {
				b.Fatal(err)
			}
			tasks := make([]platform.Task, k)
			for i := range tasks {
				tasks[i] = platform.Task{ID: i, Data: Work{Spin: 1}}
			}
			leased := make([]WireTask, 0, k)
			req := LeaseRequest{ID: "bench-node", Gen: reg.Gen, WaitMS: 1, Results: make([]WireResult, 0, k)}
			var running *chunk // leased and "executed"; its results ride the next request
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += k {
				ch, err := co.submit("bench-node", reg.Gen, tasks)
				if err != nil {
					b.Fatal(err)
				}
				leased, err = co.LeaseAppend(req, leased[:0])
				if err != nil || len(leased) != k {
					b.Fatalf("lease: %v (%d tasks)", err, len(leased))
				}
				if running != nil {
					for range req.Results {
						if out := <-running.sink; out.err != nil {
							b.Fatal(out.err)
						}
					}
					running.release()
				}
				running, req.Results = ch, req.Results[:0]
				for _, t := range leased {
					req.Results = append(req.Results, WireResult{Dispatch: t.Dispatch, Task: t.Task, Micros: 1})
				}
			}
		})
	}
}
