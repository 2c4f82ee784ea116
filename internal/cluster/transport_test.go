package cluster

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

// startTestServer serves a coordinator's dual-transport listener on a
// loopback port and returns its base URL.
func startTestServer(t *testing.T, co *Coordinator) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(co)
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return "http://" + ln.Addr().String()
}

// TestTransportContract runs the protocol contract — register, lease,
// results (posted and lease-carried), heartbeat, stale-gen 410, result
// dedup, leave — against every binding through one shared harness: the
// wire format must never change the protocol's semantics.
func TestTransportContract(t *testing.T) {
	for _, name := range []string{TransportJSON, TransportBinary} {
		t.Run(name, func(t *testing.T) {
			co := testCoordinator(t, time.Second)
			url := startTestServer(t, co)
			tr, err := NewTransport(name, url, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			if tr.Name() != name {
				t.Fatalf("transport name = %q, want %q", tr.Name(), name)
			}

			// Register issues a generation and echoes a pick from the offer.
			reg, err := tr.Register(RegisterRequest{
				ID: "n1", Capacity: 2, SpeedOPS: 1e6,
				Transports: []string{name},
			})
			if err != nil {
				t.Fatal(err)
			}
			if reg.Gen == 0 || reg.HeartbeatMS <= 0 {
				t.Fatalf("register response %+v", reg)
			}
			if reg.Transport != name {
				t.Fatalf("negotiated transport = %q, want %q", reg.Transport, name)
			}

			// Heartbeat under the live gen succeeds; a stale gen is 410.
			if err := tr.Heartbeat(HeartbeatRequest{ID: "n1", Gen: reg.Gen}); err != nil {
				t.Fatalf("heartbeat: %v", err)
			}
			if err := tr.Heartbeat(HeartbeatRequest{ID: "n1", Gen: reg.Gen + 1}); !errors.Is(err, ErrGone) {
				t.Fatalf("stale-gen heartbeat err = %v, want ErrGone", err)
			}

			// Empty long-poll lease times out with an empty batch.
			empty, err := tr.Lease(LeaseRequest{ID: "n1", Gen: reg.Gen, Max: 4, WaitMS: 20}, nil)
			if err != nil || len(empty) != 0 {
				t.Fatalf("empty lease = %v, %v", empty, err)
			}

			// Submit → lease → results resolves the dispatch.
			d, err := submitOne(co, "n1", reg.Gen, 7, Work{Spin: 10})
			if err != nil {
				t.Fatal(err)
			}
			tasks, err := tr.Lease(LeaseRequest{ID: "n1", Gen: reg.Gen, Max: 4, WaitMS: 1000}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(tasks) != 1 || tasks[0].Task != 7 || tasks[0].Spin != 10 {
				t.Fatalf("lease = %+v", tasks)
			}
			res := ResultsRequest{ID: "n1", Gen: reg.Gen, Results: []WireResult{
				{Dispatch: tasks[0].Dispatch, Task: 7, Micros: 42},
			}}
			if err := tr.Results(res); err != nil {
				t.Fatal(err)
			}
			out := <-d
			if out.err != nil || out.micros != 42 {
				t.Fatalf("outcome = %+v", out)
			}

			// A duplicate post is deduplicated, not re-resolved.
			if err := tr.Results(res); err != nil {
				t.Fatal(err)
			}
			nodes := co.Nodes()
			if len(nodes) != 1 || nodes[0].Completed != 1 || nodes[0].Deduped != 1 {
				t.Fatalf("after duplicate post: %+v", nodes)
			}

			// Lease-carried results. Task 8 is leased; its result then rides
			// the request that leases task 9.
			metric := func(name string) int64 { return co.Metrics().Counter(name).Value() }
			d8, err := submitOne(co, "n1", reg.Gen, 8, Work{})
			if err != nil {
				t.Fatal(err)
			}
			first, err := tr.Lease(LeaseRequest{ID: "n1", Gen: reg.Gen, Max: 4, WaitMS: 1000}, nil)
			if err != nil || len(first) != 1 || first[0].Task != 8 {
				t.Fatalf("lease = %+v, %v", first, err)
			}
			if _, err := submitOne(co, "n1", reg.Gen, 9, Work{}); err != nil {
				t.Fatal(err)
			}
			carried := []WireResult{{Dispatch: first[0].Dispatch, Task: 8, Micros: 17}}
			posts, dropped := metric("cluster_results_posts_total"), metric("cluster_results_dropped_total")

			// Under a stale generation the request is 410 and nothing it
			// carried is applied.
			stale := LeaseRequest{ID: "n1", Gen: reg.Gen + 1, Max: 4, WaitMS: 10, Results: carried}
			if _, err := tr.Lease(stale, nil); !errors.Is(err, ErrGone) {
				t.Fatalf("stale-gen lease err = %v, want ErrGone", err)
			}
			if len(d8) != 0 || metric("cluster_results_posts_total") != posts ||
				metric("cluster_results_dropped_total") != dropped+1 {
				t.Fatalf("stale-gen lease applied its results: %d outcomes, posts %d→%d, dropped %d→%d", len(d8),
					posts, metric("cluster_results_posts_total"), dropped, metric("cluster_results_dropped_total"))
			}

			// Under the live one they resolve their dispatch, the request
			// leases on, and the frame counts as one results post.
			live := LeaseRequest{ID: "n1", Gen: reg.Gen, Max: 4, WaitMS: 1000, Results: carried}
			second, err := tr.Lease(live, nil)
			if err != nil || len(second) != 1 || second[0].Task != 9 {
				t.Fatalf("lease carrying results = %+v, %v", second, err)
			}
			if out := <-d8; out.err != nil || out.micros != 17 {
				t.Fatalf("lease-carried outcome = %+v", out)
			}
			if got := metric("cluster_results_posts_total"); got != posts+1 {
				t.Errorf("cluster_results_posts_total = %d after one lease-carried batch, want %d", got, posts+1)
			}

			// The response was lost, says the worker, and resends: deduped,
			// the task is not emitted again, and — the queue being empty —
			// the request long-polls like any other.
			live.WaitMS = 10
			if again, err := tr.Lease(live, nil); err != nil || len(again) != 0 {
				t.Fatalf("resent lease = %+v, %v", again, err)
			}
			nodes = co.Nodes()
			if len(d8) != 0 || nodes[0].Completed != 2 || nodes[0].Deduped != 2 ||
				metric("cluster_results_dropped_total") != dropped+2 {
				t.Fatalf("after resend: %d outcomes, dropped %d→%d, node %+v", len(d8),
					dropped, metric("cluster_results_dropped_total"), nodes[0])
			}

			// Leave retires the registration: every verb is 410 afterwards.
			if err := tr.Leave(LeaveRequest{ID: "n1", Gen: reg.Gen}); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Lease(LeaseRequest{ID: "n1", Gen: reg.Gen, Max: 1, WaitMS: 10}, nil); !errors.Is(err, ErrGone) {
				t.Fatalf("post-leave lease err = %v, want ErrGone", err)
			}
		})
	}
}

// TestTransportNegotiation pins the pick: the worker's first offered
// binding the coordinator serves, else JSON — including an empty offer and
// a coordinator mounted without the dual-transport server.
func TestTransportNegotiation(t *testing.T) {
	cases := []struct {
		offers []string
		served bool // a dual-transport Server fronts the coordinator
		want   string
	}{
		{nil, true, TransportJSON}, // an empty offer gets the fallback
		{[]string{TransportBinary, TransportJSON}, true, TransportBinary},
		{[]string{TransportJSON, TransportBinary}, true, TransportJSON},
		{[]string{"quic", TransportJSON}, true, TransportJSON}, // unknown offers skipped
		{[]string{"quic"}, true, TransportJSON},
		{[]string{TransportBinary}, true, TransportBinary},
		// Bare HTTP handler (no Server): binary must never be picked even
		// when offered — nothing would answer the frames.
		{[]string{TransportBinary, TransportJSON}, false, TransportJSON},
		{[]string{TransportBinary}, false, TransportJSON},
	}
	for i, c := range cases {
		co := NewCoordinator(Config{})
		if c.served {
			NewServer(co) // marks the binary binding live; no listener needed
		}
		reg, err := co.Register(RegisterRequest{
			ID: fmt.Sprintf("n%d", i), Capacity: 1, Transports: c.offers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if reg.Transport != c.want {
			t.Errorf("offers=%v served=%v: picked %q, want %q", c.offers, c.served, reg.Transport, c.want)
		}
		co.Close()
	}
}

// TestWorkerNegotiatesBinary runs the real worker runtime against the
// sniffing server and checks it lands on the binary binding end to end.
func TestWorkerNegotiatesBinary(t *testing.T) {
	co := testCoordinator(t, time.Second)
	url := startTestServer(t, co)
	w, err := StartWorker(WorkerConfig{
		Coordinator: url, ID: "wb", Capacity: 2, BenchSpin: 10_000,
		Heartbeat: 20 * time.Millisecond, LeaseWait: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	if got := w.TransportName(); got != TransportBinary {
		t.Fatalf("auto worker negotiated %q, want binary", got)
	}
	rep, _ := runFarmOverPool(t, co, 60, 200)
	if len(rep.Results) != 60 {
		t.Fatalf("completed %d/60 tasks over binary transport", len(rep.Results))
	}
}

// TestMixedTransportFleet streams one farm across a JSON worker and a
// binary worker simultaneously — the rolling-upgrade scenario negotiation
// exists for — and requires exactly-once completion plus work on both.
func TestMixedTransportFleet(t *testing.T) {
	co := testCoordinator(t, time.Second)
	url := startTestServer(t, co)
	for _, wc := range []struct{ id, transport string }{
		{"w-json", TransportJSON},
		{"w-binary", TransportBinary},
	} {
		w, err := StartWorker(WorkerConfig{
			Coordinator: url, ID: wc.id, Capacity: 2, BenchSpin: 10_000,
			Heartbeat: 20 * time.Millisecond, LeaseWait: 100 * time.Millisecond,
			Transport: wc.transport,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		if got := w.TransportName(); got != wc.transport {
			t.Fatalf("%s negotiated %q, want %q", wc.id, got, wc.transport)
		}
	}
	const n = 120
	rep, pool := runFarmOverPool(t, co, n, 200)
	if len(rep.Results) != n {
		t.Fatalf("mixed fleet completed %d/%d", len(rep.Results), n)
	}
	counts := pool.NodeCounts()
	total := int64(0)
	for _, nc := range counts {
		if nc.Completed == 0 {
			t.Errorf("node %s completed nothing in the mixed fleet", nc.Node)
		}
		total += nc.Completed
	}
	if total != n {
		t.Errorf("per-node completions sum to %d, want %d (exactly-once)", total, n)
	}
}

// TestWorkerBatchesResults pins how a short lease is answered: as a unit.
// A worker executing a burst of near-instant tasks delivers each lease's
// results in one batch, on its next lease request — never one post per
// task, and no more results-bearing frames than leases.
func TestWorkerBatchesResults(t *testing.T) {
	co := testCoordinator(t, time.Second)
	url := startTestServer(t, co)
	w, err := StartWorker(WorkerConfig{
		Coordinator: url, ID: "wf", Capacity: 2, Batch: 8, BenchSpin: 10_000,
		Heartbeat: 20 * time.Millisecond, LeaseWait: 100 * time.Millisecond,
		Transport: TransportJSON,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	reg := co.Metrics()

	const n = 200
	live := co.Live()
	if len(live) != 1 {
		t.Fatalf("live = %+v", live)
	}
	ch, err := co.submit(live[0].ID, live[0].Gen, sleepTasks(0, n, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		select {
		case out := <-ch.sink:
			if out.err != nil {
				t.Fatalf("task %d: %v", out.idx, out.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d/%d tasks resolved", i, n)
		}
	}
	leases := reg.Counter("cluster_leases_total").Value()
	posts := reg.Counter("cluster_results_posts_total").Value()
	if leases > n/4 {
		t.Errorf("cluster_leases_total = %d for %d queued tasks at -batch 8, want <= %d", leases, n, n/4)
	}
	// +2: a scheduling stall over resultHold mid-lease streams that lease.
	if posts > leases+2 {
		t.Errorf("results posts = %d for %d leases of near-instant tasks; a lease is not answered as a unit", posts, leases)
	}
}
