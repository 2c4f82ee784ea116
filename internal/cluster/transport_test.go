package cluster

import (
	"bytes"
	"errors"
	"io"
	"log/slog"
	"math"
	"net"
	"strings"
	"sync"
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

// TestRegisterRejectsOversizedCapacity: a registration above maxCapacity
// is refused with a 400 over either binding and leaves no node behind, so
// one request cannot size the next cluster job's pool past the daemon's
// memory. The bound itself still registers.
func TestRegisterRejectsOversizedCapacity(t *testing.T) {
	for _, name := range []string{TransportJSON, TransportBinary} {
		t.Run(name, func(t *testing.T) {
			co := testCoordinator(t, time.Second)
			tr, err := NewTransport(name, startTestServer(t, co), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			_, err = tr.Register(RegisterRequest{ID: "huge", Capacity: math.MaxInt32, Transports: []string{name}})
			if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "capacity") {
				t.Fatalf("register with capacity %d: err = %v, want a 400 naming the capacity", math.MaxInt32, err)
			}
			if nodes := co.Nodes(); len(nodes) != 0 {
				t.Fatalf("a refused registration left nodes %+v", nodes)
			}
			if _, err := tr.Register(RegisterRequest{ID: "wide", Capacity: maxCapacity, Transports: []string{name}}); err != nil {
				t.Fatalf("register with capacity %d: %v", maxCapacity, err)
			}
		})
	}
}

// TestTransportContract runs the protocol contract — register, lease,
// results (posted and lease-carried), heartbeat, stale-gen 410, result
// dedup, leave — against every binding through one shared harness: the
// wire format must never change the protocol's semantics.
func TestTransportContract(t *testing.T) {
	for _, name := range []string{TransportJSON, TransportBinary} {
		t.Run(name, func(t *testing.T) {
			var logs logBuffer
			co := NewCoordinator(Config{
				DeadAfter: time.Second, SweepEvery: time.Second / 4, MaxLeaseWait: 200 * time.Millisecond,
				Logger: slog.New(slog.NewTextHandler(&logs, nil)),
			})
			t.Cleanup(co.Close)
			url := startTestServer(t, co)
			tr, err := NewTransport(name, url, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			if tr.Name() != name {
				t.Fatalf("transport name = %q, want %q", tr.Name(), name)
			}

			// Register issues a generation, and the coordinator's
			// registration log line names the binding the worker speaks.
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
			if want := "transport=[" + name + "]"; !strings.Contains(logs.String(), want) {
				t.Fatalf("registration log lacks %q:\n%s", want, logs.String())
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

// firstBytes wraps a listener and records the first byte each accepted
// connection sends: frameMagic for a binary connection, a method letter
// for HTTP.
type firstBytes struct {
	net.Listener
	mu    sync.Mutex
	bytes []byte
}

func (l *firstBytes) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &firstByteConn{Conn: c, l: l}, nil
}

func (l *firstBytes) seen() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.bytes...)
}

type firstByteConn struct {
	net.Conn
	l    *firstBytes
	once sync.Once
}

func (c *firstByteConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.once.Do(func() {
			c.l.mu.Lock()
			c.l.bytes = append(c.l.bytes, p[0])
			c.l.mu.Unlock()
		})
	}
	return n, err
}

// TestWorkerSpeaksBinaryByDefault runs the real worker runtime, with no
// binding configured, against the sniffing server: its whole session —
// register, leases carrying results, heartbeats and leave — reaches the
// coordinator over binary frames, and not one connection opens as HTTP.
func TestWorkerSpeaksBinaryByDefault(t *testing.T) {
	co := testCoordinator(t, time.Second)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &firstBytes{Listener: inner}
	srv := NewServer(co)
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	w, err := StartWorker(WorkerConfig{
		Coordinator: "http://" + inner.Addr().String(), ID: "wb", Capacity: 2, BenchSpin: 10_000,
		Heartbeat: 20 * time.Millisecond, LeaseWait: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	if got := w.TransportName(); got != TransportBinary {
		t.Fatalf("a worker with no binding configured speaks %q, want binary", got)
	}
	rep, _ := runFarmOverPool(t, co, 60, 200)
	if len(rep.Results) != 60 {
		t.Fatalf("completed %d/60 tasks over binary transport", len(rep.Results))
	}
	for deadline := time.Now().Add(5 * time.Second); co.Metrics().Counter("cluster_heartbeats_total").Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat reached the coordinator")
		}
		time.Sleep(5 * time.Millisecond)
	}
	w.Stop()
	if nodes := co.Nodes(); len(nodes) != 1 || nodes[0].State != StateLeft {
		t.Fatalf("after Stop the node is %+v, want one node that left", nodes)
	}
	seen := ln.seen()
	if len(seen) == 0 {
		t.Fatal("the listener accepted no connection")
	}
	for i, b := range seen {
		if b != frameMagic {
			t.Errorf("connection %d of %d opened with %q, not a binary frame", i+1, len(seen), b)
		}
	}
}

// TestStartWorkerFailsOnASilentPort: a binary worker pointed at a port that
// accepts connections but never answers a frame — a plain HTTP server,
// say, or a wedged process — gives up on registration and StartWorker
// returns an error within 10 s, instead of waiting out a verb deadline
// per attempt.
func TestStartWorkerFailsOnASilentPort(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { c.Close() })
			go io.Copy(io.Discard, c) // reads every frame, answers none
		}
	}()
	began := time.Now()
	w, err := StartWorker(WorkerConfig{Coordinator: "http://" + ln.Addr().String(), ID: "lost", BenchSpin: 10_000})
	took := time.Since(began)
	if err == nil {
		w.Stop()
		t.Fatal("StartWorker registered with a port that answers nothing")
	}
	if took > 10*time.Second {
		t.Errorf("StartWorker took %v to give up on a silent port, want < 10s", took)
	}
}

// TestMixedTransportFleet streams one farm across a JSON worker and a
// binary worker simultaneously — a fleet that mixes bindings, as during a
// rolling upgrade — and requires exactly-once completion plus work on both.
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
			t.Fatalf("%s speaks %q, want %q", wc.id, got, wc.transport)
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
	if posts > leases {
		t.Errorf("results posts = %d for %d leases of near-instant tasks; a lease is not answered as a unit", posts, leases)
	}
}

// logBuffer is a log sink safe to read while the coordinator writes it.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}
