package experiments

// Shared plumbing for the modern-stack experiments (E21–E23, E28, E30): the
// ones that execute on the layers built above the simulator — the streaming
// service, the daemon's HTTP API, and the in-process worker-node cluster.
// Unlike the vsim experiments these run in real time, so their tables and
// checks are stated over deterministic quantities only (task counts,
// exactly-once sets, yes/no adaptation shapes) — never wall-clock numbers,
// which is what keeps the generated EXPERIMENTS.md byte-identical across
// runs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"grasp/internal/cluster"
	"grasp/internal/service"
)

// modernTimeout bounds every wait in the modern-stack experiments: a run
// that exceeds it fails its drain check instead of hanging the harness.
const modernTimeout = 60 * time.Second

// yesNo renders a boolean shape value for deterministic tables.
func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// sleepSpecs builds n service tasks with IDs base..base+n-1, each sleeping
// sleepUS microseconds (the IO-bound work model).
func sleepSpecs(base, n int, sleepUS int64) []service.TaskSpec {
	specs := make([]service.TaskSpec, n)
	for i := range specs {
		specs[i] = service.TaskSpec{ID: base + i, Cost: 1, SleepUS: sleepUS}
	}
	return specs
}

// waitJob blocks until the job drains; false after modernTimeout.
func waitJob(j *service.Job) bool {
	select {
	case <-j.Done():
		return true
	case <-time.After(modernTimeout):
		return false
	}
}

// waitFor polls cond until it holds and reports whether it did within
// modernTimeout — the one wall-clock poll loop of the modern-stack
// experiments, for conditions (a status counter, a membership size) that
// no channel announces.
func waitFor(cond func() bool) bool {
	deadline := time.Now().Add(modernTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// serveAPI puts s behind the daemon's HTTP handler on an httptest listener
// — exactly what graspd serves — and returns the one request helper the
// wire-level experiments share: api sends body as JSON (nil: no body),
// decodes the reply into out (nil: discard) and returns the status code.
func serveAPI(s *service.Service) (api func(method, path string, body, out any) int, stop func()) {
	srv := httptest.NewServer(service.NewHandler(s))
	return func(method, path string, body, out any) int {
		var rd io.Reader
		if body != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				panic(err)
			}
			rd = bytes.NewReader(raw)
		}
		req, err := http.NewRequest(method, srv.URL+path, rd)
		if err != nil {
			panic(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				panic(err)
			}
		}
		return resp.StatusCode
	}, srv.Close
}

// exactlyOnce reports whether results hold exactly the IDs base..base+n-1,
// each once.
func exactlyOnce(results []service.TaskResult, base, n int) bool {
	if len(results) != n {
		return false
	}
	seen := make(map[int]bool, n)
	for _, r := range results {
		if r.ID < base || r.ID >= base+n || seen[r.ID] {
			return false
		}
		seen[r.ID] = true
	}
	return true
}

// clusterStack is an in-process worker-node cluster: a coordinator served
// on the dual-transport listener graspd runs (JSON/HTTP and binary frames
// on one port), n worker runtimes registered with it, and a service
// fronting the lot — the smallest complete instance of the distributed
// subsystem.
type clusterStack struct {
	Coord   *cluster.Coordinator
	Svc     *service.Service
	srv     *cluster.Server
	workers []*cluster.Worker
}

// startClusterStack builds the coordinator, starts n workers (node-a,
// node-b, …) with the given per-node capacity, waits until all are live,
// and wires a service over them. Workers negotiate their transport (auto:
// binary). Callers must Close the stack.
func startClusterStack(n, capacity int, svcCfg service.Config) (*clusterStack, error) {
	coord := cluster.NewCoordinator(cluster.Config{
		DeadAfter:    2 * time.Second,
		MaxLeaseWait: 200 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	cs := &clusterStack{Coord: coord, srv: cluster.NewServer(coord)}
	go cs.srv.Serve(ln)
	for i := 0; i < n; i++ {
		w, err := cluster.StartWorker(cluster.WorkerConfig{
			Coordinator: "http://" + ln.Addr().String(),
			ID:          fmt.Sprintf("node-%c", 'a'+i),
			Capacity:    capacity,
			BenchSpin:   10_000,
			Heartbeat:   50 * time.Millisecond,
			LeaseWait:   100 * time.Millisecond,
		})
		if err != nil {
			cs.Close()
			return nil, err
		}
		cs.workers = append(cs.workers, w)
	}
	if !waitFor(func() bool { return len(coord.Live()) >= n }) {
		cs.Close()
		return nil, fmt.Errorf("only %d of %d nodes registered", len(coord.Live()), n)
	}
	svcCfg.Cluster = coord
	cs.Svc = service.New(svcCfg)
	return cs, nil
}

// Close stops the workers, the dual-transport server, and the coordinator.
func (cs *clusterStack) Close() {
	for _, w := range cs.workers {
		w.Stop()
	}
	cs.srv.Close()
	cs.Coord.Close()
}
