// Command ladder is the benchmark's in-process layer budget: the same
// seeded task stream is run through stacks that each add one layer of the
// system — the spin kernel, the adaptive farm engine, the service's
// Push/Results, the write-ahead journal, the HTTP handler, cluster
// placement — with a span around every call into a layer's public
// functions. A layer's self time is its rung minus the rung below.
//
// It is the only part of the benchmark that imports the repo's internal
// packages; the harness builds and runs it on traced runs and merges the
// JSON it prints. Spans inside the program are a later change: everything
// here is measured from the benchmark's own files.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"grasp/bench/spanlog"
	"grasp/internal/calibrate"
	"grasp/internal/cluster"
	"grasp/internal/journal"
	"grasp/internal/metrics"
	"grasp/internal/monitor"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/sched"
	"grasp/internal/service"
	"grasp/internal/skel/adapt"
	"grasp/internal/skel/engine"
	"grasp/internal/trace"
)

// The standard task and job shape, the same as the harness drives over
// HTTP: 100 000 spin iterations with seeded ±25 % jitter, 32-task pushes,
// window 64, two worker slots.
const (
	stdSpin = 100_000
	batch   = 32
	window  = 64
	workers = 2
)

var (
	tr      = spanlog.New(time.Now())
	out     = map[string]float64{}
	scratch string
)

func main() {
	seed := flag.Int64("seed", 1, "seed of the task stream")
	tasks := flag.Int("tasks", 20000, "length of the stream on the fast rungs; slower rungs run a fixed fraction of it")
	dir := flag.String("dir", "", "scratch directory for journals (default: the system's)")
	flag.Parse()
	var err error
	if scratch, err = os.MkdirTemp(*dir, "ladder-"); err != nil {
		fail(err)
	}
	defer os.RemoveAll(scratch)

	spins := stream(*seed, *tasks)
	n := len(spins)

	kernel := rungKernel(spins)
	farm := rungSkeleton("engine.farm", adapt.Farm, spins)
	pipe := rungSkeleton("engine.pipeline", adapt.Pipeline, spins[:n/2])
	dmap := rungSkeleton("engine.dmap", adapt.DMap, spins)
	svc := rungService("service.mem", spins, service.Config{Workers: workers}, false, tr)
	wal := rungService("service.wal", spins[:n/5], service.Config{Workers: workers, DataDir: filepath.Join(scratch, "wal")}, false, tr)
	httpOn := rungService("service.http", spins, service.Config{Workers: workers}, true, tr)
	httpOff := rungService("service.http.untraced", spins, service.Config{Workers: workers}, true, nil)
	clus := rungCluster(spins[:n/2])

	out["kernel.task_ns"] = kernel.wallNS
	var iters float64
	for _, s := range spins {
		iters += float64(s)
	}
	out["kernel.spin_ns_per_iter"] = kernel.wallNS * float64(n) / iters
	// The rungs above the kernel run it on two worker slots at once, so the
	// kernel's share of a rung's wall time per task is half its serial cost.
	kernelShare := kernel.wallNS / workers
	out["engine.dispatch_ns_per_task"] = farm.wallNS - kernelShare
	out["engine.allocs_per_task"] = farm.allocs
	out["engine.pipeline_ns_per_task"] = pipe.wallNS
	out["engine.dmap_ns_per_task"] = dmap.wallNS
	out["service.push_ns_per_task"] = svc.wallNS - farm.wallNS
	out["service.allocs_per_task"] = svc.allocs - farm.allocs
	out["service.results_ns_per_task"] = svc.resultsNS
	out["wal.commit_ns_per_task"] = wal.wallNS - svc.wallNS
	out["service.http_ns_per_task"] = httpOn.wallNS - svc.wallNS
	out["cluster.dispatch_ns_per_task"] = clus.wallNS - svc.wallNS
	out["trace.overhead_ratio"] = httpOn.wallNS / httpOff.wallNS
	out["budget.sum_ns_per_task"] = kernelShare + out["engine.dispatch_ns_per_task"] + out["service.push_ns_per_task"] +
		out["wal.commit_ns_per_task"] + out["service.http_ns_per_task"] + out["cluster.dispatch_ns_per_task"]
	// The same sum in CPU time; the harness divides it by the traced
	// workload's measured CPU per task to report budget.coverage.
	out["budget.cpu_ns_per_task"] = svc.cpuNS + (wal.cpuNS - svc.cpuNS) + (httpOn.cpuNS - svc.cpuNS) + (clus.cpuNS - svc.cpuNS)

	microMonitor()
	microCalibrate()
	microJournal()
	microTransports()
	microInstruments()

	for name, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fail(fmt.Errorf("%s is not finite", name))
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"metrics": out, "spans": tr.Spans()}); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ladder:", err)
	if scratch != "" {
		os.RemoveAll(scratch)
	}
	os.Exit(1)
}

// stream is the seeded task stream: task i spins spins[i] iterations.
func stream(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	spins := make([]int64, n)
	for i := range spins {
		spins[i] = int64(math.Round(stdSpin * (0.75 + 0.5*rng.Float64())))
	}
	return spins
}

// rung is what one stack measured, per task of its stream.
type rung struct {
	wallNS    float64
	cpuNS     float64
	allocs    float64
	resultsNS float64 // time inside Results calls
}

// meter measures a rung: wall time, process CPU time and heap allocations
// between start and stop, per task.
type meter struct {
	name   string
	wall   int64
	cpu    float64
	mallos uint64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func start(name string) meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{name: name, wall: tr.Now(), cpu: cpuSeconds(), mallos: ms.Mallocs}
}

func (m meter) stop(n int) rung {
	end := tr.Now()
	cpu := cpuSeconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tr.Record(0, m.name, m.wall, end, n)
	return rung{
		wallNS: float64(end-m.wall) / float64(n),
		cpuNS:  (cpu - m.cpu) * 1e9 / float64(n),
		allocs: float64(ms.Mallocs-m.mallos) / float64(n),
	}
}

// rungKernel runs the stream through the spin kernel alone, one task after
// another on one goroutine.
func rungKernel(spins []int64) rung {
	m := start("kernel")
	for _, s := range spins {
		t0 := tr.Now()
		cluster.Spin(s)
		tr.Record(0, "kernel.spin", t0, tr.Now(), 1)
	}
	return m.stop(len(spins))
}

func spinTask(id int, spin int64) platform.Task {
	return platform.Task{ID: id, Cost: 1, Data: cluster.Work{Cost: 1, Spin: spin},
		Fn: func() any { cluster.Spin(spin); return id }}
}

// rungSkeleton streams the tasks through one skeleton's engine runner on
// the local platform, as the service does (weighted chunks; a pipeline of
// three stages whose middle stage costs double).
func rungSkeleton(name, skeleton string, spins []int64) rung {
	runner, err := adapt.New(adapt.Spec{
		Skeleton: skeleton, Chunk: sched.Weighted{}, Stages: 3,
		StageTask: func(stage int, t platform.Task) platform.Task {
			w := t.Data.(cluster.Work)
			if stage == 1 {
				w.Spin *= 2
			}
			return spinTask(t.ID, w.Spin)
		},
	})
	if err != nil {
		fail(err)
	}
	l := rt.NewLocal()
	pf := platform.NewLocalPlatform(l, workers)
	in := l.NewChan("ladder.in", window)
	m := start(name)
	l.Go("ladder.producer", func(c rt.Ctx) {
		for i, s := range spins {
			in.Send(c, spinTask(i, s))
		}
		in.Close(c)
	})
	var rep engine.StreamReport
	l.Go("ladder.root", func(c rt.Ctx) {
		rep = runner(pf, c, in, engine.StreamOptions{
			Window: window,
			// A parked detector: every completion is observed, none breaches.
			Detector: &monitor.Detector{Z: time.Hour, Rule: monitor.RuleMinOver, Window: workers, MinSamples: workers},
		})
	})
	if err := l.Run(); err != nil {
		fail(err)
	}
	if len(rep.Results) != len(spins) {
		fail(fmt.Errorf("%s finished %d of %d tasks", name, len(rep.Results), len(spins)))
	}
	return m.stop(len(spins))
}

// pushPoll abstracts how a service rung reaches its job: direct calls or
// HTTP.
type pushPoll struct {
	push    func(specs []service.TaskSpec) error
	results func(after int) (n, next int, done bool, err error)
	close   func() error
}

// drive pushes the stream in batches from one goroutine while this one
// follows the results cursor, a span around every call.
func drive(spins []int64, pp pushPoll, t *spanlog.Tracer) (resultsNS float64) {
	pushErr := make(chan error, 1)
	go func() {
		specs := make([]service.TaskSpec, 0, batch)
		for i := 0; i < len(spins); i += batch {
			specs = specs[:0]
			for k := i; k < min(i+batch, len(spins)); k++ {
				specs = append(specs, service.TaskSpec{ID: k, Cost: 1, Spin: spins[k]})
			}
			t0 := t.Now()
			if err := pp.push(specs); err != nil {
				pushErr <- err
				return
			}
			t.Record(0, "service.push", t0, t.Now(), len(specs))
		}
		t0 := t.Now()
		err := pp.close()
		t.Record(0, "service.close", t0, t.Now(), 0)
		pushErr <- err
	}()
	seen, cursor := 0, 0
	var inResults int64
	for {
		t0 := time.Now()
		s0 := t.Now()
		n, next, done, err := pp.results(cursor)
		inResults += int64(time.Since(t0))
		t.Record(0, "service.results", s0, t.Now(), n)
		if err != nil {
			fail(err)
		}
		seen, cursor = seen+n, next
		if n == 0 && done {
			break
		}
		if n == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if err := <-pushErr; err != nil {
		fail(err)
	}
	if seen != len(spins) {
		fail(fmt.Errorf("results served %d of %d tasks", seen, len(spins)))
	}
	return float64(inResults) / float64(len(spins))
}

// rungService streams the tasks through a service job: service.Open over
// cfg (durable when cfg.DataDir is set), reached by direct Push/Results
// calls or, with overHTTP, through service.NewHandler behind httptest.
// t is the tracer of the rung's own calls; nil is the untraced twin.
func rungService(name string, spins []int64, cfg service.Config, overHTTP bool, t *spanlog.Tracer) rung {
	s, err := service.Open(cfg)
	if err != nil {
		fail(err)
	}
	defer s.Close()
	spec := service.JobSpec{Window: window, MaxResults: 20000}
	if cfg.Cluster != nil {
		spec.Placement = service.PlacementCluster
	}
	j, err := s.Submit("ladder", spec)
	if err != nil {
		fail(err)
	}
	pp := pushPoll{
		push: func(specs []service.TaskSpec) error { _, err := j.Push(specs); return err },
		results: func(after int) (int, int, bool, error) {
			done := j.Status().State == service.JobDone
			res, next := j.Results(after)
			return len(res), next, done, nil
		},
		close: j.CloseInput,
	}
	if overHTTP {
		srv := httptest.NewServer(service.NewHandler(s))
		defer srv.Close()
		pp = httpPushPoll(srv.URL + "/api/v1/jobs/ladder")
	}
	m := start(name)
	resultsNS := drive(spins, pp, t)
	r := m.stop(len(spins))
	r.resultsNS = resultsNS
	return r
}

// httpPushPoll reaches a job over its HTTP endpoints.
func httpPushPoll(jobURL string) pushPoll {
	hc := &http.Client{Timeout: 30 * time.Second}
	do := func(method, url string, body []byte, want int) ([]byte, error) {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return nil, err
		}
		if resp.StatusCode != want {
			return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, buf.String())
		}
		return buf.Bytes(), nil
	}
	return pushPoll{
		push: func(specs []service.TaskSpec) error {
			body, err := json.Marshal(specs)
			if err != nil {
				return err
			}
			_, err = do(http.MethodPost, jobURL+"/tasks", body, http.StatusAccepted)
			return err
		},
		results: func(after int) (int, int, bool, error) {
			data, err := do(http.MethodGet, jobURL+"/results?after="+strconv.Itoa(after), nil, http.StatusOK)
			if err != nil {
				return 0, 0, false, err
			}
			var reply struct {
				Results []service.TaskResult `json:"results"`
				Next    int                  `json:"next"`
				State   string               `json:"state"`
			}
			if err := json.Unmarshal(data, &reply); err != nil {
				return 0, 0, false, err
			}
			return len(reply.Results), reply.Next, reply.State == service.JobDone, nil
		},
		close: func() error {
			_, err := do(http.MethodPost, jobURL+"/close", nil, http.StatusOK)
			return err
		},
	}
}

// clusterFixture is a coordinator serving both wire bindings on a loopback
// listener.
type clusterFixture struct {
	coord *cluster.Coordinator
	srv   *cluster.Server
	url   string
}

func newClusterFixture() *clusterFixture {
	coord := cluster.NewCoordinator(cluster.Config{DeadAfter: 5 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	srv := cluster.NewServer(coord)
	go srv.Serve(ln)
	return &clusterFixture{coord: coord, srv: srv, url: "http://" + ln.Addr().String()}
}

func (f *clusterFixture) close() {
	f.srv.Close()
	f.coord.Close()
}

// rungCluster streams the tasks through a placement:cluster job over two
// in-process worker nodes speaking the binary transport to a real
// listener — the deployment of the cluster-farm workload in one process.
func rungCluster(spins []int64) rung {
	f := newClusterFixture()
	defer f.close()
	for i := 0; i < 2; i++ {
		w, err := cluster.StartWorker(cluster.WorkerConfig{
			Coordinator: f.url, ID: "ladder-n" + strconv.Itoa(i),
			Capacity: 1, Batch: 8, Transport: cluster.TransportBinary,
		})
		if err != nil {
			fail(err)
		}
		defer w.Stop()
	}
	return rungService("service.cluster", spins, service.Config{Workers: workers, Cluster: f.coord}, false, tr)
}

// timeLoop runs fn iters times under one span and returns ns per call.
func timeLoop(name string, iters int, fn func(i int)) float64 {
	t0 := tr.Now()
	for i := 0; i < iters; i++ {
		fn(i)
	}
	end := tr.Now()
	tr.Record(0, name, t0, end, iters)
	return float64(end-t0) / float64(iters)
}

// microMonitor prices the detector: one Observe and one Breached per
// completion, as the engine's coordinator does.
func microMonitor() {
	d := &monitor.Detector{Z: time.Hour, Rule: monitor.RuleMinOver, Window: workers, MinSamples: workers}
	out["monitor.observe_ns"] = timeLoop("monitor.observe", 1_000_000, func(i int) {
		d.Observe(time.Duration(20+i%7) * time.Microsecond)
		d.Breached()
	})
}

// microCalibrate prices Algorithm 1 as the service runs it at the first job:
// one spin probe per worker slot. The median of five runs.
func microCalibrate() {
	var ms []float64
	for i := 0; i < 5; i++ {
		l := rt.NewLocal()
		pf := platform.NewLocalPlatform(l, workers)
		probe := platform.Task{ID: -1, Cost: 50000, Fn: func() any { cluster.Spin(50000); return nil }}
		t0 := tr.Now()
		l.Go("ladder.calibrate", func(c rt.Ctx) {
			if _, err := calibrate.Run(pf, c, calibrate.Options{Strategy: calibrate.TimeOnly, Probes: []platform.Task{probe}}); err != nil {
				fail(err)
			}
		})
		if err := l.Run(); err != nil {
			fail(err)
		}
		end := tr.Now()
		tr.Record(0, "calibrate.run", t0, end, workers)
		ms = append(ms, float64(end-t0)/1e6)
	}
	sort.Float64s(ms)
	out["calibrate.run_ms"] = ms[len(ms)/2]
}

// microJournal prices the journal alone: appends of one and of 32 records
// without a sync, the sync itself, and replay on reopen. Records are the
// size of a result acknowledgement.
func microJournal() {
	path := filepath.Join(scratch, "journal.log")
	log, _, _, err := journal.OpenLog(path)
	if err != nil {
		fail(err)
	}
	record := bytes.Repeat([]byte("r"), 96)
	one := [][]byte{record}
	many := make([][]byte, 32)
	for i := range many {
		many[i] = record
	}
	appendBatch := func(b [][]byte) {
		if err := log.AppendBatch(b); err != nil {
			fail(err)
		}
	}
	out["journal.append_ns_per_record_b1"] = timeLoop("journal.append.b1", 4000, func(int) { appendBatch(one) })
	out["journal.append_ns_per_record_b32"] = timeLoop("journal.append.b32", 400, func(int) { appendBatch(many) }) / 32
	var syncNS int64
	for i := 0; i < 200; i++ {
		appendBatch(one)
		t0 := tr.Now()
		if err := log.Sync(); err != nil {
			fail(err)
		}
		end := tr.Now()
		tr.Record(0, "journal.sync", t0, end, 1)
		syncNS += end - t0
	}
	out["journal.sync_ns"] = float64(syncNS) / 200
	if err := log.Close(); err != nil {
		fail(err)
	}
	t0 := tr.Now()
	log, records, _, err := journal.OpenLog(path)
	if err != nil {
		fail(err)
	}
	end := tr.Now()
	tr.Record(0, "journal.replay", t0, end, len(records))
	out["journal.replay_ns_per_record"] = float64(end-t0) / float64(len(records))
	log.Close()
}

// microTransports prices the two worker wire bindings against the same
// in-process server: a hand-rolled node leases eight tasks at a time and
// posts their results at once, a span around every Lease and Results call,
// while 64 submitters keep its queue full so no lease waits for work.
func microTransports() {
	const (
		slots    = 64
		perLease = 8
		tasks    = 8000
	)
	for _, name := range []string{cluster.TransportBinary, cluster.TransportJSON} {
		f := newClusterFixture()
		tp, err := cluster.NewTransport(name, f.url, cluster.DefaultWorkerClient())
		if err != nil {
			fail(err)
		}
		reg, err := tp.Register(cluster.RegisterRequest{ID: "ladder-" + name, Capacity: slots, SpeedOPS: 1e9, Transports: []string{name}})
		if err != nil {
			fail(err)
		}
		l := rt.NewLocal()
		pool := cluster.NewPool(f.coord, l, f.coord.Live())
		var wg sync.WaitGroup
		for slot := 0; slot < slots; slot++ {
			wg.Add(1)
			slot := slot
			l.Go("ladder.submit", func(c rt.Ctx) {
				defer wg.Done()
				for i := 0; i < tasks/slots; i++ {
					if res := pool.Exec(c, slot, spinTask(slot*tasks+i, stdSpin)); res.Failed() {
						fail(fmt.Errorf("%s transport: dispatch failed: %v", name, res.Err))
					}
				}
			})
		}
		var leaseNS, resultsNS int64
		var leased []cluster.WireTask
		done := 0
		for done < tasks {
			t0 := tr.Now()
			leased, err = tp.Lease(cluster.LeaseRequest{ID: "ladder-" + name, Gen: reg.Gen, Max: perLease, WaitMS: 100}, leased[:0])
			t1 := tr.Now()
			if err != nil {
				fail(err)
			}
			tr.Record(0, "cluster."+name+".lease", t0, t1, len(leased))
			leaseNS += t1 - t0
			if len(leased) == 0 {
				continue
			}
			req := cluster.ResultsRequest{ID: "ladder-" + name, Gen: reg.Gen}
			for _, wt := range leased {
				req.Results = append(req.Results, cluster.WireResult{Dispatch: wt.Dispatch, Task: wt.Task, Micros: 20})
			}
			t0 = tr.Now()
			if err := tp.Results(req); err != nil {
				fail(err)
			}
			t1 = tr.Now()
			tr.Record(0, "cluster."+name+".results", t0, t1, len(leased))
			resultsNS += t1 - t0
			done += len(leased)
			if _, sized := out["cluster.frame_bytes_per_task"]; !sized {
				lb, rb := cluster.EncodedFrameSizes(leased, req)
				out["cluster.frame_bytes_per_task"] = float64(lb+rb) / float64(len(leased))
			}
		}
		wg.Wait()
		out["cluster."+name+".lease_ns_per_task"] = float64(leaseNS) / tasks
		out["cluster."+name+".results_ns_per_task"] = float64(resultsNS) / tasks
		tp.Close()
		f.close()
	}
}

// microInstruments prices the observability a daemon job carries on every
// completion: one histogram observation, one append to a warm bounded
// trace ring.
func microInstruments() {
	h := metrics.NewRegistry().Histogram("ladder_task_latency_seconds", metrics.DefDurationBuckets)
	out["metrics.observe_ns"] = timeLoop("metrics.observe", 1_000_000, func(i int) {
		h.ObserveDuration(time.Duration(20+i%7) * time.Microsecond)
	})
	ring := trace.NewBounded(4096)
	out["trace.append_ns"] = timeLoop("trace.append", 1_000_000, func(i int) {
		ring.Append(trace.Event{At: time.Duration(i), Kind: trace.KindComplete, Task: i})
	})
}
