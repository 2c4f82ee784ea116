package main

import (
	"fmt"
	"math"
	"syscall"
	"time"
)

const (
	// sliceWidth is the width of the slices a measured window is cut into;
	// see goodQuartile. Half a second is still a hundred results on the
	// slowest workload.
	sliceWidth = 500 * time.Millisecond
	// jobWindow is the in-flight window of every job but cluster-degrade's.
	jobWindow = 64
	// maxResults bounds each job's retained results, so daemon memory is
	// steady state and not a function of run length.
	maxResults = 20000
	// openRate is fullpath-open's offered load, about half the closed-loop
	// capacity of the same path on the two-core sizing box.
	openRate = 200.0
	// degradeLead is how long after node n0 starts that cluster-degrade's
	// stream begins; it covers set-up, so the scripted degradation lands a
	// known time into the stream.
	degradeLead = 1500 * time.Millisecond
	// degradeTasksPerSecond sizes cluster-degrade's fixed batch: four
	// executors at 2 ms a task run 2000 tasks/s healthy and 1250 once n0
	// is four times slower, so this many tasks per second of --seconds
	// finish in about three quarters of it.
	degradeTasksPerSecond = 1000
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// suiteOnly keeps a workload out of BENCHMARK.json: the suite runs and
	// checks it, the driver does not gate on it.
	suiteOnly bool
	topo      func(env *environment) topology
	jobs      func(env *environment) []jobPlan
}

func farmSpec(name string, extra map[string]any) map[string]any {
	spec := map[string]any{"name": name, "skeleton": "farm", "window": jobWindow, "max_results": maxResults}
	for k, v := range extra {
		spec[k] = v
	}
	return spec
}

var workloads = []workload{
	{
		name: "local-skeletons",
		why:  "in-memory farm, pipeline and dmap back to back: service decode + engine + skeleton loops do all the work; wal, journal and cluster do none",
		topo: func(*environment) topology { return topology{} },
		jobs: func(env *environment) []jobPlan {
			warm, window := env.warm/2, env.seconds/3
			return []jobPlan{
				{name: "farm", spec: farmSpec("farm", nil), batch: 32, warm: warm, window: window},
				{name: "pipeline", spec: farmSpec("pipeline", map[string]any{
					"skeleton": "pipeline",
					"stages":   []map[string]any{{"name": "in"}, {"name": "mid", "cost_factor": 2}, {"name": "out"}},
				}), batch: 32, warm: warm, window: window},
				{name: "dmap", spec: farmSpec("dmap", map[string]any{"skeleton": "dmap"}), batch: 32, warm: warm, window: window},
			}
		},
	},
	{
		name: "durable-farm",
		why:  "one farm job on graspd -data-dir, closed loop: a push commit per POST and one ack commit per completion, so wal + journal dominate; ends with a SIGKILL/restart exactly-once check",
		// One fsync per completion, serially: at this commit the throughput is
		// the host disk's fsync rate, which on the sandbox drifts between 400
		// and 6 000 a second over minutes. No bound the contract allows holds,
		// and a gate on it would reject unrelated changes. It joins
		// BENCHMARK.json, as a change of its own, once acks are coalesced
		// (ROADMAP item 2) and it is the program that is measured.
		suiteOnly: true,
		topo:      func(*environment) topology { return topology{durable: true} },
		jobs: func(env *environment) []jobPlan {
			return []jobPlan{{name: "durable", spec: farmSpec("durable", nil), batch: 32,
				warm: env.warm, window: env.seconds, crashCheck: true}}
		},
	},
	{
		name: "cluster-farm",
		why:  "one placement:cluster farm job over two graspworker processes on the binary transport, closed loop: coordinator lease/results, codec and worker loops dominate; wal does nothing",
		topo: func(*environment) topology { return topology{workers: 2, capacity: 1, batch: 8} },
		jobs: func(env *environment) []jobPlan {
			return []jobPlan{{name: "cluster", spec: farmSpec("cluster", map[string]any{"placement": "cluster"}),
				batch: 32, warm: env.warm, window: env.seconds}}
		},
	},
	{
		name: "fullpath-open",
		why:  "open loop at 400 tasks/s, one task per POST, through HTTP, wal, cluster dispatch, worker, ack and poll: the whole path at half its capacity, measured as latency from when a task was due",
		topo: func(*environment) topology { return topology{durable: true, workers: 2, capacity: 1, batch: 8} },
		jobs: func(env *environment) []jobPlan {
			return []jobPlan{{name: "fullpath", spec: farmSpec("fullpath", map[string]any{"placement": "cluster"}),
				openRate: openRate, warm: env.warm, window: env.seconds}}
		},
	},
	{
		name: "cluster-degrade",
		why:  "fixed batch of 2 ms sleep tasks on two 2-slot nodes, one turning 4x slower a third of the way in: detector + engine reweighting + cluster leasing decide where work goes, the paper's scenario",
		topo: func(env *environment) topology {
			return topology{workers: 2, capacity: 2, batch: 1, degradeFactor: 4,
				degradeAfter: degradeLead + time.Duration(env.seconds/3*float64(time.Second))}
		},
		jobs: func(env *environment) []jobPlan {
			return []jobPlan{{name: "degrade", kind: kindSleep, batch: 64,
				spec:  farmSpec("degrade", map[string]any{"placement": "cluster", "window": 32, "adapt": "reactive"}),
				limit: max(64, int(math.Round(degradeTasksPerSecond*env.seconds)))}}
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// cpuUSPerTask is the run's CPU cost per visible task, kept on traced
	// runs too: the ladder's budget.coverage is taken against it.
	cpuUSPerTask float64
}

// runWorkload brings the workload's deployment up env.setups times —
// setup_s is the median — and drives its jobs on one of them. Half the
// set-ups come before the measured run and half after it: the host's speed
// moves on a scale of seconds, and set-ups bunched at one instant would all
// see the same speed.
func runWorkload(env *environment, w workload) (*result, error) {
	topo, plans := w.topo(env), w.jobs(env)
	var setups []float64
	setUp := func() (*sut, error) {
		s, took, err := startSUT(env, topo, plans[0].spec)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", len(setups)+1, err)
		}
		setups = append(setups, took)
		return s, nil
	}
	var s *sut
	for i := 0; i < (env.setups+1)/2; i++ {
		if s != nil {
			s.stop()
		}
		var err error
		if s, err = setUp(); err != nil {
			return nil, err
		}
	}
	defer s.stop()
	// The set-ups above created and deleted data directories. Flush that to
	// disk now: on ext4 a journal commit carries every file's pending
	// metadata (and queued discards), so leftovers would be paid for by the
	// first fsyncs of the measured daemon instead.
	syscall.Sync()

	var outs []*jobOutcome
	for i, plan := range plans {
		if i > 0 {
			if err := s.cl.createJob(plan.spec); err != nil {
				return nil, fmt.Errorf("create job %s: %w", plan.name, err)
			}
		}
		if topo.degradeAfter > 0 {
			// Start the stream a fixed lead after n0 started, so the scripted
			// degradation sets in a known time into it.
			n0 := s.workers[0].started
			time.Sleep(time.Until(n0.Add(degradeLead)))
			plan.tallyFrom = time.Until(n0.Add(topo.degradeAfter)).Seconds()
		}
		out, err := s.runJob(plan)
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", plan.name, err)
		}
		if err := s.alive(); err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}
	res := assemble(env, w, s, outs)
	s.stop()
	for len(setups) < env.setups {
		again, err := setUp()
		if err != nil {
			return nil, err
		}
		again.stop()
	}
	if !res.Traced {
		res.Metrics["setup_s"] = median(setups)
	}
	return res, nil
}

// assemble turns the jobs' outcomes into the workload's result: the
// end-to-end metrics (but setup_s) on an untraced run, the black-box
// per-layer metrics on a traced one.
func assemble(env *environment, w workload, s *sut, outs []*jobOutcome) *result {
	res := &result{Workload: w.name, Seed: env.seed, Traced: env.tr != nil, Metrics: map[string]float64{}}
	var (
		visible, pushed                        int
		windowS, daemonCPU, workerCPU, selfCPU float64
		lat, acc, late                         []float64
		tps, latP50                            []float64
		micros, dataGrowth                     float64
		daemonRSS, workerRSS                   float64
		delta, workerDelta                     = map[string]float64{}, map[string]float64{}
		byNode                                 = map[string]int{}
		breaches, recals, maxInFlight          int
	)
	for _, o := range outs {
		visible += o.visible
		pushed += o.pushed
		windowS += o.windowS
		daemonCPU += o.end.daemonCPU - o.begin.daemonCPU
		workerCPU += o.end.workerCPU - o.begin.workerCPU
		selfCPU += o.end.selfCPU - o.begin.selfCPU
		dataGrowth += float64(max(0, o.end.dataBytes-o.begin.dataBytes))
		daemonRSS, workerRSS = math.Max(daemonRSS, o.end.daemonRSS), math.Max(workerRSS, o.end.workerRSS)
		lat, acc, late = append(lat, o.latMS...), append(acc, o.accMS...), append(late, o.lateMS...)
		tps, latP50 = append(tps, o.tps), append(latP50, o.latP50)
		micros += o.microsUS * float64(o.visible)
		for k, v := range promDelta(o.begin.daemonProm, o.end.daemonProm) {
			delta[k] += v
		}
		for k, v := range promDelta(o.begin.workerProm, o.end.workerProm) {
			workerDelta[k] += v
		}
		for k, v := range o.byNode {
			byNode[k] += v
		}
		breaches += o.status.Breaches
		recals += o.status.Recalibrations
		maxInFlight = max(maxInFlight, o.status.MaxInFlight)
		res.Failed += o.missing + o.dups
		res.Problems = append(res.Problems, o.problems...)
	}
	refused, errored := int(s.cl.refused.Load()), int(s.cl.errored.Load())
	if refused > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d pushes were refused with 429", refused))
	}
	if errored > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d calls failed", errored))
	}
	if visible == 0 {
		res.Problems = append(res.Problems, "no result became visible inside the measured window")
	}
	res.Attempted = pushed + refused + errored
	res.Failed += refused + errored
	res.Correct = len(res.Problems) == 0
	tasks := float64(visible)
	res.cpuUSPerTask = ratio((daemonCPU+workerCPU)*1e6, tasks)

	if !res.Traced {
		// A workload's figure is the geometric mean of its jobs' figures.
		res.Metrics["throughput_tps"] = geomean(tps)
		res.Metrics["latency_p50_ms"] = geomean(latP50)
		return res
	}

	m := res.Metrics
	for k, v := range daemonLayerMetrics(delta, visible, windowS) {
		m[k] = v
	}
	first, last := outs[0].begin.atNS, outs[len(outs)-1].end.atNS
	m["service.push_rtt_ms_p50"] = median(env.tr.Durations("service.push", first, last)) / 1e6
	m["service.poll_rtt_ms_p50"] = median(env.tr.Durations("service.poll", first, last)) / 1e6
	m["service.accept_to_visible_ms_p50"] = median(acc)
	m["cpu_us_per_task"] = res.cpuUSPerTask
	m["service.cpu_us_per_task"] = ratio(daemonCPU*1e6, tasks)
	m["service.peak_rss_mb"] = daemonRSS
	m["visible.latency_p90_ms"] = percentile(lat, 90)
	m["visible.latency_p99_ms"] = percentile(lat, 99)
	m["wal.bytes_per_task"] = ratio(dataGrowth, tasks)
	m["wal.recovery_s"] = outs[0].recovery
	// The skeleton rates are those of in-memory local jobs only, where the
	// skeleton's own loop is what is measured.
	for _, name := range []string{"farm", "pipeline", "dmap"} {
		m["skel."+name+".tps"] = 0
	}
	if s.topo == (topology{}) {
		for _, o := range outs {
			m["skel."+o.plan.spec["skeleton"].(string)+".tps"] = o.tps
		}
	}
	m["engine.recals_per_ktask"] = ratio(float64(recals)*1e3, float64(pushed))
	m["engine.breaches_per_ktask"] = ratio(float64(breaches)*1e3, float64(pushed))
	m["engine.max_in_flight"] = float64(maxInFlight)
	m["cluster.roundtrip_us_mean"] = 0
	if len(s.workers) > 0 {
		m["cluster.roundtrip_us_mean"] = ratio(micros, tasks)
	}
	onNodes := 0
	for _, n := range byNode {
		onNodes += n
	}
	m["cluster.slow_node_share"] = ratio(float64(byNode["n0"]), float64(onNodes))
	m["worker.cpu_us_per_task"] = ratio(workerCPU*1e6, tasks)
	m["worker.peak_rss_mb"] = workerRSS
	m["worker.lease_rtt_ms_mean"] = ratio(workerDelta["worker_lease_rtt_seconds_sum"], workerDelta["worker_lease_rtt_seconds_count"]) * 1e3
	m["loadgen.late_ms_p99"] = percentile(late, 99)
	m["loadgen.cpu_us_per_task"] = ratio(selfCPU*1e6, tasks)
	m["degrade.makespan_s"] = 0
	if outs[0].plan.limit > 0 {
		m["degrade.makespan_s"] = outs[0].windowS
	}
	return res
}
