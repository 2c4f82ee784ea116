package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"grasp/bench/spanlog"
)

// environment is what the runs of one invocation share.
type environment struct {
	binDir  string
	workDir string          // data directories live here; removed on exit
	conns   int             // connections in total: pushers + 1 poller
	seed    int64           // drives task jitter and the open-loop schedule
	seconds float64         // length of the measured window
	warm    float64         // warm-up before the window, excluded from every timing
	setups  int             // deployments brought up per run; setup_s is their median
	tr      *spanlog.Tracer // nil on the untraced run
	epoch   time.Time
	// deadline fails a run that cannot finish in three times its nominal
	// length, so a wedged daemon costs a failed workload, not a hung driver.
	deadline time.Time
}

func (e *environment) pushers() int { return max(1, e.conns-1) }

// jobPlan is one job of a workload: what it is, what load it gets and for
// how long.
type jobPlan struct {
	name  string
	spec  map[string]any
	kind  taskKind
	batch int // tasks per POST
	// warm and window, in seconds, bound a fixed-duration job; a job with
	// limit set instead pushes exactly that many tasks and is timed from
	// its first push to its last visible result.
	warm, window float64
	limit        int
	// openRate, when set, makes the job open loop: one task per POST, sent
	// on a seeded schedule at this many per second whatever the daemon does.
	openRate float64
	// crashCheck SIGKILLs graspd after the window and restarts it on the
	// same data directory before the job is closed.
	crashCheck bool
	// tallyFrom is how long after the first push the per-node tally starts
	// (the instant a scripted degradation sets in).
	tallyFrom float64
}

// sample is the state read at a window boundary.
type sample struct {
	atNS      int64
	daemonCPU float64
	workerCPU float64 // summed over the workers
	selfCPU   float64
	daemonRSS float64 // peak, MB
	workerRSS float64 // peak of the largest worker, MB
	dataBytes int64
	// Scrapes, on traced runs only: the daemon's /metrics, and the workers'
	// debug /metrics summed series by series.
	daemonProm map[string]float64
	workerProm map[string]float64
}

func (s *sut) sample() (sample, error) {
	out := sample{atNS: s.cl.now(), selfCPU: selfCPUSeconds()}
	var err error
	if out.daemonCPU, err = cpuSeconds(s.graspd.pid()); err != nil {
		return out, fmt.Errorf("read graspd cpu: %w", err)
	}
	for _, w := range s.workers {
		cpu, err := cpuSeconds(w.pid())
		if err != nil {
			return out, fmt.Errorf("read %s cpu: %w", w.name, err)
		}
		out.workerCPU += cpu
		out.workerRSS = math.Max(out.workerRSS, peakRSSMB(w.pid()))
	}
	out.daemonRSS = peakRSSMB(s.graspd.pid())
	if s.dataDir != "" {
		out.dataBytes = dirBytes(s.dataDir)
	}
	if s.env.tr != nil {
		if out.daemonProm, err = s.cl.scrape(s.base + "/metrics"); err != nil {
			return out, fmt.Errorf("scrape graspd: %w", err)
		}
		out.workerProm = make(map[string]float64)
		for i, w := range s.workers {
			prom, err := s.cl.scrape(s.workerDebug[i] + "/metrics")
			if err != nil {
				return out, fmt.Errorf("scrape %s: %w", w.name, err)
			}
			for k, v := range prom {
				out.workerProm[k] += v
			}
		}
	}
	return out, nil
}

// jobOutcome is what one job's run measured.
type jobOutcome struct {
	plan    jobPlan
	pushed  int // tasks the daemon accepted
	visible int // results visible inside the window
	windowS float64
	// The job's end-to-end figures: good-side quartiles of the window's slices
	// for a fixed-duration job, whole-run figures for a fixed batch.
	tps      float64
	latP50   float64
	begin    sample
	end      sample
	latMS    []float64 // sent (open loop: due) → visible, results in the window
	accMS    []float64 // POST returned → visible
	lateMS   []float64 // open loop: how late each send in the window was
	microsUS float64   // mean of the results' own execution micros
	byNode   map[string]int
	status   jobStatus
	recovery float64 // crash check: restart → job served, seconds
	problems []string
	missing  int
	dups     int
}

// poller follows one job's results cursor, one poll a millisecond, and
// checks the output as it goes: the cursor never moves back, no id is
// served twice, no id is served that was not pushed.
type poller struct {
	cl  *client
	job string
	st  *stream

	winStart, winEnd int64 // ns after epoch; results visible in [start, end) are measured
	tallyFrom        int64
	win              *slices

	cursor     int
	seen       []uint8
	tail       []int // ids at the cursor positions just before cursor
	inWindow   int
	dups       int
	unknown    int
	cursorBack bool
	state      string
	lastNS     int64 // when the newest result became visible
	latMS      []float64
	accMS      []float64
	microsSum  float64
	byNode     map[string]int
}

const tailLen = 1000

// step performs one poll and accounts for the page.
func (p *poller) step() (int, error) {
	reply, err := p.cl.poll(p.job, p.cursor)
	if err != nil {
		return 0, err
	}
	now := p.cl.now()
	if reply.Next < p.cursor {
		p.cursorBack = true
	}
	p.cursor = reply.Next
	p.state = reply.State
	measured := now >= p.winStart && now < p.winEnd
	pushed := p.st.pushed()
	for _, r := range reply.Results {
		if r.ID < 0 || r.ID >= pushed {
			p.unknown++
			continue
		}
		for r.ID >= len(p.seen) {
			p.seen = append(p.seen, make([]uint8, 1+len(p.seen))...)
		}
		if p.seen[r.ID] > 0 {
			p.dups++
		}
		if p.seen[r.ID] < math.MaxUint8 {
			p.seen[r.ID]++
		}
		p.tail = append(p.tail, r.ID)
		if now >= p.tallyFrom && r.Node != "" {
			p.byNode[r.Node]++
		}
		if !measured {
			continue
		}
		sent, ack, _ := p.st.times(r.ID)
		lat := float64(now-sent) / 1e6
		p.latMS = append(p.latMS, lat)
		p.win.add(now-p.winStart, lat)
		if ack > 0 {
			p.accMS = append(p.accMS, float64(max(0, now-ack))/1e6)
		}
		p.microsSum += float64(r.Micros)
		p.inWindow++
	}
	if len(reply.Results) > 0 {
		p.lastNS = now
		if over := len(p.tail) - tailLen; over > 0 {
			p.tail = append(p.tail[:0], p.tail[over:]...)
		}
	}
	return len(reply.Results), nil
}

// run polls until the job is done and drained, stop is closed, or the
// deadline passes.
func (p *poller) run(stop <-chan struct{}, deadline time.Time) error {
	for {
		n, err := p.step()
		if err != nil {
			return err
		}
		if n == 0 && p.state == "done" {
			return nil
		}
		select {
		case <-stop:
			return nil
		default:
		}
		if time.Now().After(deadline) {
			return errors.New("run exceeded three times its nominal length")
		}
		time.Sleep(time.Millisecond)
	}
}

// recheckTail re-reads the cursor positions of the last results served
// before a crash and checks the restarted daemon serves the same ids there.
func (p *poller) recheckTail() error {
	from := p.cursor - len(p.tail)
	reply, err := p.cl.poll(p.job, from)
	if err != nil {
		return err
	}
	if len(reply.Results) < len(p.tail) {
		return fmt.Errorf("after restart %d of the last %d results served before the kill are gone",
			len(p.tail)-len(reply.Results), len(p.tail))
	}
	for i, id := range p.tail {
		if reply.Results[i].ID != id {
			return fmt.Errorf("after restart cursor position %d serves id %d, was %d", from+i, reply.Results[i].ID, id)
		}
	}
	return nil
}

// sleepUntil blocks until ns after the client's epoch.
func (c *client) sleepUntil(ns int64) {
	if d := ns - c.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// pushClosed is one closed-loop pusher: it sends the stream's next batch as
// soon as the previous POST returns, until the stream's limit or stopNS.
func pushClosed(cl *client, job string, st *stream, limit int, stopNS int64) error {
	var buf []byte
	for {
		now := cl.now()
		if stopNS > 0 && now >= stopNS {
			return nil
		}
		body, idx, n := st.next(buf, now, limit)
		if n == 0 {
			return nil
		}
		buf = body
		if err := cl.push(job, body, n); err != nil {
			return err
		}
		st.acked(idx, cl.now())
	}
}

// pushOpen is the open-loop generator: it sends one task at each due time
// and never waits for results. A send is timed from when it was due, and
// how late it actually left is returned for the sends inside the window.
func pushOpen(cl *client, job string, st *stream, startNS int64, due []int64, winStart, winEnd int64) ([]float64, error) {
	var buf []byte
	var late []float64
	for _, d := range due {
		target := startNS + d
		cl.sleepUntil(target)
		if target >= winStart && target < winEnd {
			late = append(late, float64(cl.now()-target)/1e6)
		}
		body, idx, n := st.next(buf, target, 0)
		buf = body
		if err := cl.push(job, body, n); err != nil {
			return late, err
		}
		st.acked(idx, cl.now())
	}
	return late, nil
}

// runJob drives one job of a workload to completion and checks its output.
func (s *sut) runJob(plan jobPlan) (*jobOutcome, error) {
	env, cl := s.env, s.cl
	out := &jobOutcome{plan: plan}
	batch := plan.batch
	if plan.openRate > 0 {
		batch = 1
	}
	st := newStream(env.seed, plan.kind, batch)

	startNS := cl.now()
	fixed := plan.limit > 0
	winStart := startNS + int64(plan.warm*1e9)
	winEnd := winStart + int64(plan.window*1e9)
	if fixed {
		winStart, winEnd = startNS, math.MaxInt64
	}
	p := &poller{
		cl: cl, job: plan.name, st: st,
		winStart: winStart, winEnd: winEnd,
		tallyFrom: startNS + int64(plan.tallyFrom*1e9),
		win:       newSlices(int64(plan.window*1e9), int64(sliceWidth)),
		byNode:    make(map[string]int),
	}

	var err error
	if fixed {
		if out.begin, err = s.sample(); err != nil {
			return nil, err
		}
	}
	stopPoll := make(chan struct{})
	pollErr := make(chan error, 1)
	go func() { pollErr <- p.run(stopPoll, env.deadline) }()

	var wg sync.WaitGroup
	pushErrs := make([]error, env.pushers())
	if plan.openRate > 0 {
		due := schedule(env.seed, plan.openRate, winEnd-startNS)
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.lateMS, pushErrs[0] = pushOpen(cl, plan.name, st, startNS, due, winStart, winEnd)
		}()
	} else {
		stopNS := winEnd
		if fixed {
			stopNS = 0
		}
		for i := range pushErrs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				pushErrs[i] = pushClosed(cl, plan.name, st, plan.limit, stopNS)
			}(i)
		}
	}
	if !fixed {
		cl.sleepUntil(winStart)
		if out.begin, err = s.sample(); err == nil {
			cl.sleepUntil(winEnd)
			out.end, err = s.sample()
		}
	}
	wg.Wait()
	for _, perr := range pushErrs {
		if err == nil && perr != nil {
			err = perr
		}
	}
	if err == nil && plan.crashCheck {
		// Stop polling, kill the daemon with accepted tasks still in flight,
		// restart it, and resume from the same cursor.
		close(stopPoll)
		if err = <-pollErr; err == nil {
			if out.recovery, err = s.crashAndRestart(plan.name); err == nil {
				err = p.recheckTail()
			}
		}
		stopPoll = make(chan struct{})
		go func() { pollErr <- p.run(stopPoll, env.deadline) }()
	}
	if err == nil {
		err = cl.closeJob(plan.name)
	}
	if err != nil {
		close(stopPoll)
		<-pollErr
		return nil, err
	}
	if err := <-pollErr; err != nil {
		return nil, err
	}
	if fixed {
		if out.end, err = s.sample(); err != nil {
			return nil, err
		}
		out.end.atNS = p.lastNS // the clock stops when the last id is visible
	}
	if out.status, err = cl.status(plan.name); err != nil {
		return nil, err
	}

	out.pushed = st.pushed()
	out.visible = p.inWindow
	out.windowS = float64(out.end.atNS-out.begin.atNS) / 1e9
	switch {
	case fixed:
		out.tps, out.latP50 = ratio(float64(out.visible), out.windowS), median(p.latMS)
	case plan.openRate > 0:
		// The offered rate is the generator's, not the system's: throughput is
		// simply what became visible over the window, and must equal it.
		out.tps, out.latP50 = ratio(float64(out.visible), out.windowS), p.win.latencyP50()
	default:
		out.tps, out.latP50 = p.win.throughput(), p.win.latencyP50()
	}
	out.latMS, out.accMS, out.byNode = p.latMS, p.accMS, p.byNode
	out.microsUS = ratio(p.microsSum, float64(p.inWindow))
	out.dups = p.dups
	for id := 0; id < out.pushed; id++ {
		if id >= len(p.seen) || p.seen[id] == 0 {
			out.missing++
		}
	}
	problem := func(format string, a ...any) {
		out.problems = append(out.problems, fmt.Sprintf(plan.name+": "+format, a...))
	}
	if out.missing > 0 {
		problem("%d of %d pushed ids never became visible", out.missing, out.pushed)
	}
	if out.dups > 0 {
		problem("%d results were served twice", out.dups)
	}
	if p.unknown > 0 {
		problem("%d results carry ids that were never pushed", p.unknown)
	}
	if p.cursorBack {
		problem("the results cursor moved backwards")
	}
	if p.state != "done" || out.status.State != "done" {
		problem("state after close is %q, want done", out.status.State)
	}
	if out.status.Lost > 0 {
		problem("daemon reports %d tasks lost", out.status.Lost)
	}
	return out, nil
}
