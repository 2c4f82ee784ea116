package loadgen

// This file extends loadgen from modelling external pressure (the traces
// above) to generating it: an HTTP load driver that hammers a running
// graspd daemon with concurrent streaming jobs — the tool for observing
// the service layer under the continuous-traffic regime the roadmap
// targets.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Driver submits concurrent streaming jobs to a graspd daemon and drives
// each to completion. All fields besides BaseURL are optional.
type Driver struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8080".
	BaseURL string
	// Client is the HTTP client (default: 30s-timeout client).
	Client *http.Client
	// Jobs is how many concurrent jobs to run (default 3).
	Jobs int
	// TasksPerJob is the stream length per job (default 200).
	TasksPerJob int
	// Batch is how many tasks each POST carries (default 20).
	Batch int
	// SleepUS is the mean simulated task duration; per-task durations are
	// drawn uniformly from [0.5×, 1.5×] (default 500).
	SleepUS int64
	// Window overrides the per-job in-flight window (0: server default).
	Window int
	// PollEvery paces the arrival profiles' pushes and 429 retries (default
	// 20ms). Result polls do not sleep: a poll at the watermark waits in the
	// daemon for the next result.
	PollEvery time.Duration
	// Timeout bounds the whole run (default 2 minutes).
	Timeout time.Duration
	// Seed makes the task-duration jitter reproducible.
	Seed int64
	// JobPrefix names the jobs "<prefix>-<i>" (default "load").
	JobPrefix string
	// Skeletons cycles job topologies across the run's jobs: job k is
	// created with skeleton Skeletons[k%len] (default {"farm"}). Use
	// {"farm", "pipeline", "dmap"} to exercise mixed-skeleton traffic
	// against one daemon.
	Skeletons []string
	// Placement routes every job's execution: "" or "local" runs on the
	// daemon's workers, "cluster" on its registered graspworker nodes —
	// the knob for driving a whole cluster scenario.
	Placement string
	// Shares cycles fair-share weights across the run's jobs: job k is
	// created with share Shares[k%len] (empty: the server default). Use
	// e.g. {1, 3} to drive competing-priority traffic and watch the
	// allocator hold the worker split at the declared ratio.
	Shares []float64
	// Adapt sets each job's adaptation policy ("reactive" or "predictive";
	// empty: the server default).
	Adapt string
	// Profile shapes the arrival pattern of each job's task stream (see the
	// Profile* constants; empty: steady Batch-sized pushes back to back).
	// Task payloads are drawn from Seed in task-ID order regardless of the
	// profile's batching, so the same Seed replays the same byte stream
	// under every profile.
	Profile string
}

// pipelineStages is the stage count of a driven pipeline job; the middle
// stage carries a 2× cost factor so it is the bottleneck.
const pipelineStages = 3

// Arrival profiles for Driver.Profile.
const (
	// ProfileSteady pushes Batch-sized POSTs back to back — the default.
	ProfileSteady = ""
	// ProfileFlashCrowd trickles the first fifth of the stream in
	// Batch-sized POSTs paced PollEvery apart, then bursts the rest in
	// 4×Batch POSTs with no pauses: a calm service hit by a sudden crowd.
	ProfileFlashCrowd = "flash-crowd"
	// ProfileSustainedOverload pushes the whole stream in 2×Batch POSTs
	// paced PollEvery/4 apart — a steady arrival rate held above service
	// capacity for the whole run, the shape that should trip admission
	// control.
	ProfileSustainedOverload = "sustained-overload"
)

func (d Driver) withDefaults() Driver {
	if d.Client == nil {
		d.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if d.Jobs <= 0 {
		d.Jobs = 3
	}
	if d.TasksPerJob <= 0 {
		d.TasksPerJob = 200
	}
	if d.Batch <= 0 {
		d.Batch = 20
	}
	if d.SleepUS <= 0 {
		d.SleepUS = 500
	}
	if d.PollEvery <= 0 {
		d.PollEvery = 20 * time.Millisecond
	}
	if d.Timeout <= 0 {
		d.Timeout = 2 * time.Minute
	}
	if d.JobPrefix == "" {
		d.JobPrefix = "load"
	}
	if len(d.Skeletons) == 0 {
		d.Skeletons = []string{"farm"}
	}
	return d
}

// JobOutcome summarises one driven job.
type JobOutcome struct {
	Name           string
	Skeleton       string
	Submitted      int
	Completed      int
	Duplicates     int
	Breaches       int
	Recalibrations int
	MaxInFlight    int
	// Shed counts task batches the daemon rejected with 429; each was
	// retried after the advertised Retry-After until admitted, so shed
	// batches still end up in Submitted exactly once.
	Shed int
	// RetryAfter is the largest Retry-After the daemon advertised on a
	// shed response (zero when the job was never shed, or the header was
	// absent).
	RetryAfter time.Duration
}

// DriveSummary is the outcome of a whole load run.
type DriveSummary struct {
	Jobs      []JobOutcome
	Tasks     int
	Completed int
	// Shed totals the 429-rejected batches across all jobs.
	Shed    int
	Elapsed time.Duration
	Errors  []string
}

// OK reports whether every submitted task completed exactly once with no
// transport errors.
func (s DriveSummary) OK() bool {
	if len(s.Errors) > 0 || s.Completed != s.Tasks {
		return false
	}
	for _, j := range s.Jobs {
		if j.Duplicates > 0 || j.Completed != j.Submitted {
			return false
		}
	}
	return true
}

// Run executes the load scenario: create Jobs jobs, stream TasksPerJob
// tasks into each in Batch-sized POSTs, close the inputs, and poll results
// until every job drains (or Timeout passes).
func (d Driver) Run() DriveSummary {
	d = d.withDefaults()
	start := time.Now()
	deadline := start.Add(d.Timeout)

	var (
		mu      sync.Mutex
		summary DriveSummary
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		summary.Errors = append(summary.Errors, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	var wg sync.WaitGroup
	outcomes := make([]JobOutcome, d.Jobs)
	for k := 0; k < d.Jobs; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("%s-%d", d.JobPrefix, k)
			skeleton := d.Skeletons[k%len(d.Skeletons)]
			outcomes[k] = d.driveJob(name, skeleton, int64(k), deadline, fail)
		}()
	}
	wg.Wait()

	summary.Jobs = outcomes
	for _, o := range outcomes {
		summary.Tasks += o.Submitted
		summary.Completed += o.Completed
		summary.Shed += o.Shed
	}
	summary.Elapsed = time.Since(start)
	return summary
}

// driveJob runs one job end to end.
func (d Driver) driveJob(name, skeleton string, salt int64, deadline time.Time, fail func(string, ...any)) JobOutcome {
	out := JobOutcome{Name: name, Skeleton: skeleton}
	rng := rand.New(rand.NewSource(d.Seed ^ (salt + 1)))

	create := map[string]any{"name": name}
	if d.Window > 0 {
		create["window"] = d.Window
	}
	if d.Placement != "" {
		create["placement"] = d.Placement
	}
	if len(d.Shares) > 0 {
		if share := d.Shares[int(salt)%len(d.Shares)]; share > 0 {
			create["share"] = share
		}
	}
	if d.Adapt != "" {
		create["adapt"] = d.Adapt
	}
	switch skeleton {
	case "", "farm":
		// The daemon's default; omit the field to exercise that path too.
	case "pipeline":
		create["skeleton"] = "pipeline"
		stages := make([]map[string]any, pipelineStages)
		for i := range stages {
			factor := 1.0
			if i == pipelineStages/2 {
				factor = 2.0 // a structural bottleneck for the remapper
			}
			stages[i] = map[string]any{
				"name":        fmt.Sprintf("s%d", i),
				"cost_factor": factor,
			}
		}
		create["stages"] = stages
	case "dmap":
		create["skeleton"] = "dmap"
	default:
		create["skeleton"] = skeleton // let the daemon validate
	}
	if err := d.post("/api/v1/jobs", create, nil); err != nil {
		fail("create %s: %v", name, err)
		return out
	}

	type taskSpec struct {
		ID      int   `json:"id"`
		SleepUS int64 `json:"sleep_us"`
	}
	// Draw every task's payload up front, in ID order, so the byte stream
	// for a given Seed is identical no matter how the profile batches it.
	specs := make([]taskSpec, d.TasksPerJob)
	for i := range specs {
		jitter := 0.5 + rng.Float64()
		specs[i] = taskSpec{ID: i, SleepUS: int64(float64(d.SleepUS) * jitter)}
	}
	for _, step := range d.planPushes() {
		if step.pause > 0 {
			time.Sleep(step.pause)
		}
		batch := specs[step.from:step.to]
		if err := d.pushBatch(name, map[string]any{"tasks": batch}, deadline, &out); err != nil {
			fail("push %s: %v", name, err)
			return out
		}
		out.Submitted += len(batch)
	}
	if err := d.post("/api/v1/jobs/"+name+"/close", nil, nil); err != nil {
		fail("close %s: %v", name, err)
		return out
	}

	seen := make(map[int]bool, d.TasksPerJob)
	cursor := 0
	for {
		var poll struct {
			Results []struct {
				ID int `json:"id"`
			} `json:"results"`
			Next  int    `json:"next"`
			State string `json:"state"`
		}
		if err := d.get(fmt.Sprintf("/api/v1/jobs/%s/results?after=%d", name, cursor), &poll); err != nil {
			fail("poll %s: %v", name, err)
			return out
		}
		for _, r := range poll.Results {
			if seen[r.ID] {
				out.Duplicates++
				continue
			}
			seen[r.ID] = true
			out.Completed++
		}
		cursor = poll.Next
		if poll.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			fail("timeout %s: %d/%d completed", name, out.Completed, out.Submitted)
			return out
		}
	}

	var status struct {
		Breaches       int `json:"breaches"`
		Recalibrations int `json:"recalibrations"`
		MaxInFlight    int `json:"max_in_flight"`
	}
	if err := d.get("/api/v1/jobs/"+name, &status); err != nil {
		fail("status %s: %v", name, err)
		return out
	}
	out.Breaches = status.Breaches
	out.Recalibrations = status.Recalibrations
	out.MaxInFlight = status.MaxInFlight
	return out
}

// pushStep is one planned task POST: tasks [from, to), optionally preceded
// by a pacing pause.
type pushStep struct {
	from, to int
	pause    time.Duration
}

// planPushes slices the task stream into POSTs according to Profile. The
// plan is a pure function of the driver's configuration, so a run with the
// same Seed replays the same requests.
func (d Driver) planPushes() []pushStep {
	chunk := func(from, to, size int, pause time.Duration) []pushStep {
		var steps []pushStep
		for base := from; base < to; base += size {
			end := base + size
			if end > to {
				end = to
			}
			p := pause
			if base == from {
				p = 0
			}
			steps = append(steps, pushStep{from: base, to: end, pause: p})
		}
		return steps
	}
	switch d.Profile {
	case ProfileFlashCrowd:
		// Trickle the first fifth paced PollEvery apart, then burst the
		// rest in 4×Batch POSTs back to back.
		trickle := d.TasksPerJob / 5
		if trickle < d.Batch {
			trickle = min(d.Batch, d.TasksPerJob)
		}
		steps := chunk(0, trickle, d.Batch, d.PollEvery)
		return append(steps, chunk(trickle, d.TasksPerJob, 4*d.Batch, 0)...)
	case ProfileSustainedOverload:
		return chunk(0, d.TasksPerJob, 2*d.Batch, d.PollEvery/4)
	default:
		return chunk(0, d.TasksPerJob, d.Batch, 0)
	}
}

// pushBatch POSTs one task batch, retrying each time the daemon sheds it
// with 429 (after the advertised Retry-After) until the batch is admitted
// or the deadline passes.
func (d Driver) pushBatch(name string, body any, deadline time.Time, out *JobOutcome) error {
	for {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
		resp, err := d.Client.Post(d.BaseURL+"/api/v1/jobs/"+name+"/tasks", "application/json", &buf)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			return decodeReply(resp, nil)
		}
		retry := d.PollEvery
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			retry = time.Duration(secs) * time.Second
			if retry > out.RetryAfter {
				out.RetryAfter = retry
			}
		}
		resp.Body.Close()
		out.Shed++
		if time.Now().Add(retry).After(deadline) {
			return fmt.Errorf("shed %d times, Retry-After %v would pass the deadline", out.Shed, retry)
		}
		time.Sleep(retry)
	}
}

// post sends body as JSON and optionally decodes the reply.
func (d Driver) post(path string, body, out any) error {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
	}
	resp, err := d.Client.Post(d.BaseURL+path, "application/json", &buf)
	if err != nil {
		return err
	}
	return decodeReply(resp, out)
}

// get fetches path and decodes the reply.
func (d Driver) get(path string, out any) error {
	resp, err := d.Client.Get(d.BaseURL + path)
	if err != nil {
		return err
	}
	return decodeReply(resp, out)
}

// decodeReply checks the status and decodes JSON into out when non-nil.
func decodeReply(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, e.Error)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
