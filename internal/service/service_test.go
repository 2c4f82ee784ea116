package service

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"grasp/internal/trace"
)

// burst builds n task specs with IDs base..base+n-1 sleeping sleepUS each.
func burst(base, n int, sleepUS int64) []TaskSpec {
	specs := make([]TaskSpec, n)
	for i := range specs {
		specs[i] = TaskSpec{ID: base + i, Cost: 1, SleepUS: sleepUS}
	}
	return specs
}

// waitDone fails the test if the job does not finish within the deadline.
func waitDone(t *testing.T, j *Job, d time.Duration) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(d):
		t.Fatalf("job %s did not finish within %v (status %+v)", j.Name(), d, j.Status())
	}
}

func TestServiceThreeConcurrentStreamingJobs(t *testing.T) {
	// The acceptance scenario: ≥3 concurrent streaming jobs on one service,
	// backpressure engaged (bounded in-flight window observed), and a
	// detector-triggered recalibration mid-stream — with no task lost or
	// duplicated anywhere.
	const (
		jobs   = 3
		perJob = 60
		window = 5
		fastUS = 100
		// Slow tasks must dwarf Z = factor × warm-up mean even when the
		// warm-up times are inflated by race-detector and scheduler
		// overhead, or the breach assertion flakes.
		slowUS  = 30000
		batches = 6
	)
	s := New(Config{Workers: 4, DefaultWindow: window, WarmupTasks: 4, ThresholdFactor: 3})

	var wg sync.WaitGroup
	handles := make([]*Job, jobs)
	for k := 0; k < jobs; k++ {
		j, err := s.Submit(fmt.Sprintf("job-%d", k), JobSpec{})
		if err != nil {
			t.Fatal(err)
		}
		handles[k] = j
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := k * 1000
			per := perJob / batches
			for b := 0; b < batches; b++ {
				sleep := int64(fastUS)
				if b >= batches/2 {
					// The stream slows down sharply mid-flight: the warmed-up
					// detector must breach and recalibrate without draining.
					sleep = slowUS
				}
				if _, err := j.Push(burst(base+b*per, per, sleep)); err != nil {
					t.Errorf("job %d push: %v", k, err)
					return
				}
			}
			if err := j.CloseInput(); err != nil {
				t.Errorf("job %d close: %v", k, err)
			}
		}()
	}
	wg.Wait()
	for _, j := range handles {
		waitDone(t, j, 30*time.Second)
	}

	for k, j := range handles {
		st := j.Status()
		if st.State != JobDone {
			t.Errorf("job %d state = %s", k, st.State)
		}
		if st.Completed != perJob || st.Submitted != perJob {
			t.Errorf("job %d completed %d / submitted %d, want %d", k, st.Completed, st.Submitted, perJob)
		}
		if st.MaxInFlight > window {
			t.Errorf("job %d MaxInFlight = %d exceeds window %d: backpressure not engaged", k, st.MaxInFlight, window)
		}
		if st.MaxInFlight == 0 {
			t.Errorf("job %d never observed in-flight tasks", k)
		}
		if st.Breaches == 0 || st.Recalibrations == 0 {
			t.Errorf("job %d: breaches=%d recalibrations=%d, want both > 0 (mid-stream adaptation)", k, st.Breaches, st.Recalibrations)
		}
		// The trace tells the same story as the status: one threshold event
		// per breach, one breach-driven recalibration per counted one, and
		// the warm-up's live threshold install as a control-driven
		// (breach=false) recalibration.
		thresholds := len(j.Trace().Filter(trace.KindThreshold))
		var breachRecals, installs int
		for _, e := range j.Trace().Filter(trace.KindRecalibrate) {
			if strings.Contains(e.Msg, "breach=true") {
				breachRecals++
			} else {
				installs++
			}
		}
		if thresholds != st.Breaches || breachRecals != st.Recalibrations {
			t.Errorf("job %d: trace has %d threshold and %d breach=true recalibrate events, status %d breaches and %d recalibrations",
				k, thresholds, breachRecals, st.Breaches, st.Recalibrations)
		}
		if st.ZMicros <= 0 || installs == 0 {
			t.Errorf("job %d: Z = %dµs with %d breach=false recalibrations, want the warm-up threshold installed live", k, st.ZMicros, installs)
		}
		// Exactly-once per job, and strictly this job's ID range: isolation.
		results, _ := j.Results(0)
		seen := make(map[int]bool, perJob)
		for _, r := range results {
			if r.ID < k*1000 || r.ID >= k*1000+perJob {
				t.Errorf("job %d received foreign task %d", k, r.ID)
			}
			if seen[r.ID] {
				t.Errorf("job %d task %d duplicated", k, r.ID)
			}
			seen[r.ID] = true
		}
		if len(seen) != perJob {
			t.Errorf("job %d lost tasks: %d distinct of %d", k, len(seen), perJob)
		}
	}

	snap := s.Metrics().Snapshot()
	if snap["service_jobs_total"] != jobs {
		t.Errorf("jobs_total = %d", snap["service_jobs_total"])
	}
	if snap["service_tasks_completed_total"] != jobs*perJob {
		t.Errorf("tasks_completed_total = %d, want %d", snap["service_tasks_completed_total"], jobs*perJob)
	}
	if snap["service_calibrations_total"] != 1 {
		t.Errorf("calibrations_total = %d, want 1 (probe once)", snap["service_calibrations_total"])
	}
	if snap["service_calibration_reuse_total"] != jobs-1 {
		t.Errorf("calibration_reuse_total = %d, want %d (later jobs reuse)", snap["service_calibration_reuse_total"], jobs-1)
	}
	if snap["service_jobs_active"] != 0 || snap["service_jobs_active_max"] != jobs {
		t.Errorf("jobs_active gauge = %d (max %d), want 0 (max %d)",
			snap["service_jobs_active"], snap["service_jobs_active_max"], jobs)
	}
	assertConserved(t, s)
}

func TestServicePushBlocksUnderBackpressure(t *testing.T) {
	// Window 2 and a one-slot hand-off: pushing 20 tasks of ~1ms each on 2
	// workers cannot return before all but 3 of them have been admitted, so
	// Push must take at least a few task durations.
	s := New(Config{Workers: 2, DefaultWindow: 2, WarmupTasks: 1000})
	j, err := s.Submit("bp", JobSpec{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := j.Push(burst(0, 20, 1000)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if err := j.CloseInput(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 10*time.Second)
	// 20 tasks × 1ms over 2 workers ≈ 10ms of work; with a window of 2 and
	// one staged task, Push can run ahead of completion by at most 3 tasks.
	if elapsed < 3*time.Millisecond {
		t.Errorf("Push returned in %v: backpressure did not reach the submitter", elapsed)
	}
	if st := j.Status(); st.MaxInFlight > 2 {
		t.Errorf("MaxInFlight = %d exceeds window 2", st.MaxInFlight)
	}
	// The wait is readable on the push side: one observation per Push.
	if n, sum := s.hPushWait.Count(), s.hPushWait.Sum(); n != 1 || sum < 0.003 {
		t.Errorf("service_push_wait_seconds: %d observations summing %.4fs, want 1 of at least 3ms", n, sum)
	}
}

// TestJobWindowIsTheOnlyBound is the skeletons' window-bound property one
// layer up: between Push and the workers nothing holds tasks but the
// engine's credit window and the one-slot hand-off in front of it. A
// closed-loop pusher of batch b saturating a window-w job never has more
// than w + b + 2 tasks uncompleted — w admitted, one staged in j.in, one
// between its credit release and onResult, and the batch whose push just
// committed. Any deeper buffer in front of the window would show up here
// as that many more (a window-deep one as 2w + b), hence w ≥ 8.
func TestJobWindowIsTheOnlyBound(t *testing.T) {
	const w, b, n = 8, 4, 160
	specs := map[string]JobSpec{
		"farm":     {Window: w},
		"pipeline": {Window: w, Skeleton: "pipeline", Stages: []StageSpec{{Name: "a"}, {Name: "b", CostFactor: 2}, {Name: "c"}}},
		"dmap":     {Window: w, Skeleton: "dmap"},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			s := New(Config{Workers: 2, WarmupTasks: 1000})
			j, err := s.Submit("bound", spec)
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				for base := 0; base < n; base += b {
					if _, err := j.Push(burst(base, b, 2000)); err != nil {
						t.Errorf("push at %d: %v", base, err)
						return
					}
				}
				if err := j.CloseInput(); err != nil {
					t.Errorf("close: %v", err)
				}
			}()
			peak := 0
			deadline := time.After(30 * time.Second)
			for !j.finished() {
				if in := j.Status().InFlight; in > peak {
					peak = in
				}
				select {
				case <-j.Done():
				case <-deadline:
					t.Fatalf("job did not finish (status %+v)", j.Status())
				case <-time.After(100 * time.Microsecond):
				}
			}
			if peak > w+b+2 {
				t.Errorf("peak InFlight = %d, want ≤ window + batch + 2 = %d: something besides the window is queueing tasks", peak, w+b+2)
			}
			if peak < w {
				t.Errorf("peak InFlight = %d never reached the window %d: the job was not saturated", peak, w)
			}
			if st := j.Status(); st.MaxInFlight != w {
				t.Errorf("MaxInFlight = %d, want the window %d", st.MaxInFlight, w)
			}
			results, _ := j.Results(0)
			assertExactlyOnceIDs(t, results, n)
			assertConserved(t, s)
		})
	}
}

func TestServiceDuplicateJobName(t *testing.T) {
	s := New(Config{Workers: 2})
	if _, err := s.Submit("same", JobSpec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("same", JobSpec{}); err == nil {
		t.Error("duplicate job name accepted")
	}
	if _, err := s.Submit("", JobSpec{}); err == nil {
		t.Error("empty job name accepted")
	}
}

// TestOpenHoldsDefaultsToTheSpecBounds: the daemon-wide defaults fill
// every spec that omits a field, so a default no spec could carry — an
// unknown policy, a window past the bound the HTTP API answers with a 400
// — fails Open instead of reaching every such job unchecked.
func TestOpenHoldsDefaultsToTheSpecBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string // "" = Open succeeds
	}{
		{"unknown adapt", Config{Workers: 2, DefaultAdapt: "predicitve"}, `unknown adapt policy "predicitve"`},
		{"oversized window", Config{Workers: 2, DefaultWindow: maxWindow + 1}, fmt.Sprintf("window must be in [0, %d], got %d", maxWindow, maxWindow+1)},
		{"window at the bound", Config{Workers: 2, DefaultWindow: maxWindow, DefaultAdapt: AdaptPredictive}, ""},
		{"oversized default share", Config{Workers: 2, DefaultShare: 1e308}, "share must be in (0, 1e+06], got 1e+308"},
		{"oversized threshold", Config{Workers: 2, ThresholdFactor: 1e300}, "threshold_factor must be in [0, 1000], got 1e+300"},
		{"share and threshold at their bounds", Config{Workers: 2, DefaultShare: maxShare, ThresholdFactor: maxThresholdFactor}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(tc.cfg)
			if err == nil {
				s.Close()
			}
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Open rejected valid defaults: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("Open accepted defaults no job spec may carry: %+v", tc.cfg)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("Open error %q does not name the bound %q", err, tc.want)
			}
		})
	}
}

// TestShareIsBounded: the allocator splits slots by share over the sum of
// the shares, and two shares of 1e308 sum to +Inf — that split left six
// of eight slots owned by no job. A share past maxShare is refused, and
// two jobs at the bound still split every slot between them.
func TestShareIsBounded(t *testing.T) {
	s := New(Config{Workers: 8})
	defer s.Close()
	huge := 1e308
	if _, err := s.Submit("huge", JobSpec{Share: &huge}); err == nil || !strings.Contains(err.Error(), "share must be in") {
		t.Fatalf("share %g: err = %v, want the share bound", huge, err)
	}
	top := float64(maxShare)
	var jobs []*Job
	for _, name := range []string{"a", "b"} {
		j, err := s.Submit(name, JobSpec{Share: &top})
		if err != nil {
			t.Fatal(err)
		}
		defer j.CloseInput()
		jobs = append(jobs, j)
	}
	if owned := jobs[0].Status().Workers + jobs[1].Status().Workers; owned != 8 {
		t.Fatalf("two jobs at share %g own %d of 8 slots, want all 8", top, owned)
	}
}

// TestThresholdNeverFallsAsTheFactorRises: Z = factor × warm-up mean, and a
// factor so large that the product overflowed installed Z = 1 µs — the
// most sensitive detector, not the least. A factor past maxThresholdFactor
// is refused, and over the accepted range a larger factor installs a
// larger Z.
func TestThresholdNeverFallsAsTheFactorRises(t *testing.T) {
	s := New(Config{Workers: 2, WarmupTasks: 8})
	defer s.Close()
	if _, err := s.Submit("huge", JobSpec{ThresholdFactor: 1e300}); err == nil || !strings.Contains(err.Error(), "threshold_factor must be in") {
		t.Fatalf("threshold_factor 1e300: err = %v, want the factor bound", err)
	}
	var last int64
	for _, factor := range []float64{4, maxThresholdFactor} {
		j, err := s.Submit(fmt.Sprintf("z%g", factor), JobSpec{ThresholdFactor: factor})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Push(burst(0, 8, 200)); err != nil {
			t.Fatal(err)
		}
		j.CloseInput()
		waitDone(t, j, 10*time.Second)
		z := j.Status().ZMicros
		if z <= last {
			t.Errorf("factor %g installed z_micros %d, not above the smaller factor's %d", factor, z, last)
		}
		last = z
	}
}

func TestServicePushAfterCloseFails(t *testing.T) {
	s := New(Config{Workers: 2})
	j, err := s.Submit("closed", JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.CloseInput(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Push(burst(0, 1, 0)); err == nil {
		t.Error("push after close accepted")
	}
	if err := j.CloseInput(); err == nil {
		t.Error("double close accepted")
	}
	waitDone(t, j, 5*time.Second)
}

func TestServiceResultsCursor(t *testing.T) {
	s := New(Config{Workers: 2})
	j, err := s.Submit("cursor", JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Push(burst(0, 15, 0)); err != nil {
		t.Fatal(err)
	}
	if err := j.CloseInput(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 5*time.Second)
	first, next := j.Results(0)
	if len(first) != 15 || next != 15 {
		t.Fatalf("Results(0) = %d items, next %d", len(first), next)
	}
	rest, next2 := j.Results(next)
	if len(rest) != 0 || next2 != 15 {
		t.Errorf("Results(%d) = %d items, next %d", next, len(rest), next2)
	}
	tail, _ := j.Results(10)
	if len(tail) != 5 {
		t.Errorf("Results(10) = %d items, want 5", len(tail))
	}
	over, nextOver := j.Results(99)
	if len(over) != 0 || nextOver != 15 {
		t.Errorf("Results(99) = %d items, next %d", len(over), nextOver)
	}
}

func TestServiceResultsRetentionBound(t *testing.T) {
	s := New(Config{Workers: 2})
	j, err := s.Submit("bounded", JobSpec{MaxResults: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	if _, err := j.Push(burst(0, n, 0)); err != nil {
		t.Fatal(err)
	}
	if err := j.CloseInput(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 10*time.Second)
	results, next := j.Results(0)
	if next != n {
		t.Errorf("cursor = %d, want %d (counts trimmed results)", next, n)
	}
	// The bound plus its quarter slack is the retention ceiling.
	if len(results) > 8+2 {
		t.Errorf("retained %d results, bound is 8 (+2 slack)", len(results))
	}
	if len(results) == 0 {
		t.Error("retention dropped everything")
	}
	// The retained tail is the most recent completions and stays pollable.
	if st := j.Status(); st.Completed != n {
		t.Errorf("completed = %d, want %d", st.Completed, n)
	}
	tail, next2 := j.Results(next - 2)
	if len(tail) != 2 || next2 != n {
		t.Errorf("Results(next-2) = %d items, next %d", len(tail), next2)
	}
	assertConserved(t, s)
}

func TestServiceMixedSkeletonJobs(t *testing.T) {
	// One service, three concurrent jobs with three different skeletons:
	// the skeleton-agnostic layer must stream every topology through the
	// same Push/Results surface, exactly once, off one shared calibration.
	const perJob = 30
	s := New(Config{Workers: 4, DefaultWindow: 6, WarmupTasks: 1000})
	specs := map[string]JobSpec{
		"farm": {},
		"pipe": {Skeleton: "pipeline", Stages: []StageSpec{{Name: "a"}, {Name: "b", CostFactor: 2}, {Name: "c"}}},
		"deal": {Skeleton: "dmap", WaveSize: 4},
	}
	handles := make(map[string]*Job, len(specs))
	base := 0
	for name, spec := range specs {
		j, err := s.Submit(name, spec)
		if err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		handles[name] = j
		go func(j *Job, base int) {
			if _, err := j.Push(burst(base, perJob, 200)); err != nil {
				t.Errorf("push %s: %v", j.Name(), err)
				return
			}
			if err := j.CloseInput(); err != nil {
				t.Errorf("close %s: %v", j.Name(), err)
			}
		}(j, base)
		base += 1000
	}
	for _, j := range handles {
		waitDone(t, j, 30*time.Second)
	}
	for name, j := range handles {
		st := j.Status()
		if st.Completed != perJob {
			t.Errorf("job %s completed %d, want %d", name, st.Completed, perJob)
		}
		wantSkel := specs[name].Skeleton
		if wantSkel == "" {
			wantSkel = "farm"
		}
		if st.Skeleton != wantSkel {
			t.Errorf("job %s skeleton = %q, want %q", name, st.Skeleton, wantSkel)
		}
		results, _ := j.Results(0)
		seen := make(map[int]bool, perJob)
		for _, r := range results {
			if seen[r.ID] {
				t.Errorf("job %s task %d duplicated", name, r.ID)
			}
			seen[r.ID] = true
		}
		if len(seen) != perJob {
			t.Errorf("job %s: %d distinct results, want %d", name, len(seen), perJob)
		}
	}
	snap := s.Metrics().Snapshot()
	for _, c := range []string{"service_jobs_farm_total", "service_jobs_pipeline_total", "service_jobs_dmap_total"} {
		if snap[c] != 1 {
			t.Errorf("%s = %d, want 1", c, snap[c])
		}
	}
	if snap["service_calibrations_total"] != 1 {
		t.Errorf("calibrations = %d: every skeleton must reuse the one ranking", snap["service_calibrations_total"])
	}
}
