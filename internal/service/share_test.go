package service_test

import (
	"testing"
	"time"

	"grasp/internal/service"
)

// share builds a JobSpec share pointer.
func share(v float64) *float64 { return &v }

// pushSleep pushes n sequential sleep tasks starting at base.
func pushSleep(t *testing.T, j *service.Job, base, n int, sleepUS int64) {
	t.Helper()
	specs := make([]service.TaskSpec, n)
	for i := range specs {
		specs[i] = service.TaskSpec{ID: base + i, Cost: 1, SleepUS: sleepUS}
	}
	if _, err := j.Push(specs); err != nil {
		t.Fatal(err)
	}
}

// waitDone blocks for the job to drain.
func waitDone(t *testing.T, j *service.Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s never drained", j.Name())
	}
}

// TestFairShareRebalancesLiveJobs drives the tentpole end to end on the
// local platform: a lone job owns every worker; a heavier competitor
// arriving mid-stream shrinks it to its fair share (tasks pushed after
// the rebalance run only on the shrunken membership); and the
// competitor's finish hands its workers back.
func TestFairShareRebalancesLiveJobs(t *testing.T) {
	const workers = 8
	s := service.OpenForTest(t, service.Config{Workers: workers})

	light, err := s.Submit("light", service.JobSpec{Share: share(1), WarmupTasks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st := light.Status(); st.Workers != workers {
		t.Fatalf("lone job holds %d workers, want all %d (work conservation)", st.Workers, workers)
	}
	pushSleep(t, light, 0, 20, 500)

	heavy, err := s.Submit("heavy", service.JobSpec{Share: share(3), WarmupTasks: 2})
	if err != nil {
		t.Fatal(err)
	}
	lightSt, heavySt := light.Status(), heavy.Status()
	if lightSt.Workers != 2 || heavySt.Workers != 6 {
		t.Fatalf("split = %d:%d, want 2:6 for shares 1:3", lightSt.Workers, heavySt.Workers)
	}
	if lightSt.Share != 1 || heavySt.Share != 3 {
		t.Fatalf("status shares = %g:%g, want 1:3", lightSt.Share, heavySt.Share)
	}
	lightSet := map[int]bool{}
	for _, w := range lightSt.AllocatedWorkers {
		lightSet[w] = true
	}

	// Tasks pushed after the rebalance dispatch only onto light's shrunken
	// membership: the removal delta was flushed synchronously at heavy's
	// submit, and the coordinator drains control before every dispatch.
	// Verify while heavy is still live — once it finishes, its workers
	// legitimately rejoin light.
	const postBase = 100
	pushSleep(t, light, postBase, 30, 500)
	pushSleep(t, heavy, 0, 40, 500)
	deadline := time.Now().Add(30 * time.Second)
	for light.Status().Completed < 50 {
		if time.Now().After(deadline) {
			t.Fatalf("light stalled at %d completions", light.Status().Completed)
		}
		time.Sleep(2 * time.Millisecond)
	}
	midResults, _ := light.Results(0)
	for _, r := range midResults {
		if r.ID >= postBase && !lightSet[r.Worker] {
			t.Errorf("post-rebalance task %d ran on worker %d, outside light's allocation %v",
				r.ID, r.Worker, lightSt.AllocatedWorkers)
		}
	}
	if err := heavy.CloseInput(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, heavy)

	// Heavy's finish returns its six workers to the lone survivor.
	if st := light.Status(); st.Workers != workers {
		t.Fatalf("light holds %d workers after heavy finished, want all %d back", st.Workers, workers)
	}
	pushSleep(t, light, 200, 10, 500)
	if err := light.CloseInput(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, light)

	results, _ := light.Results(0)
	seen := map[int]bool{}
	for _, r := range results {
		if seen[r.ID] {
			t.Fatalf("task %d duplicated", r.ID)
		}
		seen[r.ID] = true
	}
	if len(results) != 60 {
		t.Fatalf("light completed %d results, want 60", len(results))
	}
	hr, _ := heavy.Results(0)
	if len(hr) != 40 {
		t.Fatalf("heavy completed %d results, want 40", len(hr))
	}

	// The engine actually applied the membership churn: light shrank by 6
	// and grew by 6.
	rep := light.Report()
	if rep.WorkersRemoved < 6 || rep.WorkersAdded < 6 {
		t.Errorf("light's membership churn = +%d/-%d, want at least +6/-6",
			rep.WorkersAdded, rep.WorkersRemoved)
	}
}

// TestShareValidation checks the spec-level contract: explicit
// non-positive shares are rejected, omitted shares default to 1.
func TestShareValidation(t *testing.T) {
	s := service.OpenForTest(t, service.Config{Workers: 2})
	if _, err := s.Submit("bad", service.JobSpec{Share: share(0)}); err == nil {
		t.Error("share 0 accepted, want rejection")
	}
	if _, err := s.Submit("bad2", service.JobSpec{Share: share(-1)}); err == nil {
		t.Error("negative share accepted, want rejection")
	}
	j, err := s.Submit("defaulted", service.JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Status().Share; got != 1 {
		t.Errorf("defaulted share = %g, want 1", got)
	}
	j.CloseInput()
	waitDone(t, j)
}
