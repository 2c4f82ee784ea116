package farm

import (
	"testing"
	"time"

	"grasp/internal/grid"
	"grasp/internal/monitor"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/sched"
	"grasp/internal/skel/engine"
)

func TestFarmSurvivesWorkerCrash(t *testing.T) {
	// Worker 0 dies at t=1.05s, mid-run; the farm must re-dispatch its lost
	// task and complete everything on worker 1.
	pf, sim := gridPF(t, []grid.NodeSpec{
		{BaseSpeed: 10, FailAt: 1050 * time.Millisecond},
		{BaseSpeed: 10},
	})
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedTasks(30, 1), Options{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 30 {
		t.Fatalf("results = %d, want 30 (crash must not lose tasks)", len(rep.Results))
	}
	if rep.Failures == 0 {
		t.Error("expected recorded failures")
	}
	if len(rep.DeadWorkers) != 1 || rep.DeadWorkers[0] != 0 {
		t.Errorf("DeadWorkers = %v", rep.DeadWorkers)
	}
	// No duplicates despite re-dispatch.
	seen := make(map[int]int)
	for _, r := range rep.Results {
		seen[r.Task.ID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("task %d completed %d times", id, n)
		}
	}
	// Dead worker receives nothing after death.
	if rep.TasksByWorker[0] > 25 {
		t.Errorf("dead worker kept receiving: %v", rep.TasksByWorker)
	}
}

func TestFarmAllWorkersDead(t *testing.T) {
	pf, sim := gridPF(t, []grid.NodeSpec{
		{BaseSpeed: 10, FailAt: time.Second},
		{BaseSpeed: 10, FailAt: time.Second},
	})
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedTasks(50, 1), Options{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results)+len(rep.Remaining) != 50 {
		t.Errorf("conservation violated: %d done + %d remaining",
			len(rep.Results), len(rep.Remaining))
	}
	if len(rep.Remaining) == 0 {
		t.Error("dead platform should leave remaining tasks")
	}
	if len(rep.DeadWorkers) != 2 {
		t.Errorf("DeadWorkers = %v", rep.DeadWorkers)
	}
}

func TestFarmCrashDuringDetectorRun(t *testing.T) {
	// A crash and a detector must coexist: failures must not feed the
	// detector (a lost task has no meaningful duration).
	pf, sim := gridPF(t, []grid.NodeSpec{
		{BaseSpeed: 10, FailAt: 2 * time.Second},
		{BaseSpeed: 10},
	})
	det := newTestDetector(10 * time.Second) // generous: should never breach
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedTasks(30, 1), Options{Detector: det})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Breached {
		t.Error("failures must not breach a generous detector")
	}
	if len(rep.Results) != 30 {
		t.Errorf("results = %d", len(rep.Results))
	}
}

func TestStaticFarmLosesTasksOnCrash(t *testing.T) {
	// The non-fault-tolerant baseline: a static partition simply loses the
	// dead worker's remaining tasks — the contrast the adaptive farm fixes.
	pf, sim := gridPF(t, []grid.NodeSpec{
		{BaseSpeed: 10, FailAt: time.Second},
		{BaseSpeed: 10},
	})
	tasks := fixedTasks(20, 1)
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = RunStatic(pf, c, tasks, sched.Blocks(20, 2), nil, nil)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Failures == 0 || len(rep.Remaining) == 0 {
		t.Errorf("static farm should lose tasks: failures=%d remaining=%d",
			rep.Failures, len(rep.Remaining))
	}
	if len(rep.Results)+len(rep.Remaining) != 20 {
		t.Error("conservation violated")
	}
	if len(rep.DeadWorkers) != 1 {
		t.Errorf("DeadWorkers = %v", rep.DeadWorkers)
	}
}

func TestFarmRetryServedBeforeFreshTasks(t *testing.T) {
	// After worker 0 dies holding task k, task k must be re-dispatched
	// promptly (before the remaining fresh tail finishes).
	pf, sim := gridPF(t, []grid.NodeSpec{
		{BaseSpeed: 1, FailAt: 500 * time.Millisecond}, // dies during task 0
		{BaseSpeed: 10},
	})
	var order []int
	sim.Go("root", func(c rt.Ctx) {
		Run(pf, c, fixedTasks(10, 1), Options{
			OnResult: func(r platform.Result) { order = append(order, r.Task.ID) },
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 10 {
		t.Fatalf("completed %d", len(order))
	}
	// Task 0 (the casualty) must not be the last completion.
	if order[len(order)-1] == 0 {
		t.Error("re-queued task served last; retry queue not prioritised")
	}
}

func TestFarmLostChunkRetriedInOrderBeforeFreshTasks(t *testing.T) {
	// Worker 0 dies during the first task of its 4-task chunk, so all of
	// tasks 0–3 fail. They must come back as one chunk, in their original
	// order, ahead of the fresh tail.
	pf, sim := gridPF(t, []grid.NodeSpec{
		{BaseSpeed: 1, FailAt: 500 * time.Millisecond},
		{BaseSpeed: 10},
	})
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedTasks(20, 1), Options{Chunk: sched.FixedChunk{K: 4}})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	assertExactlyOnce(t, rep.Results, 20)
	if rep.Failures != 4 {
		t.Fatalf("failures = %d, want the whole lost chunk (4)", rep.Failures)
	}
	at := -1
	for i, r := range rep.Results {
		if r.Task.ID == 0 {
			at = i
		}
	}
	if at < 0 || at+4 > len(rep.Results)-4 {
		t.Fatalf("task 0 completed at position %d of %d; want the retry ahead of the last fresh chunk", at, len(rep.Results))
	}
	for k := 0; k < 4; k++ {
		if id := rep.Results[at+k].Task.ID; id != k {
			t.Errorf("completion %d is task %d, want %d (lost chunk out of order)", at+k, id, k)
		}
	}
}

// newTestDetector builds a detector with a window suited to small farms.
func newTestDetector(z time.Duration) *monitor.Detector {
	d := monitor.NewDetector(z)
	d.Window = 4
	d.MinSamples = 2
	return d
}

func TestFarmCrashAfterQueueDrainedIsReExecuted(t *testing.T) {
	// Three tasks, a fast worker and a slow one. By t=0.2s the queue is
	// empty and the fast worker idle; the slow worker dies at t=0.5s holding
	// the last in-flight task. The idle worker is parked, not gone, so it
	// re-runs the lost task and nothing surfaces as Remaining.
	pf, sim := gridPF(t, []grid.NodeSpec{
		{BaseSpeed: 10},
		{BaseSpeed: 1, FailAt: 500 * time.Millisecond},
	})
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, fixedTasks(3, 1), Options{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Remaining) != 0 {
		t.Errorf("remaining = %v, want none: an idle worker must pick up the lost task", rep.Remaining)
	}
	assertExactlyOnce(t, rep.Results, 3)
	if rep.Failures != 1 || rep.TasksByWorker[0] != 3 {
		t.Errorf("failures = %d, tasks by worker = %v; want 1 failure and all 3 tasks on worker 0",
			rep.Failures, rep.TasksByWorker)
	}
}

func TestStreamOnFailureAdmitsAReplacement(t *testing.T) {
	// The stream's only worker dies mid-stream. Without the hook the farm
	// would end with the rest Remaining; with it the spare is admitted in
	// the dead worker's place and every task still completes exactly once.
	pf, sim := gridPF(t, []grid.NodeSpec{
		{BaseSpeed: 10, FailAt: 1050 * time.Millisecond},
		{BaseSpeed: 10}, // the spare
	})
	in := sim.NewChan("in", 2)
	sim.Go("producer", func(c rt.Ctx) {
		for _, task := range fixedTasks(30, 1) {
			in.Send(c, task)
		}
		in.Close(c)
	})
	var rep engine.StreamReport
	var asked []int
	sim.Go("root", func(c rt.Ctx) {
		rep = Stream(nil)(pf, c, in, engine.StreamOptions{
			Workers: []int{0},
			Window:  1,
			OnFailure: func(worker int) (engine.Update, bool) {
				asked = append(asked, worker)
				return engine.Update{Add: []engine.Member{{Worker: 1}}}, true
			},
		})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	assertExactlyOnce(t, rep.Results, 30)
	if len(rep.Remaining) != 0 || rep.Failures != 1 {
		t.Errorf("remaining = %d, failures = %d; want 0 and 1", len(rep.Remaining), rep.Failures)
	}
	if len(asked) != 1 || asked[0] != 0 || len(rep.DeadWorkers) != 1 || rep.DeadWorkers[0] != 0 {
		t.Errorf("hook asked about %v, DeadWorkers = %v; want [0] and [0]", asked, rep.DeadWorkers)
	}
	if rep.WorkersAdded != 1 || len(rep.FinalWorkers) != 1 || rep.FinalWorkers[0] != 1 {
		t.Errorf("added = %d, final workers = %v; want the spare alone", rep.WorkersAdded, rep.FinalWorkers)
	}
	if rep.TasksByWorker[0]+rep.TasksByWorker[1] != 30 || rep.TasksByWorker[1] == 0 {
		t.Errorf("tasks by worker = %v", rep.TasksByWorker)
	}
}
