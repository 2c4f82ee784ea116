package experiments

import (
	"grasp/internal/report"
	"grasp/internal/service"
)

// E22ClusterNodeLoss drives the distributed worker-node subsystem: a farm
// job placed on a 2-node in-process cluster (real coordinator HTTP
// protocol, real worker runtimes) loses one node mid-stream to an
// eviction.
//
// Expected shape: before the loss the job spans both nodes; the eviction
// fails the dead node's queued and in-flight dispatches over through the
// engine's fault path and the survivor absorbs the redelivered work; and
// because the evicted process is still healthy, it re-registers under a
// fresh generation and — elastic membership — rejoins the *running* job
// as new execution slots and executes tasks again. At-least-once
// redelivery plus registration generations still yield exactly-once
// results across the whole loss/rejoin cycle.
func E22ClusterNodeLoss(seed int64) Result {
	_ = seed // real-time placement: shapes must hold on any healthy machine
	const (
		phase1  = 40
		phase2  = 40
		total   = phase1 + phase2
		sleepUS = 5_000
	)
	cs, err := startClusterStack(2, 2, service.Config{Workers: 2, WarmupTasks: 4})
	if err != nil {
		panic(err)
	}
	defer cs.Close()

	j, err := cs.Svc.Submit("breaks-a-node", service.JobSpec{Placement: service.PlacementCluster})
	if err != nil {
		panic(err)
	}
	nodesAtSubmit := len(j.Status().Nodes)
	slotsAtSubmit := j.Status().Workers

	// Phase 1 from a background goroutine: the push blocks under the job's
	// admission window, keeping every execution slot on both nodes busy, so
	// the eviction below is guaranteed to catch node-b with work in flight.
	pushed := make(chan error, 1)
	go func() {
		_, err := j.Push(sleepSpecs(0, phase1, sleepUS))
		pushed <- err
	}()
	warmedUp := waitFor(func() bool { return j.Status().Completed >= phase1/4 })

	// Kill one of the two nodes out from under the stream. Its in-flight
	// work fails over immediately; the healthy process then re-registers
	// under a fresh generation and rejoins the running job's membership.
	evictErr := cs.Coord.Evict("node-b")
	pushErr := <-pushed
	// Rejoin shows up as fresh execution slots (worker indices past the
	// submission-time pool) entering the membership — the dead
	// generation's slots leave it at the same time, so the membership
	// *size* alone cannot distinguish a rejoin from nothing happening.
	rejoined := waitFor(func() bool {
		for _, w := range j.Status().AllocatedWorkers {
			if w >= slotsAtSubmit {
				return true
			}
		}
		return false
	})

	// Phase 2: traffic keeps arriving after the loss; the survivor and the
	// rejoined incarnation carry it together.
	_, push2Err := j.Push(sleepSpecs(phase1, phase2, sleepUS))
	j.CloseInput()
	drained := waitJob(j)

	st := j.Status()
	results, _ := j.Results(0)
	once := exactlyOnce(results, 0, total)
	rep := j.Report()

	var evicted, survivor struct {
		name                          string
		dispatched, completed, failed int64
	}
	for _, nc := range st.Nodes {
		if nc.Node == "node-b" {
			evicted.name, evicted.dispatched, evicted.completed, evicted.failed =
				nc.Node, nc.Dispatched, nc.Completed, nc.Failed
		} else {
			survivor.name, survivor.dispatched, survivor.completed, survivor.failed =
				nc.Node, nc.Dispatched, nc.Completed, nc.Failed
		}
	}
	// The rejoined incarnation's slots are the ones admitted after the
	// loss (fresh worker indices): executions there prove the running job
	// really used the re-registered node, not just its first life.
	rejoinExecutions := 0
	for w, n := range rep.TasksByWorker {
		if w >= slotsAtSubmit {
			rejoinExecutions += n
		}
	}

	table := report.NewTable("E22 — node loss mid-stream on a 2-node cluster",
		"measure", "value")
	table.AddRow("nodes at submission", nodesAtSubmit)
	table.AddRow("tasks submitted", st.Submitted)
	table.AddRow("tasks completed", st.Completed)
	table.AddRow("tasks lost", st.Lost)
	table.AddRow("duplicate results", len(results)-onceDistinct(results))
	table.AddRow("nodes evicted mid-stream", 1)
	table.AddRow("evicted node dispatched before loss", yesNo(evicted.dispatched > 0))
	table.AddRow("failed dispatches redelivered", yesNo(st.Failures >= 1 && st.Completed == total))
	table.AddRow("survivor kept executing", yesNo(survivor.completed > 0 && drained))
	table.AddRow("evicted process rejoined the running job", yesNo(rejoined))
	table.AddRow("executions on rejoined slots", yesNo(rejoinExecutions > 0))
	table.AddNote("capacity 2 per node; eviction lands while the admission window holds both nodes' slots busy; " +
		"the healthy evicted process re-registers under a fresh generation and rejoins mid-stream")

	checks := []Check{
		check("cluster-live-at-submit", nodesAtSubmit == 2, "%d nodes in the job's pool", nodesAtSubmit),
		check("spans-cluster-before-loss", warmedUp && evicted.dispatched > 0 && survivor.dispatched > 0,
			"dispatched: %s=%d %s=%d", evicted.name, evicted.dispatched, survivor.name, survivor.dispatched),
		check("eviction-accepted", evictErr == nil, "%v", evictErr),
		check("pushes-survive-the-loss", pushErr == nil && push2Err == nil,
			"phase1=%v phase2=%v", pushErr, push2Err),
		check("failover-observed", st.Failures >= 1,
			"%d failed executions redelivered (node-b failed=%d)", st.Failures, evicted.failed),
		check("survivor-kept-executing", survivor.completed > 0,
			"completed: %s=%d", survivor.name, survivor.completed),
		check("evicted-process-rejoins", rejoined && rep.WorkersAdded >= 2,
			"fresh slots joined the membership (engine admitted %d)", rep.WorkersAdded),
		check("rejoined-slots-execute", rejoinExecutions > 0,
			"%d executions on post-loss slots", rejoinExecutions),
		check("drains-after-node-loss", drained && st.Completed == total && st.Lost == 0,
			"done=%v completed=%d of %d lost=%d", drained, st.Completed, total, st.Lost),
		check("exactly-once-across-redelivery", once, "%d distinct of %d results", onceDistinct(results), len(results)),
	}
	return Result{ID: "E22", Title: "Node-loss recovery on a 2-node cluster", Table: table, Checks: checks}
}

// onceDistinct counts distinct result IDs.
func onceDistinct(results []service.TaskResult) int {
	seen := make(map[int]bool, len(results))
	for _, r := range results {
		seen[r.ID] = true
	}
	return len(seen)
}

// runnerE22 registers E22 in the experiment index with its execution
// placement — the substrate seam every experiment declares.
var runnerE22 = Runner{ID: "E22", Title: "Node-loss recovery and elastic rejoin on a 2-node in-process cluster", Placement: PlaceCluster, Run: E22ClusterNodeLoss}
