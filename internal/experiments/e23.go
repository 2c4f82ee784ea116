package experiments

import (
	"grasp/internal/grid"
	"grasp/internal/report"
	"grasp/internal/rt"
	"grasp/internal/service"
	"grasp/internal/skel/farm"
)

// E23Portability runs one logical workload — the same task set through the
// same farm skeleton — on all three execution substrates: the virtual-time
// grid simulator, the real streaming service, and a 2-node in-process
// cluster. This is the paper's portability claim as a single exhibit: the
// skeleton and the adaptive machinery do not change when the substrate
// does, only the placement.
//
// Expected shape: every placement delivers the complete task set
// exactly-once, and the delivered ID sets are identical across substrates.
func E23Portability(seed int64) Result {
	const (
		nTasks  = 48
		sleepUS = 500
	)

	table := report.NewTable("E23 — one farm workload, three substrates",
		"placement", "substrate", "workers", "tasks", "completed", "exactly-once")
	var checks []Check

	// 1. vsim: the simulated grid in virtual time.
	w := newWorld(grid.Config{Nodes: grid.HeterogeneousSpecs(seed, 4, 100, 0.3)}, 0, seed)
	var simRep farm.Report
	w.run(func(c rt.Ctx) {
		simRep = farm.Run(w.pf, c, fixedTasks(nTasks, 10, 0, 0), farm.Options{})
	})
	simIDs := make(map[int]bool, len(simRep.Results))
	for _, r := range simRep.Results {
		simIDs[r.Task.ID] = true
	}
	simOnce := len(simRep.Results) == nTasks && len(simIDs) == nTasks
	table.AddRow("vsim", "virtual-time grid simulator", 4, nTasks, len(simRep.Results), yesNo(simOnce))

	// 2. local: the streaming service on the goroutine runtime.
	s := service.New(service.Config{Workers: 4, WarmupTasks: 4})
	localJob, err := s.Submit("portable-local", service.JobSpec{})
	if err != nil {
		panic(err)
	}
	localJob.Push(sleepSpecs(0, nTasks, sleepUS))
	localJob.CloseInput()
	localDone := waitJob(localJob)
	localResults, _ := localJob.Results(0)
	localOnce := exactlyOnce(localResults, 0, nTasks)
	table.AddRow("local", "streaming service, goroutine runtime", 4,
		nTasks, localJob.Status().Completed, yesNo(localOnce))

	// 3. cluster: two in-process worker nodes behind the same service.
	cs, err := startClusterStack(2, 2, service.Config{Workers: 2, WarmupTasks: 4})
	if err != nil {
		panic(err)
	}
	defer cs.Close()
	clusterJob, err := cs.Svc.Submit("portable-cluster", service.JobSpec{Placement: service.PlacementCluster})
	if err != nil {
		panic(err)
	}
	clusterJob.Push(sleepSpecs(0, nTasks, sleepUS))
	clusterJob.CloseInput()
	clusterDone := waitJob(clusterJob)
	clusterResults, _ := clusterJob.Results(0)
	clusterOnce := exactlyOnce(clusterResults, 0, nTasks)
	table.AddRow("cluster", "2 worker nodes × capacity 2, HTTP protocol", "2×2",
		nTasks, clusterJob.Status().Completed, yesNo(clusterOnce))
	table.AddNote("same farm skeleton, same task IDs 0..%d, adaptive engine unchanged across substrates", nTasks-1)

	// The delivered sets must coincide: every substrate saw the same work.
	sameSets := simOnce && localOnce && clusterOnce
	for id := 0; id < nTasks && sameSets; id++ {
		sameSets = simIDs[id]
	}

	checks = append(checks,
		check("vsim-exactly-once", simOnce, "%d results, %d distinct", len(simRep.Results), len(simIDs)),
		check("local-exactly-once", localDone && localOnce, "done=%v, %d results", localDone, len(localResults)),
		check("cluster-exactly-once", clusterDone && clusterOnce, "done=%v, %d results", clusterDone, len(clusterResults)),
		check("cluster-spans-both-nodes", spansAllNodes(clusterJob.Status()),
			"per-node tallies %v", clusterJob.Status().Nodes),
		check("identical-delivery-across-substrates", sameSets,
			"IDs 0..%d delivered by every placement", nTasks-1),
	)
	return Result{ID: "E23", Title: "Placement portability across substrates", Table: table, Checks: checks}
}

// spansAllNodes reports whether every node in a cluster job's tally
// completed at least one task.
func spansAllNodes(st service.JobStatus) bool {
	if len(st.Nodes) == 0 {
		return false
	}
	for _, nc := range st.Nodes {
		if nc.Completed == 0 {
			return false
		}
	}
	return true
}

// runnerE23 registers E23 in the experiment index with its execution
// placement — the substrate seam every experiment declares.
var runnerE23 = Runner{ID: "E23", Title: "Placement portability: one workload, three substrates", Placement: PlaceCluster, Run: E23Portability}
