package dmap_test

import (
	"fmt"

	"grasp/internal/grid"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/skel/dmap"
	"grasp/internal/vsim"
)

// ExampleRun deals 90 unit tasks over two simulated nodes with calibrated
// 2:1 weights — one scatter per worker, the deal's whole dispatch traffic.
func ExampleRun() {
	env := vsim.New()
	sim := rt.NewSim(env)
	g, err := grid.New(env, grid.Config{Nodes: []grid.NodeSpec{
		{BaseSpeed: 20}, {BaseSpeed: 10},
	}})
	if err != nil {
		panic(err)
	}
	pf := platform.NewGridPlatform(sim, g, 0, 1)

	tasks := make([]platform.Task, 90)
	for i := range tasks {
		tasks[i] = platform.Task{ID: i, Cost: 1}
	}

	var rep dmap.Report
	sim.Go("main", func(c rt.Ctx) {
		rep = dmap.Run(pf, c, tasks, dmap.Options{
			Weights: map[int]float64{0: 2, 1: 1},
		})
	})
	if err := sim.Run(); err != nil {
		panic(err)
	}

	fmt.Printf("blocks: %d and %d tasks, %d scatters, makespan %v\n",
		rep.TasksByWorker[0], rep.TasksByWorker[1], rep.Requests, rep.Makespan)
	// Output:
	// blocks: 60 and 30 tasks, 2 scatters, makespan 3s
}
