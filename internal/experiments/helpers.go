package experiments

import (
	"fmt"
	"time"

	"grasp/internal/calibrate"
	"grasp/internal/grid"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/sched"
	"grasp/internal/skel/farm"
	"grasp/internal/vsim"
)

// world bundles one freshly built simulation universe. Experiments build a
// new world per measured configuration so runs never share virtual time.
type world struct {
	env *vsim.Env
	sim *rt.Sim
	g   *grid.Grid
	pf  *platform.GridPlatform
}

// newWorld builds a grid platform over the given node specs.
func newWorld(cfg grid.Config, sensorNoise float64, seed int64) *world {
	env := vsim.New()
	sim := rt.NewSim(env)
	g, err := grid.New(env, cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: bad grid config: %v", err))
	}
	return &world{env: env, sim: sim, g: g, pf: platform.NewGridPlatform(sim, g, sensorNoise, seed)}
}

// run drives fn as the root process and returns the total virtual time.
func (w *world) run(fn func(c rt.Ctx)) time.Duration {
	w.sim.Go("root", fn)
	if err := w.sim.Run(); err != nil {
		panic(fmt.Sprintf("experiments: simulation error: %v", err))
	}
	return w.env.Now()
}

// fixedTasks builds n tasks of identical cost and payload.
func fixedTasks(n int, cost, inBytes, outBytes float64) []platform.Task {
	tasks := make([]platform.Task, n)
	for i := range tasks {
		tasks[i] = platform.Task{ID: i, Cost: cost, InBytes: inBytes, OutBytes: outBytes}
	}
	return tasks
}

// staticFarmBaseline is the non-adaptive comparator used across
// experiments: calibrate once (time-only), choose the K fittest, then farm
// the rest as a static equal partition over them, with no monitoring and no
// recalibration — the behaviour of a conventional skeletal farm.
// It returns the total virtual time from call to completion.
func staticFarmBaseline(pf platform.Platform, c rt.Ctx, tasks []platform.Task, k int) time.Duration {
	start := c.Now()
	if len(tasks) == 0 {
		return 0
	}
	chosen := allOf(pf)
	rest := tasks
	if len(tasks) >= pf.Size() {
		out, err := calibrate.Run(pf, c, calibrate.Options{
			Strategy: calibrate.TimeOnly,
			Probes:   tasks[:pf.Size()],
		})
		if err != nil {
			panic(err)
		}
		if k <= 0 {
			k = pf.Size()
		}
		chosen = out.Ranking.Select(k)
		rest = tasks[pf.Size():]
	}
	farm.RunStatic(pf, c, rest, sched.Blocks(len(rest), len(chosen)), chosen, nil)
	return c.Now() - start
}

// allOf lists every worker index of a platform.
func allOf(pf platform.Platform) []int {
	ws := make([]int, pf.Size())
	for i := range ws {
		ws[i] = i
	}
	return ws
}

// secs renders a duration as fractional seconds for tables.
func secs(d time.Duration) string { return fmt.Sprintf("%.2fs", d.Seconds()) }

// tailThroughput computes the exit rate (items/second) over the last
// fraction frac of exits. It returns 0 for degenerate inputs.
func tailThroughput(exitTimes []time.Duration, frac float64) float64 {
	n := len(exitTimes)
	if n < 2 || frac <= 0 || frac > 1 {
		return 0
	}
	from := n - int(float64(n)*frac)
	if from >= n-1 {
		from = n - 2
	}
	span := exitTimes[n-1] - exitTimes[from]
	if span <= 0 {
		return 0
	}
	return float64(n-1-from) / span.Seconds()
}
