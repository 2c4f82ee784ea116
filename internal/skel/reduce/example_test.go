package reduce_test

import (
	"fmt"

	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/skel/reduce"
)

// ExampleRun sums per-worker partials with a binary-tree plan on the local
// (goroutine) runtime.
func ExampleRun() {
	l := rt.NewLocal()
	pf := platform.NewLocalPlatform(l, 4)

	values := map[int]any{0: 10, 1: 20, 2: 30, 3: 40}
	plan := reduce.NewPlan(reduce.Tree, []int{0, 1, 2, 3}, nil)

	var rep reduce.Report
	l.Go("main", func(c rt.Ctx) {
		rep = reduce.Run(pf, c, values, reduce.Op{
			Fn: func(acc, v any) any { return acc.(int) + v.(int) },
		}, plan, nil)
	})
	if err := l.Run(); err != nil {
		panic(err)
	}

	fmt.Printf("sum=%v steps=%d rounds=%d root=%d\n", rep.Value, rep.Steps, rep.Rounds, rep.Root)
	// Output:
	// sum=100 steps=3 rounds=2 root=0
}

// ExampleNewPlan shows how a calibrated ranking skews the combine tree:
// the fittest worker (lowest score) becomes the root.
func ExampleNewPlan() {
	scores := map[int]float64{0: 0.9, 1: 0.2, 2: 0.5, 3: 0.7}
	plan := reduce.NewPlan(reduce.CalibratedTree, []int{0, 1, 2, 3}, scores)
	fmt.Printf("root=%d rounds=%d\n", plan.Root, len(plan.Rounds))
	// Output:
	// root=1 rounds=2
}
