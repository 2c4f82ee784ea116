package workload_test

import (
	"fmt"

	"grasp/internal/workload"
)

// ExampleSpec_Build draws a reproducible heavy-tailed cost population — the
// irregular workloads that stress granularity policies (E10, E16).
func ExampleSpec_Build() {
	spec := workload.Spec{N: 5, Cost: workload.Pareto{Xm: 1, Alpha: 2}, Seed: 7}
	items := spec.Build()
	for i, it := range items {
		if i > 0 {
			fmt.Print(" ")
		}
		fmt.Printf("%.2f", it.Cost)
	}
	fmt.Println()
	again := spec.Build()
	fmt.Println("deterministic:", items[0] == again[0])
	// Output:
	// 1.04 2.08 2.04 1.05 1.20
	// deterministic: true
}

// ExampleBimodal shows the mixed light/heavy distribution: mostly cheap
// tasks with occasional expensive stragglers.
func ExampleBimodal() {
	d := workload.Bimodal{Light: 1, Heavy: 20, PHeavy: 0.1}
	fmt.Printf("mean=%.1f %s\n", d.Mean(), d)
	// Output:
	// mean=2.9 bimodal(1,20,p=0.1)
}
