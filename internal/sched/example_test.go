package sched_test

import (
	"fmt"

	"grasp/internal/sched"
)

// ExampleGuided shows guided self-scheduling's shrinking chunks: early
// requests take big blocks, the tail is balanced with small ones.
func ExampleGuided() {
	policy := sched.Guided{}
	remaining := 100
	for remaining > 0 {
		chunk := policy.Chunk(remaining, 4, 0.25)
		fmt.Print(chunk, " ")
		remaining -= chunk
	}
	fmt.Println()
	// Output:
	// 25 19 14 11 8 6 5 3 3 2 1 1 1 1
}

// ExampleWeightedBlocks partitions tasks proportionally to calibrated
// speeds for a static deal.
func ExampleWeightedBlocks() {
	p := sched.WeightedBlocks(10, []float64{3, 1})
	fmt.Println(p)
	// Output:
	// [[0 1 2 3 4 5 6 7] [8 9]]
}
