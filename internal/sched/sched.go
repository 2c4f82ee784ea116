// Package sched provides task-dispatch policies for the skeleton layer:
// chunk-size policies for demand-driven farms (how many tasks a worker
// receives per request) and static partitioners for the non-adaptive
// baselines the experiments compare against.
//
// The paper names "the correct adjustment of algorithmic parameters (for
// example, blocking of communications, granularity)" as a key challenge;
// chunk policies are the granularity lever, and E10 ablates them.
package sched

import (
	"fmt"
	"math"
)

// ChunkPolicy decides how many tasks to hand a requesting worker, given how
// many tasks remain unassigned and the requesting worker's dispatch weight
// (a share in (0,1]; uniform weights are 1/P).
type ChunkPolicy interface {
	// Chunk returns the number of tasks to dispatch, at least 1 when
	// remaining > 0 and 0 when remaining == 0.
	Chunk(remaining, workers int, weight float64) int
	// String names the policy for reports.
	String() string
}

// clampChunk bounds a computed chunk into [1, remaining] (or 0 when empty).
func clampChunk(chunk, remaining int) int {
	if remaining <= 0 {
		return 0
	}
	if chunk < 1 {
		return 1
	}
	if chunk > remaining {
		return remaining
	}
	return chunk
}

// FixedChunk always hands out K tasks (the classic blocking factor).
type FixedChunk struct{ K int }

// Chunk implements ChunkPolicy.
func (f FixedChunk) Chunk(remaining, _ int, _ float64) int {
	return clampChunk(f.K, remaining)
}

// String implements ChunkPolicy.
func (f FixedChunk) String() string { return fmt.Sprintf("fixed(%d)", f.K) }

// Guided implements guided self-scheduling: chunk = ceil(remaining/(F·P)).
// Early requests get big chunks (low dispatch overhead), late requests get
// small ones (balance the tail). F defaults to 1.
type Guided struct{ F float64 }

// Chunk implements ChunkPolicy.
func (g Guided) Chunk(remaining, workers int, _ float64) int {
	f := g.F
	if f <= 0 {
		f = 1
	}
	if workers < 1 {
		workers = 1
	}
	chunk := int(math.Ceil(float64(remaining) / (f * float64(workers))))
	return clampChunk(chunk, remaining)
}

// String implements ChunkPolicy.
func (g Guided) String() string { return fmt.Sprintf("guided(%.3g)", g.F) }

// Weighted scales a guided chunk by the worker's calibrated dispatch
// weight, so fit nodes receive proportionally more work per request:
// chunk = ceil(remaining · weight / F).
type Weighted struct{ F float64 }

// Chunk implements ChunkPolicy.
func (w Weighted) Chunk(remaining, workers int, weight float64) int {
	f := w.F
	if f <= 0 {
		f = 2
	}
	if weight <= 0 {
		if workers < 1 {
			workers = 1
		}
		weight = 1 / float64(workers)
	}
	chunk := int(math.Ceil(float64(remaining) * weight / f))
	return clampChunk(chunk, remaining)
}

// String implements ChunkPolicy.
func (w Weighted) String() string { return fmt.Sprintf("weighted(%.3g)", w.F) }

// Single hands out one task per request: maximal balance, maximal dispatch
// traffic. It is the paper's task farm in its purest demand-driven form.
type Single struct{}

// Chunk implements ChunkPolicy.
func (Single) Chunk(remaining, _ int, _ float64) int { return clampChunk(1, remaining) }

// String implements ChunkPolicy.
func (Single) String() string { return "single" }

// Factoring implements factoring self-scheduling: work is handed out in
// rounds; in each round every worker gets an equal chunk of half the
// remaining work (chunk = ceil(remaining / (2P)) held for P requests).
type Factoring struct {
	roundChunk int
	served     int
}

// NewFactoring returns a fresh factoring policy (it is stateful; use one
// per farm run).
func NewFactoring() *Factoring { return &Factoring{} }

// Chunk implements ChunkPolicy.
func (fa *Factoring) Chunk(remaining, workers int, _ float64) int {
	if workers < 1 {
		workers = 1
	}
	if fa.served%workers == 0 {
		fa.roundChunk = int(math.Ceil(float64(remaining) / float64(2*workers)))
	}
	fa.served++
	return clampChunk(fa.roundChunk, remaining)
}

// String implements ChunkPolicy.
func (fa *Factoring) String() string { return "factoring" }

// Partition assigns task indices 0..n-1 to workers statically (the
// non-adaptive baseline). Each inner slice holds the task indices of one
// worker.
type Partition [][]int

// RoundRobin deals tasks to workers cyclically.
func RoundRobin(n, workers int) Partition {
	if workers < 1 {
		workers = 1
	}
	p := make(Partition, workers)
	for i := 0; i < n; i++ {
		w := i % workers
		p[w] = append(p[w], i)
	}
	return p
}

// Blocks splits tasks into contiguous near-equal blocks.
func Blocks(n, workers int) Partition {
	if workers < 1 {
		workers = 1
	}
	p := make(Partition, workers)
	base := n / workers
	extra := n % workers
	idx := 0
	for w := 0; w < workers; w++ {
		size := base
		if w < extra {
			size++
		}
		for k := 0; k < size; k++ {
			p[w] = append(p[w], idx)
			idx++
		}
	}
	return p
}

// WeightedBlocks splits tasks into contiguous blocks proportional to the
// workers' weights (e.g. calibrated speeds). Weights must be non-negative;
// all-zero weights degrade to equal blocks. Every task is assigned.
func WeightedBlocks(n int, weights []float64) Partition {
	workers := len(weights)
	if workers == 0 {
		return RoundRobin(n, 1)
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return Blocks(n, workers)
	}
	p := make(Partition, workers)
	idx := 0
	var acc float64
	for w := 0; w < workers; w++ {
		share := 0.0
		if weights[w] > 0 {
			share = weights[w] / total
		}
		acc += share * float64(n)
		end := int(math.Round(acc))
		if w == workers-1 {
			end = n
		}
		for idx < end && idx < n {
			p[w] = append(p[w], idx)
			idx++
		}
	}
	return p
}
