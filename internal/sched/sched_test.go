package sched

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFixedChunk(t *testing.T) {
	p := FixedChunk{K: 5}
	if got := p.Chunk(100, 4, 0.25); got != 5 {
		t.Errorf("Chunk = %d", got)
	}
	if got := p.Chunk(3, 4, 0.25); got != 3 {
		t.Errorf("Chunk near end = %d", got)
	}
	if got := p.Chunk(0, 4, 0.25); got != 0 {
		t.Errorf("Chunk empty = %d", got)
	}
	if got := (FixedChunk{K: 0}).Chunk(10, 4, 0.25); got != 1 {
		t.Errorf("zero K should clamp to 1, got %d", got)
	}
}

func TestGuidedShrinks(t *testing.T) {
	p := Guided{}
	remaining := 1000
	var prev int
	first := true
	for remaining > 0 {
		c := p.Chunk(remaining, 8, 0.125)
		if c < 1 {
			t.Fatalf("chunk %d with %d remaining", c, remaining)
		}
		if !first && c > prev {
			t.Fatalf("guided chunk grew: %d after %d", c, prev)
		}
		prev, first = c, false
		remaining -= c
	}
	// First chunk should be remaining/P = 125.
	if got := (Guided{}).Chunk(1000, 8, 0); got != 125 {
		t.Errorf("first guided chunk = %d, want 125", got)
	}
}

func TestGuidedFactor(t *testing.T) {
	if got := (Guided{F: 2}).Chunk(1000, 8, 0); got != 63 {
		t.Errorf("guided F=2 chunk = %d, want 63", got)
	}
	if got := (Guided{F: -1}).Chunk(100, 4, 0); got != 25 {
		t.Errorf("bad F should default to 1: %d", got)
	}
}

func TestWeightedChunkProportional(t *testing.T) {
	p := Weighted{F: 2}
	fast := p.Chunk(100, 4, 0.5)
	slow := p.Chunk(100, 4, 0.1)
	if fast <= slow {
		t.Errorf("fast worker chunk %d should exceed slow %d", fast, slow)
	}
	if fast != 25 {
		t.Errorf("fast chunk = %d, want 25", fast)
	}
	// Zero weight falls back to uniform share.
	uniform := p.Chunk(100, 4, 0)
	if uniform != 13 {
		t.Errorf("uniform fallback = %d, want 13", uniform)
	}
}

func TestSingle(t *testing.T) {
	if got := (Single{}).Chunk(50, 4, 0.3); got != 1 {
		t.Errorf("Single chunk = %d", got)
	}
	if got := (Single{}).Chunk(0, 4, 0.3); got != 0 {
		t.Errorf("Single empty = %d", got)
	}
}

func TestFactoringRounds(t *testing.T) {
	fa := NewFactoring()
	// 4 workers, 160 tasks: first round chunks of ceil(160/8)=20 each.
	rem := 160
	var chunks []int
	for i := 0; i < 4; i++ {
		c := fa.Chunk(rem, 4, 0)
		chunks = append(chunks, c)
		rem -= c
	}
	for _, c := range chunks {
		if c != 20 {
			t.Fatalf("round 1 chunks = %v, want all 20", chunks)
		}
	}
	// Second round: remaining 80 → chunk 10.
	if c := fa.Chunk(rem, 4, 0); c != 10 {
		t.Errorf("round 2 chunk = %d, want 10", c)
	}
}

func TestChunkPoliciesDrainExactly(t *testing.T) {
	// Every policy must hand out exactly n tasks in total, never 0 while
	// work remains, never more than remaining.
	mk := []func() ChunkPolicy{
		func() ChunkPolicy { return FixedChunk{K: 7} },
		func() ChunkPolicy { return Guided{} },
		func() ChunkPolicy { return Guided{F: 2} },
		func() ChunkPolicy { return Weighted{F: 2} },
		func() ChunkPolicy { return Single{} },
		func() ChunkPolicy { return NewFactoring() },
	}
	rng := rand.New(rand.NewSource(5))
	for _, factory := range mk {
		for trial := 0; trial < 20; trial++ {
			p := factory()
			n := 1 + rng.Intn(500)
			workers := 1 + rng.Intn(16)
			remaining := n
			var dispatched int
			for remaining > 0 {
				weight := rng.Float64()
				c := p.Chunk(remaining, workers, weight)
				if c < 1 || c > remaining {
					t.Fatalf("%s: chunk %d with remaining %d", p, c, remaining)
				}
				remaining -= c
				dispatched += c
			}
			if dispatched != n {
				t.Fatalf("%s: dispatched %d of %d", p, dispatched, n)
			}
			if p.Chunk(0, workers, 0.5) != 0 {
				t.Fatalf("%s: nonzero chunk on empty queue", p)
			}
		}
	}
}

func TestRoundRobin(t *testing.T) {
	p := RoundRobin(7, 3)
	if fmt.Sprint(p) != "[[0 3 6] [1 4] [2 5]]" {
		t.Errorf("RoundRobin = %v", p)
	}
}

func TestBlocks(t *testing.T) {
	p := Blocks(7, 3)
	if fmt.Sprint(p) != "[[0 1 2] [3 4] [5 6]]" {
		t.Errorf("Blocks = %v", p)
	}
}

func TestBlocksFewerTasksThanWorkers(t *testing.T) {
	p := Blocks(2, 5)
	if fmt.Sprint(p) != "[[0] [1] [] [] []]" {
		t.Errorf("Blocks = %v", p)
	}
}

func TestWeightedBlocks(t *testing.T) {
	p := WeightedBlocks(100, []float64{3, 1})
	if len(p[0]) != 75 || len(p[1]) != 25 {
		t.Errorf("sizes = %d %d, want 75 25", len(p[0]), len(p[1]))
	}
	// Contiguity.
	if p[0][0] != 0 || p[0][74] != 74 || p[1][0] != 75 {
		t.Error("blocks not contiguous")
	}
}

func TestWeightedBlocksDegenerate(t *testing.T) {
	p := WeightedBlocks(10, []float64{0, 0})
	if fmt.Sprint(p) != "[[0 1 2 3 4] [5 6 7 8 9]]" {
		t.Errorf("all-zero weights = %v", p)
	}
	if p := WeightedBlocks(5, nil); fmt.Sprint(p) != "[[0 1 2 3 4]]" {
		t.Errorf("nil weights should still assign all tasks: %v", p)
	}
	// Negative weights treated as zero.
	p = WeightedBlocks(10, []float64{-1, 1})
	if len(p[1]) != 10 {
		t.Errorf("negative weight worker should get nothing: %v", p)
	}
}

func TestPropPartitionsCoverExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300)
		workers := 1 + rng.Intn(12)
		weights := make([]float64, workers)
		for i := range weights {
			weights[i] = rng.Float64()
		}
		for _, p := range []Partition{
			RoundRobin(n, workers), Blocks(n, workers), WeightedBlocks(n, weights),
		} {
			seen := make(map[int]bool)
			for _, tasks := range p {
				for _, idx := range tasks {
					if idx < 0 || idx >= n || seen[idx] {
						return false
					}
					seen[idx] = true
				}
			}
			if len(seen) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, p := range []ChunkPolicy{
		FixedChunk{K: 3}, Guided{}, Weighted{}, Single{}, NewFactoring(),
	} {
		if p.String() == "" {
			t.Errorf("empty String for %T", p)
		}
	}
}
