package dc

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"grasp/internal/grid"
	"grasp/internal/monitor"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/vsim"
)

func gridPF(t *testing.T, specs []grid.NodeSpec) (*platform.GridPlatform, *rt.Sim) {
	t.Helper()
	env := vsim.New()
	sim := rt.NewSim(env)
	g, err := grid.New(env, grid.Config{Nodes: specs})
	if err != nil {
		t.Fatal(err)
	}
	return platform.NewGridPlatform(sim, g, 0, 1), sim
}

func equalSpecs(n int, speed float64) []grid.NodeSpec {
	specs := make([]grid.NodeSpec, n)
	for i := range specs {
		specs[i] = grid.NodeSpec{BaseSpeed: speed}
	}
	return specs
}

// mergesortOp is the canonical D&C: split a slice in two, sort leaves
// directly, merge upward.
func mergesortOp(grain int) Op {
	return Op{
		Divide: func(p any) []any {
			s := p.([]int)
			mid := len(s) / 2
			return []any{s[:mid], s[mid:]}
		},
		Indivisible: SizeGrain(func(p any) int { return len(p.([]int)) }, grain),
		Base: func(p any) any {
			s := append([]int(nil), p.([]int)...)
			sort.Ints(s)
			return s
		},
		Combine: func(subs []any) any {
			a, b := subs[0].([]int), subs[1].([]int)
			out := make([]int, 0, len(a)+len(b))
			for len(a) > 0 && len(b) > 0 {
				if a[0] <= b[0] {
					out = append(out, a[0])
					a = a[1:]
				} else {
					out = append(out, b[0])
					b = b[1:]
				}
			}
			out = append(out, a...)
			return append(out, b...)
		},
	}
}

func TestDCMergesortLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	input := make([]int, 500)
	for i := range input {
		input[i] = rng.Intn(10000)
	}
	l := rt.NewLocal()
	pf := platform.NewLocalPlatform(l, 4)
	var rep Report
	l.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, input, mergesortOp(32), Options{})
	})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete {
		t.Fatal("run incomplete")
	}
	got := rep.Value.([]int)
	want := append([]int(nil), input...)
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("mismatch at %d: %d vs %d", i, got[i], want[i])
		}
	}
	if rep.Leaves < 2 || rep.Combines != rep.Leaves-1 {
		t.Errorf("leaves=%d combines=%d; want combines = leaves-1", rep.Leaves, rep.Combines)
	}
}

// TestDCMergesortProperty: arbitrary inputs and grains sort correctly.
func TestDCMergesortProperty(t *testing.T) {
	f := func(data []int16, grain uint8) bool {
		input := make([]int, len(data))
		for i, v := range data {
			input[i] = int(v)
		}
		g := int(grain)%50 + 1
		l := rt.NewLocal()
		pf := platform.NewLocalPlatform(l, 3)
		var rep Report
		l.Go("root", func(c rt.Ctx) {
			rep = Run(pf, c, input, mergesortOp(g), Options{})
		})
		if err := l.Run(); err != nil {
			return false
		}
		if rep.Incomplete {
			return false
		}
		got := rep.Value.([]int)
		want := append([]int(nil), input...)
		sort.Ints(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// simTreeOp models a binary D&C of total work `units` with per-level
// divide: a problem is its remaining size; leaves cost their size.
func simTreeOp(depth int, rootUnits float64) Op {
	return Op{
		Divide: func(p any) []any {
			u := p.(float64)
			return []any{u / 2, u / 2}
		},
		Indivisible: DepthGrain(depth),
		BaseCost:    func(p any) float64 { return p.(float64) },
		CombineCost: func(n int) float64 { return 1 },
		Bytes:       func(p any) float64 { return 100 },
	}
}

func TestDCTreeShapeOnSim(t *testing.T) {
	pf, sim := gridPF(t, equalSpecs(4, 10))
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, 64.0, simTreeOp(3, 64), Options{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Leaves != 8 {
		t.Errorf("leaves = %d, want 2^3", rep.Leaves)
	}
	if rep.Combines != 7 {
		t.Errorf("combines = %d, want 7", rep.Combines)
	}
	if rep.Depth != 3 {
		t.Errorf("depth = %d, want 3", rep.Depth)
	}
	if rep.Incomplete {
		t.Error("run incomplete")
	}
}

func TestDCParallelBeatsSingleWorkerOnSim(t *testing.T) {
	run := func(workers int) time.Duration {
		pf, sim := gridPF(t, equalSpecs(workers, 10))
		var rep Report
		sim.Go("root", func(c rt.Ctx) {
			rep = Run(pf, c, 320.0, simTreeOp(4, 320), Options{})
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if rep.Incomplete {
			t.Fatal("incomplete")
		}
		return rep.Makespan
	}
	one := run(1)
	eight := run(8)
	if eight >= one/3 {
		t.Errorf("8 workers %v should be well under a third of 1 worker %v", eight, one)
	}
}

func TestDCGrainTradeoffOnHeterogeneousSim(t *testing.T) {
	// Depth 1 (2 leaves over 4 unequal nodes) must lose to depth 5
	// (32 leaves): coarse grains cannot balance a heterogeneous grid.
	specs := []grid.NodeSpec{{BaseSpeed: 40}, {BaseSpeed: 10}, {BaseSpeed: 20}, {BaseSpeed: 5}}
	run := func(depth int) time.Duration {
		pf, sim := gridPF(t, specs)
		var rep Report
		sim.Go("root", func(c rt.Ctx) {
			rep = Run(pf, c, 640.0, simTreeOp(depth, 640), Options{})
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	coarse := run(1)
	fine := run(5)
	if fine >= coarse {
		t.Errorf("fine grain %v should beat coarse %v on a heterogeneous grid", fine, coarse)
	}
}

func TestDCRootIsLeaf(t *testing.T) {
	l := rt.NewLocal()
	pf := platform.NewLocalPlatform(l, 2)
	var rep Report
	l.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, []int{3, 1, 2}, mergesortOp(100), Options{})
	})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Leaves != 1 || rep.Combines != 0 || rep.Depth != 0 {
		t.Errorf("root-leaf run: %+v", rep)
	}
	got := rep.Value.([]int)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("value = %v", got)
	}
}

func TestDCMaxDepthBound(t *testing.T) {
	// A divide that never reaches the grain must be cut off at maxDepth.
	// Each division splits off one leaf (-1) and one deeper instance, so
	// the cut tree is a spine of maxDepth levels with maxDepth+1 leaves.
	op := Op{
		Divide:      func(p any) []any { return []any{-1, p.(int) + 1} },
		Indivisible: func(p any, _ int) bool { return p.(int) < 0 },
	}
	pf, sim := gridPF(t, equalSpecs(2, 10))
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, 0, op, Options{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Depth != maxDepth {
		t.Errorf("depth = %d, want %d", rep.Depth, maxDepth)
	}
	if rep.Leaves != maxDepth+1 {
		t.Errorf("leaves = %d, want %d", rep.Leaves, maxDepth+1)
	}
}

func TestDCDetectorBreachReportsIncomplete(t *testing.T) {
	// An absurdly tight threshold trips immediately; the run must abandon
	// and say so rather than fabricate a value.
	pf, sim := gridPF(t, equalSpecs(2, 10))
	det := monitor.NewDetector(time.Nanosecond)
	det.Window = 1
	det.MinSamples = 1
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, 64.0, simTreeOp(4, 64), Options{Detector: det})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !rep.Breached || !rep.Incomplete {
		t.Errorf("breached=%v incomplete=%v, want both", rep.Breached, rep.Incomplete)
	}
	if rep.Value != nil {
		t.Error("incomplete run must not report a value")
	}
}

func TestDCSurvivesWorkerCrash(t *testing.T) {
	// One of two workers dies mid-run; the farm re-queues and the result is
	// still produced.
	specs := equalSpecs(2, 10)
	specs[1].FailAt = 2 * time.Second
	pf, sim := gridPF(t, specs)
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, 640.0, simTreeOp(5, 640), Options{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Incomplete {
		t.Fatal("survivor should finish the job")
	}
	if rep.Failures == 0 {
		t.Error("the crash should surface as failures")
	}
	if rep.Leaves != 32 || rep.Combines != 31 {
		t.Errorf("leaves=%d combines=%d", rep.Leaves, rep.Combines)
	}
}

func TestDCDepthGrainHelper(t *testing.T) {
	g := DepthGrain(3)
	if g(nil, 2) || !g(nil, 3) || !g(nil, 4) {
		t.Error("DepthGrain(3) misbehaves")
	}
}

func TestDCSizeGrainHelper(t *testing.T) {
	g := SizeGrain(func(p any) int { return p.(int) }, 10)
	if g(11, 0) || !g(10, 0) || !g(1, 0) {
		t.Error("SizeGrain misbehaves")
	}
}
