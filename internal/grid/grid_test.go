package grid

import (
	"fmt"
	"math"
	"testing"
	"time"

	"grasp/internal/loadgen"
	"grasp/internal/stats"
	"grasp/internal/vsim"
)

func mkGrid(t *testing.T, env *vsim.Env, cfg Config) *Grid {
	t.Helper()
	g, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestComputeIdleNode(t *testing.T) {
	env := vsim.New()
	g := mkGrid(t, env, Config{Nodes: []NodeSpec{{BaseSpeed: 100}}}) // 100 ops/s
	var dur time.Duration
	env.Go("m", func(p *vsim.Proc) {
		dur, _ = g.Node(0).Compute(p, 50) // 50 ops at 100 ops/s = 0.5s
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dur != 500*time.Millisecond {
		t.Errorf("duration = %v, want 500ms", dur)
	}
}

func TestComputeUnderConstantLoad(t *testing.T) {
	env := vsim.New()
	g := mkGrid(t, env, Config{Nodes: []NodeSpec{
		{BaseSpeed: 100, Load: loadgen.NewConstant(0.5)},
	}})
	var dur time.Duration
	env.Go("m", func(p *vsim.Proc) {
		dur, _ = g.Node(0).Compute(p, 50) // effective 50 ops/s → 1s
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dur != time.Second {
		t.Errorf("duration = %v, want 1s", dur)
	}
}

func TestComputeAcrossLoadStep(t *testing.T) {
	// 100 ops/s node; load steps 0 → 0.5 at t=1s. Task of 150 ops started at
	// t=0 does 100 ops in the first second, then 50 ops at 50 ops/s → 1s more.
	env := vsim.New()
	g := mkGrid(t, env, Config{Nodes: []NodeSpec{
		{BaseSpeed: 100, Load: loadgen.NewStep(time.Second, 0, 0.5)},
	}})
	var dur time.Duration
	env.Go("m", func(p *vsim.Proc) {
		dur, _ = g.Node(0).Compute(p, 150)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dur != 2*time.Second {
		t.Errorf("duration = %v, want 2s", dur)
	}
}

func TestComputeLoadStepMidTaskStartedLate(t *testing.T) {
	// Task starts at t=0.5s, load steps at t=1s from 0 to 0.75.
	// 100 ops task: 50 ops before the step (0.5s), remaining 50 at 25 ops/s = 2s.
	env := vsim.New()
	g := mkGrid(t, env, Config{Nodes: []NodeSpec{
		{BaseSpeed: 100, Load: loadgen.NewStep(time.Second, 0, 0.75)},
	}})
	var dur time.Duration
	env.Go("m", func(p *vsim.Proc) {
		p.Sleep(500 * time.Millisecond)
		dur, _ = g.Node(0).Compute(p, 100)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dur != 2500*time.Millisecond {
		t.Errorf("duration = %v, want 2.5s", dur)
	}
}

func TestComputeZeroCost(t *testing.T) {
	env := vsim.New()
	g := mkGrid(t, env, Config{Nodes: []NodeSpec{{BaseSpeed: 10}}})
	env.Go("m", func(p *vsim.Proc) {
		if d, _ := g.Node(0).Compute(p, 0); d != 0 {
			t.Errorf("zero-cost compute took %v", d)
		}
		if d, _ := g.Node(0).Compute(p, -5); d != 0 {
			t.Errorf("negative-cost compute took %v", d)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeCPUSerialises(t *testing.T) {
	env := vsim.New()
	g := mkGrid(t, env, Config{Nodes: []NodeSpec{{BaseSpeed: 1}}})
	var ends []time.Duration
	for i := 0; i < 3; i++ {
		env.Go(fmt.Sprintf("u%d", i), func(p *vsim.Proc) {
			g.Node(0).Compute(p, 1) // 1s each
			ends = append(ends, env.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestTransferLatencyAndBandwidth(t *testing.T) {
	env := vsim.New()
	g := mkGrid(t, env, Config{
		Nodes: []NodeSpec{{BaseSpeed: 1}},
		Links: []LinkSpec{{Latency: 100 * time.Millisecond, Bandwidth: 1000}},
	})
	var dur time.Duration
	env.Go("m", func(p *vsim.Proc) {
		dur = g.Link(0).Transfer(p, 500) // 100ms + 0.5s
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dur != 600*time.Millisecond {
		t.Errorf("transfer = %v, want 600ms", dur)
	}
}

func TestTransferZeroBytesOnlyLatency(t *testing.T) {
	env := vsim.New()
	g := mkGrid(t, env, Config{
		Nodes: []NodeSpec{{BaseSpeed: 1}},
		Links: []LinkSpec{{Latency: 50 * time.Millisecond, Bandwidth: 1000}},
	})
	env.Go("m", func(p *vsim.Proc) {
		if d := g.Link(0).Transfer(p, 0); d != 50*time.Millisecond {
			t.Errorf("zero-byte transfer = %v", d)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkContention(t *testing.T) {
	env := vsim.New()
	g := mkGrid(t, env, Config{
		Nodes: []NodeSpec{{BaseSpeed: 1}},
		Links: []LinkSpec{{Latency: 0, Bandwidth: 100}},
	})
	var ends []time.Duration
	for i := 0; i < 2; i++ {
		env.Go(fmt.Sprintf("t%d", i), func(p *vsim.Proc) {
			g.Link(0).Transfer(p, 100) // 1s each, serialised
			ends = append(ends, env.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if ends[0] != time.Second || ends[1] != 2*time.Second {
		t.Errorf("ends = %v", ends)
	}
}

func TestLinkUtilisationSlowsTransfer(t *testing.T) {
	env := vsim.New()
	g := mkGrid(t, env, Config{
		Nodes: []NodeSpec{{BaseSpeed: 1}},
		Links: []LinkSpec{{Bandwidth: 100, Util: loadgen.NewConstant(0.5)}},
	})
	env.Go("m", func(p *vsim.Proc) {
		if d := g.Link(0).Transfer(p, 100); d != 2*time.Second {
			t.Errorf("transfer under 50%% util = %v, want 2s", d)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteRoundTrip(t *testing.T) {
	env := vsim.New()
	g := mkGrid(t, env, Config{
		Nodes: []NodeSpec{{BaseSpeed: 100}},
		Links: []LinkSpec{{Latency: 0, Bandwidth: 1000}},
	})
	var dur time.Duration
	env.Go("m", func(p *vsim.Proc) {
		// in: 500B (0.5s) + compute 100 ops (1s) + out: 250B (0.25s)
		dur, _ = g.Execute(p, 0, Work{Cost: 100, InBytes: 500, OutBytes: 250})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dur != 1750*time.Millisecond {
		t.Errorf("execute = %v, want 1.75s", dur)
	}
}

func TestGatewaySharedBySite(t *testing.T) {
	env := vsim.New()
	g := mkGrid(t, env, Config{
		Nodes: []NodeSpec{
			{BaseSpeed: 1, Site: 1},
			{BaseSpeed: 1, Site: 1},
		},
		Links:    []LinkSpec{{Bandwidth: 1e9}, {Bandwidth: 1e9}},
		Gateways: map[int]LinkSpec{1: {Bandwidth: 100}},
	})
	var ends []time.Duration
	for i := 0; i < 2; i++ {
		id := NodeID(i)
		env.Go(fmt.Sprintf("t%d", i), func(p *vsim.Proc) {
			g.SendTo(p, id, 100) // gateway: 1s each, serialised; node link ~instant
			ends = append(ends, env.Now())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if ends[0] < 900*time.Millisecond || ends[1] < 1900*time.Millisecond {
		t.Errorf("gateway not shared: ends = %v", ends)
	}
}

func TestGridValidation(t *testing.T) {
	env := vsim.New()
	if _, err := New(env, Config{}); err == nil {
		t.Error("empty grid should error")
	}
	if _, err := New(env, Config{Nodes: []NodeSpec{{BaseSpeed: 0}}}); err == nil {
		t.Error("zero speed should error")
	}
	if _, err := New(env, Config{
		Nodes: []NodeSpec{{BaseSpeed: 1}},
		Links: []LinkSpec{{}, {}},
	}); err == nil {
		t.Error("mismatched link count should error")
	}
}

func TestNodeAccessorsAndPanics(t *testing.T) {
	env := vsim.New()
	g := mkGrid(t, env, Config{Nodes: []NodeSpec{{BaseSpeed: 5, Name: "alpha"}}})
	if g.Size() != 1 {
		t.Errorf("Size = %d", g.Size())
	}
	if g.Node(0).Name != "alpha" {
		t.Errorf("Name = %q", g.Node(0).Name)
	}
	if NodeID(3).String() != "n3" {
		t.Errorf("NodeID.String = %q", NodeID(3).String())
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Node should panic")
		}
	}()
	g.Node(9)
}

func TestEffectiveSpeedAndRank(t *testing.T) {
	env := vsim.New()
	g := mkGrid(t, env, Config{Nodes: []NodeSpec{
		{BaseSpeed: 100}, // n0: fastest when idle
		{BaseSpeed: 80, Load: loadgen.NewConstant(0.1)},             // n1: 72
		{BaseSpeed: 200, Load: loadgen.NewConstant(0.9)},            // n2: 20
		{BaseSpeed: 90, Load: loadgen.NewStep(time.Second, 0, 0.5)}, // n3: 90 then 45
	}})
	// The ranking the calibration tries to discover is n0 n3 n1 n2 at t=0
	// and n0 n1 n3 n2 once n3's load has stepped up.
	// A one-op task measures the speed Compute sees: it takes 1/speed.
	took := make([][2]time.Duration, 4)
	for i := range took {
		n := g.Node(NodeID(i))
		env.Go(fmt.Sprintf("probe%d", i), func(p *vsim.Proc) {
			took[i][0], _ = n.Compute(p, 1)
			p.Sleep(2*time.Second - env.Now())
			took[i][1], _ = n.Compute(p, 1)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, want := range [][2]float64{{100, 100}, {72, 72}, {20, 20}, {90, 45}} {
		at0, at2 := 1/took[i][0].Seconds(), 1/took[i][1].Seconds()
		if math.Abs(at0-want[0]) > 1e-3*want[0] || math.Abs(at2-want[1]) > 1e-3*want[1] {
			t.Errorf("n%d effective speed = %v then %v, want %v", i, at0, at2, want)
		}
	}
}

func TestAccounting(t *testing.T) {
	env := vsim.New()
	g := mkGrid(t, env, Config{Nodes: []NodeSpec{{BaseSpeed: 10}}})
	env.Go("m", func(p *vsim.Proc) {
		g.Node(0).Compute(p, 10)
		g.Node(0).Compute(p, 20)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	n := g.Node(0)
	if n.TasksDone() != 2 {
		t.Errorf("TasksDone = %d", n.TasksDone())
	}
	if n.BusyTime() != 3*time.Second {
		t.Errorf("BusyTime = %v", n.BusyTime())
	}
	snap := g.Snapshot()
	if snap.Nodes[0].TasksDone != 2 || snap.Nodes[0].Busy != 3*time.Second {
		t.Errorf("snapshot = %+v", snap.Nodes[0])
	}
}

func TestHeterogeneousSpecs(t *testing.T) {
	specs := HeterogeneousSpecs(42, 200, 100, 0.5)
	if len(specs) != 200 {
		t.Fatalf("len = %d", len(specs))
	}
	speeds := make([]float64, len(specs))
	for i, s := range specs {
		if s.BaseSpeed <= 0 {
			t.Fatalf("non-positive speed %v", s.BaseSpeed)
		}
		speeds[i] = s.BaseSpeed
	}
	mean := stats.Mean(speeds)
	cv := stats.StdDev(speeds) / mean
	if math.Abs(mean-100) > 15 {
		t.Errorf("mean speed = %v, want ≈100", mean)
	}
	if math.Abs(cv-0.5) > 0.15 {
		t.Errorf("cv = %v, want ≈0.5", cv)
	}
}

func TestHeterogeneousSpecsDeterministicAndDegenerate(t *testing.T) {
	a := HeterogeneousSpecs(7, 10, 50, 0.3)
	b := HeterogeneousSpecs(7, 10, 50, 0.3)
	for i := range a {
		if a[i].BaseSpeed != b[i].BaseSpeed {
			t.Fatal("same seed diverged")
		}
	}
	u := HeterogeneousSpecs(1, 5, 50, 0)
	for _, s := range u {
		if s.BaseSpeed != 50 {
			t.Fatal("cv=0 should give identical speeds")
		}
	}
	if HeterogeneousSpecs(1, 0, 50, 0.5) != nil {
		t.Error("n=0 should be nil")
	}
}

func TestIntegrateAgainstBruteForce(t *testing.T) {
	// Cross-check the exact integrator against fine-grained numerical
	// integration on a random-walk trace.
	tr := loadgen.RandomWalk(99, 0.4, 0.2, time.Second, time.Minute)
	base := 100.0
	for _, cost := range []float64{1, 10, 100, 1000, 4000} {
		exact := integrate(tr, base, cost, 0).Seconds()
		// Brute force: accumulate ops in 1ms steps.
		var acc float64
		var tSec float64
		for acc < cost && tSec < 3600 {
			load := tr.At(time.Duration(tSec * float64(time.Second)))
			acc += base * (1 - load) * 0.001
			tSec += 0.001
		}
		if math.Abs(exact-tSec) > 0.01 {
			t.Errorf("cost %v: exact %.4fs vs brute %.4fs", cost, exact, tSec)
		}
	}
}

func TestBytesMoved(t *testing.T) {
	env := vsim.New()
	g := mkGrid(t, env, Config{Nodes: []NodeSpec{{BaseSpeed: 1}}})
	env.Go("m", func(p *vsim.Proc) {
		g.Link(0).Transfer(p, 100)
		g.Link(0).Transfer(p, 50)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if g.Link(0).BytesMoved() != 150 {
		t.Errorf("BytesMoved = %v", g.Link(0).BytesMoved())
	}
}
