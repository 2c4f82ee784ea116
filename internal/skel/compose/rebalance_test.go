package compose

import (
	"testing"
	"time"

	"grasp/internal/platform"
	"grasp/internal/rt"
)

// costSwitch returns a per-item stage cost that flips from `before` to
// `after` at item index `at` — the demand-shift scenario static pools
// cannot predict.
func costSwitch(before, after float64, at int) func(int) float64 {
	return func(i int) float64 {
		if i < at {
			return before
		}
		return after
	}
}

func TestAdaptiveDeliversAllItems(t *testing.T) {
	pf, sim := gridPF(t, equalSpecs(4, 10))
	stages := []Stage{
		{Name: "a", Pool: []int{0, 1}, Cost: constCost(1)},
		{Name: "b", Pool: []int{2, 3}, Cost: constCost(1)},
	}
	var rep AdaptiveReport
	sim.Go("root", func(c rt.Ctx) {
		rep = RunAdaptive(pf, c, stages, 50, Options{BufSize: 4}, Rebalance{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Items != 50 {
		t.Fatalf("items = %d, want 50", rep.Items)
	}
	seen := make(map[int]bool)
	for _, o := range rep.Outputs {
		if seen[o.ID] {
			t.Fatalf("item %d delivered twice", o.ID)
		}
		seen[o.ID] = true
	}
	if rep.Lost != 0 || rep.Failures != 0 {
		t.Errorf("clean run: %+v", rep.Report)
	}
}

func TestAdaptiveMatchesStaticWhenBalanced(t *testing.T) {
	// With well-sized pools and steady demand there is nothing to migrate;
	// the adaptive run should neither migrate nor lose ground (small
	// polling slack allowed).
	stages := func() []Stage {
		return []Stage{
			{Name: "a", Pool: []int{0, 1}, Cost: constCost(1)},
			{Name: "b", Pool: []int{2, 3}, Cost: constCost(1)},
		}
	}
	pfS, simS := gridPF(t, equalSpecs(4, 10))
	var static Report
	simS.Go("root", func(c rt.Ctx) {
		static = Run(pfS, c, stages(), 60, Options{BufSize: 4})
	})
	if err := simS.Run(); err != nil {
		t.Fatal(err)
	}
	pfA, simA := gridPF(t, equalSpecs(4, 10))
	var adaptive AdaptiveReport
	simA.Go("root", func(c rt.Ctx) {
		adaptive = RunAdaptive(pfA, c, stages(), 60, Options{BufSize: 4}, Rebalance{})
	})
	if err := simA.Run(); err != nil {
		t.Fatal(err)
	}
	if adaptive.Items != 60 {
		t.Fatalf("items = %d", adaptive.Items)
	}
	if adaptive.Makespan > static.Makespan*5/4 {
		t.Errorf("adaptive %v should stay within 25%% of static %v when balanced",
			adaptive.Makespan, static.Makespan)
	}
}

func TestAdaptiveMigratesUnderDemandShift(t *testing.T) {
	// Stage a is heavy for the first half of the items, then stage b takes
	// over. Pools sized for the initial demand (a:3, b:1) are wrong for the
	// second half; migration must move capacity to b.
	const items = 80
	stages := func() []Stage {
		return []Stage{
			{Name: "a", Pool: []int{0, 1, 2}, Cost: costSwitch(6, 1, items/2)},
			{Name: "b", Pool: []int{3}, Cost: costSwitch(1, 6, items/2)},
		}
	}
	pfS, simS := gridPF(t, equalSpecs(4, 10))
	var static Report
	simS.Go("root", func(c rt.Ctx) {
		static = Run(pfS, c, stages(), items, Options{BufSize: 4})
	})
	if err := simS.Run(); err != nil {
		t.Fatal(err)
	}
	pfA, simA := gridPF(t, equalSpecs(4, 10))
	var adaptive AdaptiveReport
	simA.Go("root", func(c rt.Ctx) {
		adaptive = RunAdaptive(pfA, c, stages(), items, Options{BufSize: 4}, Rebalance{})
	})
	if err := simA.Run(); err != nil {
		t.Fatal(err)
	}
	if adaptive.Items != items || static.Items != items {
		t.Fatalf("items adaptive=%d static=%d", adaptive.Items, static.Items)
	}
	if len(adaptive.Migrations) == 0 {
		t.Fatal("demand shift should trigger migrations")
	}
	if adaptive.Makespan >= static.Makespan {
		t.Errorf("adaptive %v should beat static %v under the demand shift",
			adaptive.Makespan, static.Makespan)
	}
	// Migrations must flow from the cooling stage to the heating one.
	toB := 0
	for _, m := range adaptive.Migrations {
		if m.From == 0 && m.To == 1 {
			toB++
		}
	}
	if toB == 0 {
		t.Errorf("no migration a→b: %+v", adaptive.Migrations)
	}
}

func TestAdaptiveFinishedStageDonatesWorkers(t *testing.T) {
	// Stage a finishes its contribution long before stage b (b is 5×
	// heavier); a's pool should migrate to b once a's input closes.
	pf, sim := gridPF(t, equalSpecs(4, 10))
	stages := []Stage{
		{Name: "a", Pool: []int{0, 1, 2}, Cost: constCost(1)},
		{Name: "b", Pool: []int{3}, Cost: constCost(5)},
	}
	var rep AdaptiveReport
	sim.Go("root", func(c rt.Ctx) {
		rep = RunAdaptive(pf, c, stages, 40, Options{BufSize: 4}, Rebalance{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Items != 40 {
		t.Fatalf("items = %d", rep.Items)
	}
	if len(rep.Migrations) == 0 {
		t.Error("finished stage should donate workers downstream")
	}
	// The donated workers actually execute stage-b items.
	busy := 0
	for w := 0; w < 3; w++ {
		busy += rep.ItemsByWorker[w]
	}
	if busy <= 40 {
		t.Errorf("stage-a pool executed %d items; should exceed its own 40 after donating", busy)
	}
}

func TestAdaptiveSurvivesPoolCrashByRescue(t *testing.T) {
	// Stage b's only member dies mid-run: a stage-a worker must rescue the
	// uncovered stage and the pipe must finish with no lost items.
	specs := equalSpecs(3, 10)
	specs[2].FailAt = 2 * time.Second
	pf, sim := gridPF(t, specs)
	stages := []Stage{
		{Name: "a", Pool: []int{0, 1}, Cost: constCost(0.5)},
		{Name: "b", Pool: []int{2}, Cost: constCost(0.5)},
	}
	var rep AdaptiveReport
	sim.Go("root", func(c rt.Ctx) {
		rep = RunAdaptive(pf, c, stages, 100, Options{BufSize: 4}, Rebalance{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Failures == 0 {
		t.Error("crash should be counted")
	}
	if rep.Items != 100 {
		t.Errorf("items = %d; rescue migration should recover all work", rep.Items)
	}
	if rep.Lost != 0 {
		t.Errorf("lost = %d, want 0", rep.Lost)
	}
	rescued := false
	for _, m := range rep.Migrations {
		if m.To == 1 {
			rescued = true
		}
	}
	if !rescued {
		t.Error("no rescue migration recorded")
	}
}

func TestAdaptiveAllDeadTerminatesWithLoss(t *testing.T) {
	// Every node dies: the janitor must drain the pipe and terminate the
	// run with items+lost accounting for everything in flight.
	specs := equalSpecs(2, 10)
	specs[0].FailAt = time.Second
	specs[1].FailAt = time.Second
	pf, sim := gridPF(t, specs)
	stages := []Stage{
		{Name: "a", Pool: []int{0}, Cost: constCost(0.5)},
		{Name: "b", Pool: []int{1}, Cost: constCost(0.5)},
	}
	var rep AdaptiveReport
	sim.Go("root", func(c rt.Ctx) {
		rep = RunAdaptive(pf, c, stages, 100, Options{BufSize: 4}, Rebalance{})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Items+rep.Lost != 100 {
		t.Errorf("items %d + lost %d != 100", rep.Items, rep.Lost)
	}
	if rep.Lost == 0 {
		t.Error("a fully dead platform must lose work")
	}
}

func TestAdaptiveValuesFlowOnLocal(t *testing.T) {
	l := rt.NewLocal()
	pf := platform.NewLocalPlatform(l, 4)
	stages := []Stage{
		{Name: "double", Pool: []int{0, 1}, Fn: func(v any) any { return v.(int) * 2 }},
		{Name: "inc", Pool: []int{2, 3}, Fn: func(v any) any { return v.(int) + 1 }},
	}
	var rep AdaptiveReport
	l.Go("root", func(c rt.Ctx) {
		rep = RunAdaptive(pf, c, stages, 20, Options{}, Rebalance{Poll: time.Millisecond})
	})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Items != 20 {
		t.Fatalf("items = %d", rep.Items)
	}
	for _, o := range rep.Outputs {
		if want := o.ID*2 + 1; o.Value.(int) != want {
			t.Errorf("item %d: value %v, want %d", o.ID, o.Value, want)
		}
	}
}

func TestRebalanceDefaults(t *testing.T) {
	rb := Rebalance{}.withDefaults()
	if rb.Poll <= 0 || rb.IdlePolls <= 0 || rb.MinPressure <= 0 || rb.MinPressure > 1 {
		t.Errorf("defaults not applied: %+v", rb)
	}
	custom := Rebalance{Poll: time.Second, IdlePolls: 9, MinPressure: 0.5}.withDefaults()
	if custom.Poll != time.Second || custom.IdlePolls != 9 || custom.MinPressure != 0.5 {
		t.Errorf("custom values clobbered: %+v", custom)
	}
}

// TestAdaptiveReceiveAndCountAreAtomic: a pool member that has received the
// stage's last item but not yet counted it in flight must not let a sibling
// observe the stage finished and close the channel that item is about to be
// pushed into. Many short runs on real goroutines with free stage work make
// the window easy to hit: before the receive moved under the balance lock
// this panicked with "send on closed channel".
func TestAdaptiveReceiveAndCountAreAtomic(t *testing.T) {
	id := func(v any) any { return v }
	for run := 0; run < 400; run++ {
		l := rt.NewLocal()
		pf := platform.NewLocalPlatform(l, 6)
		stages := []Stage{
			{Name: "a", Pool: []int{0, 1, 2}, Fn: id},
			{Name: "b", Pool: []int{3, 4, 5}, Fn: id},
		}
		var rep AdaptiveReport
		l.Go("root", func(c rt.Ctx) {
			rep = RunAdaptive(pf, c, stages, 6, Options{}, Rebalance{Poll: time.Microsecond})
		})
		if err := l.Run(); err != nil {
			t.Fatal(err)
		}
		if rep.Items != 6 {
			t.Fatalf("run %d: items = %d, want 6", run, rep.Items)
		}
	}
}
