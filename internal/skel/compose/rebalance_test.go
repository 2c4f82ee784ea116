package compose

import (
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"grasp/internal/grid"
	"grasp/internal/platform"
	"grasp/internal/rt"
	"grasp/internal/trace"
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
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, stages, 50, Options{BufSize: 4, Migrate: true})
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
		t.Errorf("clean run: %+v", rep)
	}
}

func TestAdaptiveMatchesStaticWhenBalanced(t *testing.T) {
	// With well-sized pools and steady demand there is nothing to fix: the
	// migrating run must not lose ground to the static one.
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
	var adaptive Report
	simA.Go("root", func(c rt.Ctx) {
		adaptive = Run(pfA, c, stages(), 60, Options{BufSize: 4, Migrate: true})
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
	var adaptive Report
	simA.Go("root", func(c rt.Ctx) {
		adaptive = Run(pfA, c, stages(), items, Options{BufSize: 4, Migrate: true})
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
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, stages, 40, Options{BufSize: 4, Migrate: true})
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
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, stages, 100, Options{BufSize: 4, Migrate: true})
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
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, stages, 100, Options{BufSize: 4, Migrate: true})
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
	var rep Report
	l.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, stages, 20, Options{Migrate: true})
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

// TestAdaptiveReceiveAndCountAreAtomic: no stage may close its downstream
// buffer while one of its items is between being received and being handed
// on. A stage is a farm, so this is the farm's drain: its workers are
// released — and only then does the farm return and the stage close
// downstream — once the input has ended with nothing queued and executing ==
// 0, and an item counts as executing from dispatch until its worker has
// handed it on and reported. Many short runs on real goroutines with free
// stage work make the window easy to hit: the hand-written loop this
// replaced once panicked here with "send on closed channel".
func TestAdaptiveReceiveAndCountAreAtomic(t *testing.T) {
	id := func(v any) any { return v }
	for run := 0; run < 400; run++ {
		l := rt.NewLocal()
		pf := platform.NewLocalPlatform(l, 6)
		stages := []Stage{
			{Name: "a", Pool: []int{0, 1, 2}, Fn: id},
			{Name: "b", Pool: []int{3, 4, 5}, Fn: id},
		}
		var rep Report
		l.Go("root", func(c rt.Ctx) {
			rep = Run(pf, c, stages, 6, Options{Migrate: true})
		})
		if err := l.Run(); err != nil {
			t.Fatal(err)
		}
		if rep.Items != 6 {
			t.Fatalf("run %d: items = %d, want 6", run, rep.Items)
		}
	}
}

// exclusive is a platform that counts the executions it sees overlap on one
// worker. Within a stage a worker holds one item at a time, so an overlap is
// a worker executing for two stages at once.
type exclusive struct {
	platform.Platform
	active   []atomic.Int32
	overlaps atomic.Int32
}

func (x *exclusive) Exec(c rt.Ctx, i int, t platform.Task) platform.Result {
	if x.active[i].Add(1) > 1 {
		x.overlaps.Add(1)
	}
	defer x.active[i].Add(-1)
	return x.Platform.Exec(c, i, t)
}

// shiftRun is the demand-shift scenario on a fresh simulator: stage a heavy
// for the first half of the items, stage b for the second, pools sized for
// the first half.
func shiftRun(t *testing.T, specs []grid.NodeSpec) (Report, *exclusive) {
	t.Helper()
	const items = 80
	gpf, sim := gridPF(t, specs)
	pf := &exclusive{Platform: gpf, active: make([]atomic.Int32, gpf.Size())}
	stages := []Stage{
		{Name: "a", Pool: []int{0, 1, 2}, Cost: costSwitch(6, 1, items/2)},
		{Name: "b", Pool: []int{3}, Cost: costSwitch(1, 6, items/2)},
	}
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, stages, items, Options{BufSize: 4, Migrate: true})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Items+rep.Lost != items {
		t.Fatalf("items %d + lost %d != %d", rep.Items, rep.Lost, items)
	}
	return rep, pf
}

func TestAdaptiveMigrationsAreDeterministic(t *testing.T) {
	first, _ := shiftRun(t, equalSpecs(4, 10))
	again, _ := shiftRun(t, equalSpecs(4, 10))
	if len(first.Migrations) == 0 {
		t.Fatal("the scenario should migrate")
	}
	if !reflect.DeepEqual(first.Migrations, again.Migrations) {
		t.Errorf("same platform, same items, different history:\n%+v\n%+v", first.Migrations, again.Migrations)
	}
}

func TestAdaptiveWorkerNeverServesTwoStagesAtOnce(t *testing.T) {
	// Under the shift workers move while their old farm may still hold an
	// item for them; in the rescue a busy member of stage a is admitted to
	// stage b on the spot.
	rep, pf := shiftRun(t, equalSpecs(4, 10))
	if n := pf.overlaps.Load(); n != 0 || len(rep.Migrations) == 0 {
		t.Errorf("shift: %d overlapping executions over %d migrations", n, len(rep.Migrations))
	}
	specs := equalSpecs(4, 10)
	specs[3].FailAt = time.Second
	rep, pf = shiftRun(t, specs)
	if n := pf.overlaps.Load(); n != 0 || len(rep.Migrations) == 0 || rep.Lost != 0 {
		t.Errorf("rescue: %d overlapping executions over %d migrations, %d lost", n, len(rep.Migrations), rep.Lost)
	}
}

func TestAdaptiveMigrantCrashIsRetriedInItsNewStage(t *testing.T) {
	// Learn who moves to stage b and when, then replay the run with that
	// worker crashing two item-lengths after it joined: the item it held is
	// stage b's, and stage b's survivors finish it.
	clean, _ := shiftRun(t, equalSpecs(4, 10))
	i := slices.IndexFunc(clean.Migrations, func(m Migration) bool { return m.To == 1 })
	if i < 0 {
		t.Fatalf("nobody moved to stage b: %+v", clean.Migrations)
	}
	m := clean.Migrations[i]
	specs := equalSpecs(4, 10)
	specs[m.Worker].FailAt = m.At + 1200*time.Millisecond
	rep, _ := shiftRun(t, specs)
	if !slices.Contains(rep.Migrations, m) {
		t.Fatalf("the replay diverged before %+v: %+v", m, rep.Migrations)
	}
	if rep.Failures != 1 || !slices.Equal(rep.DeadWorkers, []int{m.Worker}) {
		t.Errorf("failures = %d, dead = %v; want one lost execution on worker %d", rep.Failures, rep.DeadWorkers, m.Worker)
	}
	if rep.Items != 80 || rep.Lost != 0 {
		t.Errorf("items = %d, lost = %d; a survivor of stage b should have retried the item", rep.Items, rep.Lost)
	}
}

func TestAdaptiveLastMemberNeverMigrates(t *testing.T) {
	// Stage a's only worker spends its life blocked on stage b's full input:
	// idle by every measure, and still not stage a's to give away.
	pf, sim := gridPF(t, equalSpecs(3, 10))
	stages := []Stage{
		{Name: "a", Pool: []int{0}, Cost: constCost(1)},
		{Name: "b", Pool: []int{1, 2}, Cost: constCost(8)},
	}
	log := trace.New()
	var rep Report
	sim.Go("root", func(c rt.Ctx) {
		rep = Run(pf, c, stages, 40, Options{BufSize: 2, Migrate: true, Log: log})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Items != 40 {
		t.Fatalf("items = %d", rep.Items)
	}
	var aDone time.Duration // when stage a handed on its last item
	for _, e := range log.Filter(trace.KindComplete) {
		if e.Proc == "a" {
			aDone = e.At
		}
	}
	for _, m := range rep.Migrations {
		if m.From == 0 && m.At < aDone {
			t.Errorf("stage a gave away its last member at %v, %v before it was done", m.At, aDone-m.At)
		}
	}
}
