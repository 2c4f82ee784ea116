package platform

import (
	"testing"
	"time"

	"grasp/internal/grid"
	"grasp/internal/loadgen"
	"grasp/internal/rt"
	"grasp/internal/vsim"
	"grasp/internal/workload"
)

func newTestGridPlatform(t *testing.T, specs []grid.NodeSpec, noise float64) (*GridPlatform, *rt.Sim) {
	t.Helper()
	env := vsim.New()
	sim := rt.NewSim(env)
	g, err := grid.New(env, grid.Config{Nodes: specs})
	if err != nil {
		t.Fatal(err)
	}
	return NewGridPlatform(sim, g, noise, 42), sim
}

func TestGridPlatformExec(t *testing.T) {
	pf, sim := newTestGridPlatform(t, []grid.NodeSpec{{BaseSpeed: 100}}, 0)
	var res Result
	sim.Go("m", func(c rt.Ctx) {
		res = pf.Exec(c, 0, Task{ID: 3, Cost: 200})
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Time != 2*time.Second {
		t.Errorf("Time = %v, want 2s", res.Time)
	}
	if res.Task.ID != 3 || res.Worker != 0 || res.Start != 0 {
		t.Errorf("result = %+v", res)
	}
}

func TestGridPlatformAccessors(t *testing.T) {
	pf, _ := newTestGridPlatform(t, []grid.NodeSpec{
		{BaseSpeed: 1, Name: "alpha"}, {BaseSpeed: 2},
	}, 0)
	if pf.Size() != 2 {
		t.Errorf("Size = %d", pf.Size())
	}
	if pf.WorkerName(0) != "alpha" || pf.WorkerName(1) != "n1" {
		t.Errorf("names = %q %q", pf.WorkerName(0), pf.WorkerName(1))
	}
	if pf.Runtime() == nil || pf.Grid() == nil {
		t.Error("nil accessors")
	}
}

func TestGridPlatformPerfectSensors(t *testing.T) {
	pf, sim := newTestGridPlatform(t, []grid.NodeSpec{
		{BaseSpeed: 1, Load: loadgen.NewStep(time.Second, 0.2, 0.7)},
	}, 0)
	var at0, at2 float64
	sim.Go("m", func(c rt.Ctx) {
		s := pf.LoadSensor(0)
		at0 = s.Read()
		c.Sleep(2 * time.Second)
		at2 = s.Read()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if at0 != 0.2 || at2 != 0.7 {
		t.Errorf("sensor = %v, %v; want 0.2, 0.7", at0, at2)
	}
}

func TestGridPlatformNoisySensorsBounded(t *testing.T) {
	pf, sim := newTestGridPlatform(t, []grid.NodeSpec{
		{BaseSpeed: 1, Load: loadgen.NewConstant(0.5)},
	}, 0.2)
	sim.Go("m", func(c rt.Ctx) {
		s := pf.LoadSensor(0)
		var differs bool
		for i := 0; i < 50; i++ {
			v := s.Read()
			if v < 0 || v > 1 {
				t.Errorf("noisy reading out of bounds: %v", v)
			}
			if v != 0.5 {
				differs = true
			}
		}
		if !differs {
			t.Error("noisy sensor never deviated from truth")
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGridPlatformBandwidthSensor(t *testing.T) {
	env := vsim.New()
	sim := rt.NewSim(env)
	g, err := grid.New(env, grid.Config{
		Nodes: []grid.NodeSpec{{BaseSpeed: 1}},
		Links: []grid.LinkSpec{{Bandwidth: 100, Util: loadgen.NewConstant(0.3)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pf := NewGridPlatform(sim, g, 0, 1)
	sim.Go("m", func(c rt.Ctx) {
		if v := pf.BandwidthSensor(0).Read(); v != 0.3 {
			t.Errorf("bw sensor = %v", v)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalPlatformExec(t *testing.T) {
	l := rt.NewLocal()
	pf := NewLocalPlatform(l, 4)
	if pf.Size() != 4 {
		t.Errorf("Size = %d", pf.Size())
	}
	var res Result
	l.Go("m", func(c rt.Ctx) {
		res = pf.Exec(c, 2, Task{ID: 1, Fn: func() any { return 99 }})
	})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if res.Value.(int) != 99 || res.Worker != 2 {
		t.Errorf("result = %+v", res)
	}
}

func TestLocalPlatformNilFn(t *testing.T) {
	l := rt.NewLocal()
	pf := NewLocalPlatform(l, 1)
	l.Go("m", func(c rt.Ctx) {
		res := pf.Exec(c, 0, Task{ID: 1})
		if res.Value != nil {
			t.Error("nil Fn should yield nil value")
		}
	})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLocalPlatformSensorsZero(t *testing.T) {
	pf := NewLocalPlatform(rt.NewLocal(), 2)
	if pf.LoadSensor(0).Read() != 0 || pf.BandwidthSensor(1).Read() != 0 {
		t.Error("local sensors should read 0")
	}
	if pf.WorkerName(1) != "w1" {
		t.Errorf("name = %q", pf.WorkerName(1))
	}
}

func TestLocalPlatformMinWorkers(t *testing.T) {
	if NewLocalPlatform(rt.NewLocal(), 0).Size() != 1 {
		t.Error("worker count should clamp to 1")
	}
}

func TestTasksFromItems(t *testing.T) {
	items := workload.Spec{N: 3, Cost: workload.Fixed{V: 5}, InBytes: workload.Fixed{V: 10}, Seed: 1}.Build()
	tasks := TasksFromItems(items)
	if len(tasks) != 3 {
		t.Fatalf("len = %d", len(tasks))
	}
	for i, task := range tasks {
		if task.ID != i || task.Cost != 5 || task.InBytes != 10 || task.OutBytes != 0 {
			t.Errorf("task = %+v", task)
		}
	}
}

// chunkRecorder is a local platform that also takes dispatch groups whole.
type chunkRecorder struct {
	*LocalPlatform
	chunks [][]Task
}

func (p *chunkRecorder) ExecChunk(c rt.Ctx, i int, tasks []Task, emit func(Result)) {
	p.chunks = append(p.chunks, tasks)
	for _, t := range tasks {
		emit(Result{Task: t, Worker: i})
	}
}

func TestExecChunkIsASerialExecLoopUnlessThePlatformChunks(t *testing.T) {
	var order []int
	tasks := make([]Task, 4)
	for i := range tasks {
		id := i
		tasks[i] = Task{ID: id, Fn: func() any { order = append(order, id); return id * id }}
	}
	l := rt.NewLocal()
	var got []Result
	emit := func(r Result) { got = append(got, r) }
	l.Go("m", func(c rt.Ctx) { ExecChunk(NewLocalPlatform(l, 2), c, 1, tasks, emit) })
	l.Run()
	if len(got) != 4 || len(order) != 4 {
		t.Fatalf("emitted %d results over %d executions, want 4 and 4", len(got), len(order))
	}
	for i, r := range got {
		if order[i] != i || r.Task.ID != i || r.Worker != 1 || r.Value != i*i {
			t.Errorf("result %d = %+v (execution order %v), want task %d in order on worker 1", i, r, order, i)
		}
	}

	pf := &chunkRecorder{LocalPlatform: NewLocalPlatform(l, 2)}
	got, order = nil, nil
	l.Go("m", func(c rt.Ctx) { ExecChunk(pf, c, 0, tasks, emit) })
	l.Run()
	if len(pf.chunks) != 1 || len(pf.chunks[0]) != 4 || len(got) != 4 || len(order) != 0 {
		t.Errorf("a Chunker must receive the group whole: chunks %d, emitted %d, per-task Execs %d",
			len(pf.chunks), len(got), len(order))
	}
}
