package grid

import (
	"errors"
	"testing"
	"time"

	"grasp/internal/vsim"
)

func TestComputeFailsAfterCrash(t *testing.T) {
	env := vsim.New()
	g := mkGrid(t, env, Config{Nodes: []NodeSpec{
		{BaseSpeed: 100, FailAt: 5 * time.Second},
	}})
	env.Go("m", func(p *vsim.Proc) {
		p.Sleep(6 * time.Second)
		_, err := g.Node(0).Compute(p, 10)
		if !errors.Is(err, ErrNodeFailed) {
			t.Errorf("err = %v, want ErrNodeFailed", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestComputeCrashMidTask(t *testing.T) {
	// Task needs 10s; node dies at t=4s. The caller learns at the crash
	// instant, not at the nominal completion time.
	env := vsim.New()
	g := mkGrid(t, env, Config{Nodes: []NodeSpec{
		{BaseSpeed: 10, FailAt: 4 * time.Second},
	}})
	env.Go("m", func(p *vsim.Proc) {
		d, err := g.Node(0).Compute(p, 100)
		if !errors.Is(err, ErrNodeFailed) {
			t.Errorf("err = %v", err)
		}
		if d != 4*time.Second {
			t.Errorf("failure observed after %v, want 4s", d)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != 4*time.Second {
		t.Errorf("now = %v", env.Now())
	}
}

func TestComputeBeforeCrashSucceeds(t *testing.T) {
	env := vsim.New()
	g := mkGrid(t, env, Config{Nodes: []NodeSpec{
		{BaseSpeed: 100, FailAt: time.Hour},
	}})
	env.Go("m", func(p *vsim.Proc) {
		d, err := g.Node(0).Compute(p, 100)
		if err != nil || d != time.Second {
			t.Errorf("d=%v err=%v", d, err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteCrashSkipsOutputTransfer(t *testing.T) {
	// Node dies during compute: the output transfer never happens, so the
	// elapsed time is exactly up to the crash.
	env := vsim.New()
	g := mkGrid(t, env, Config{
		Nodes: []NodeSpec{{BaseSpeed: 10, FailAt: 2 * time.Second}},
		Links: []LinkSpec{{Bandwidth: 1000}},
	})
	env.Go("m", func(p *vsim.Proc) {
		d, err := g.Execute(p, 0, Work{Cost: 100, InBytes: 1000, OutBytes: 1000})
		if !errors.Is(err, ErrNodeFailed) {
			t.Errorf("err = %v", err)
		}
		// 1s input transfer + compute until crash at t=2s.
		if d != 2*time.Second {
			t.Errorf("d = %v, want 2s", d)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteOnDeadNodeImmediate(t *testing.T) {
	env := vsim.New()
	g := mkGrid(t, env, Config{Nodes: []NodeSpec{
		{BaseSpeed: 10, FailAt: time.Second},
	}})
	env.Go("m", func(p *vsim.Proc) {
		p.Sleep(2 * time.Second)
		d, err := g.Execute(p, 0, Work{Cost: 100, InBytes: 500})
		if !errors.Is(err, ErrNodeFailed) || d != 0 {
			t.Errorf("d=%v err=%v, want instant failure", d, err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFailedAt(t *testing.T) {
	env := vsim.New()
	g := mkGrid(t, env, Config{Nodes: []NodeSpec{
		{BaseSpeed: 1, FailAt: 3 * time.Second},
		{BaseSpeed: 1}, // never fails
	}})
	n := g.Node(0)
	if n.FailedAt(2 * time.Second) {
		t.Error("not yet failed")
	}
	if !n.FailedAt(3 * time.Second) {
		t.Error("failed at the instant")
	}
	if g.Node(1).FailedAt(time.Hour) {
		t.Error("FailAt=0 must never fail")
	}
}
