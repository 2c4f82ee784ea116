package vsim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestSingleProcSleep(t *testing.T) {
	e := New()
	var woke time.Duration
	e.Go("p", func(p *Proc) {
		p.Sleep(5 * time.Second)
		woke = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5*time.Second {
		t.Errorf("woke at %v, want 5s", woke)
	}
	if e.Now() != 5*time.Second {
		t.Errorf("final time %v, want 5s", e.Now())
	}
}

func TestTimeAdvancesOnlyWhenIdle(t *testing.T) {
	e := New()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(time.Second)
		order = append(order, "a1")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(2 * time.Second)
		order = append(order, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "a1", "b1"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
	if e.Now() != 2*time.Second {
		t.Errorf("final time %v", e.Now())
	}
}

func TestSimultaneousTimersFIFO(t *testing.T) {
	e := New()
	var order []string
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("p%d", i)
		e.Go(name, func(p *Proc) {
			p.Sleep(time.Second)
			order = append(order, p.Name())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"p0", "p1", "p2", "p3", "p4"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestNegativeSleepIsYield(t *testing.T) {
	e := New()
	var order []string
	e.Go("a", func(p *Proc) {
		p.Sleep(-time.Second)
		order = append(order, "a")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// a yields, b runs, then a resumes at t=0.
	want := []string{"b", "a"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
	if e.Now() != 0 {
		t.Errorf("time advanced on yield: %v", e.Now())
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := New()
	fired := false
	e.Go("late", func(p *Proc) {
		p.Sleep(10 * time.Second)
		fired = true
	})
	if err := e.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("timer beyond limit fired")
	}
	if e.Now() != 3*time.Second {
		t.Errorf("time = %v, want limit 3s", e.Now())
	}
	// Resume to completion.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired || e.Now() != 10*time.Second {
		t.Errorf("after resume: fired=%v now=%v", fired, e.Now())
	}
}

func TestRunUntilInclusiveAtLimit(t *testing.T) {
	e := New()
	fired := false
	e.Go("exact", func(p *Proc) {
		p.Sleep(3 * time.Second)
		fired = true
	})
	if err := e.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("timer exactly at limit should fire")
	}
}

func TestJoin(t *testing.T) {
	e := New()
	var order []string
	worker := e.Go("w", func(p *Proc) {
		p.Sleep(4 * time.Second)
		order = append(order, "w done")
	})
	e.Go("main", func(p *Proc) {
		p.Join(worker)
		order = append(order, fmt.Sprintf("joined at %v", e.Now()))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w done", "joined at 4s"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestJoinFinishedProcReturnsImmediately(t *testing.T) {
	e := New()
	done := false
	w := e.Go("w", func(p *Proc) {})
	e.Go("main", func(p *Proc) {
		p.Sleep(time.Second) // let w finish first
		p.Join(w)
		done = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("join on finished proc did not return")
	}
}

func TestSpawnFromWithinProc(t *testing.T) {
	e := New()
	total := 0
	e.Go("parent", func(p *Proc) {
		for i := 0; i < 3; i++ {
			child := e.Go(fmt.Sprintf("c%d", i), func(p *Proc) {
				p.Sleep(time.Second)
				total++
			})
			p.Join(child)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 3 {
		t.Errorf("total = %d", total)
	}
	if e.Now() != 3*time.Second {
		t.Errorf("sequential children: now = %v, want 3s", e.Now())
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := New()
	ch := NewChan[int](e, "never", 0)
	e.Go("stuck", func(p *Proc) {
		ch.Recv(p)
	})
	err := e.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 {
		t.Errorf("blocked = %v", de.Blocked)
	}
}

func TestDeterministicReplay(t *testing.T) {
	// Run an involved scenario twice; event logs must match exactly.
	run := func() []string {
		var log []string
		e := New()
		ch := NewChan[int](e, "ch", 2)
		for i := 0; i < 4; i++ {
			e.Go(fmt.Sprintf("prod%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(time.Duration(p.id+1) * time.Second)
					ch.Send(p, j)
					log = append(log, fmt.Sprintf("%s sent %d at %v", p.Name(), j, e.Now()))
				}
			})
		}
		e.Go("cons", func(p *Proc) {
			for i := 0; i < 12; i++ {
				v, ok := ch.Recv(p)
				log = append(log, fmt.Sprintf("recv %d %v at %v", v, ok, e.Now()))
				p.Sleep(500 * time.Millisecond)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("replay diverged")
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{
		StateNew: "new", StateRunnable: "runnable", StateRunning: "running",
		StateSleeping: "sleeping", StateBlocked: "blocked", StateDone: "done",
		State(99): "state(99)",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestKernelOpOutsideProcPanics(t *testing.T) {
	e := New()
	var leaked *Proc
	e.Go("p", func(p *Proc) { leaked = p })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Sleep outside running proc should panic")
		}
	}()
	leaked.Sleep(time.Second)
}

func TestJoinSelfPanics(t *testing.T) {
	e := New()
	panicked := false
	e.Go("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		p.Join(p)
	})
	_ = e.Run()
	if !panicked {
		t.Error("self-join should panic")
	}
}

func TestManyProcsStress(t *testing.T) {
	e := New()
	const n = 2000
	count := 0
	for i := 0; i < n; i++ {
		d := time.Duration(i%17) * time.Millisecond
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(d)
			count++
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Errorf("count = %d, want %d", count, n)
	}
}
