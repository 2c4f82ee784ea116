package rt

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"grasp/internal/vsim"
)

// runtimes under test, constructed fresh per case.
func eachRuntime(t *testing.T, fn func(t *testing.T, name string, r Runtime)) {
	t.Helper()
	t.Run("sim", func(t *testing.T) {
		fn(t, "sim", NewSim(vsim.New()))
	})
	t.Run("local", func(t *testing.T) {
		fn(t, "local", NewLocal())
	})
}

func TestProducerConsumerBothRuntimes(t *testing.T) {
	eachRuntime(t, func(t *testing.T, name string, r Runtime) {
		ch := r.NewChan("pc", 4)
		var got atomic.Int64
		r.Go("producer", func(c Ctx) {
			for i := 1; i <= 10; i++ {
				ch.Send(c, i)
			}
			ch.Close(c)
		})
		r.Go("consumer", func(c Ctx) {
			for {
				v, ok := ch.Recv(c)
				if !ok {
					return
				}
				got.Add(int64(v.(int)))
			}
		})
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if got.Load() != 55 {
			t.Errorf("sum = %d, want 55", got.Load())
		}
	})
}

func TestGoJoinBothRuntimes(t *testing.T) {
	eachRuntime(t, func(t *testing.T, name string, r Runtime) {
		var order []string
		r.Go("main", func(c Ctx) {
			h := c.Go("child", func(c2 Ctx) {
				c2.Sleep(10 * time.Millisecond)
				order = append(order, "child")
			})
			c.Join(h)
			order = append(order, "main")
		})
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(order) != "[child main]" {
			t.Errorf("order = %v", order)
		}
	})
}

func TestNowAdvancesBothRuntimes(t *testing.T) {
	eachRuntime(t, func(t *testing.T, name string, r Runtime) {
		var before, after time.Duration
		r.Go("p", func(c Ctx) {
			before = c.Now()
			c.Sleep(20 * time.Millisecond)
			after = c.Now()
		})
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if after-before < 20*time.Millisecond {
			t.Errorf("Sleep advanced %v, want ≥ 20ms", after-before)
		}
	})
}

func TestTrySendTryRecvBothRuntimes(t *testing.T) {
	eachRuntime(t, func(t *testing.T, name string, r Runtime) {
		ch := r.NewChan("try", 1)
		r.Go("p", func(c Ctx) {
			if _, _, done := ch.TryRecv(c); done {
				t.Error("TryRecv on empty should not complete")
			}
			if !ch.TrySend(c, 1) {
				t.Error("TrySend into empty buffer should succeed")
			}
			if ch.TrySend(c, 2) {
				t.Error("TrySend into full buffer should fail")
			}
			v, ok, done := ch.TryRecv(c)
			if !done || !ok || v.(int) != 1 {
				t.Errorf("TryRecv = %v %v %v", v, ok, done)
			}
		})
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestChanLenCapBothRuntimes(t *testing.T) {
	eachRuntime(t, func(t *testing.T, name string, r Runtime) {
		ch := r.NewChan("lc", 3)
		if ch.Cap() != 3 {
			t.Errorf("Cap = %d", ch.Cap())
		}
		r.Go("p", func(c Ctx) {
			ch.Send(c, 1)
			ch.Send(c, 2)
			if ch.Len() != 2 {
				t.Errorf("Len = %d", ch.Len())
			}
		})
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRecvAfterCloseBothRuntimes(t *testing.T) {
	eachRuntime(t, func(t *testing.T, name string, r Runtime) {
		ch := r.NewChan("cl", 2)
		var tail []bool
		r.Go("p", func(c Ctx) {
			ch.Send(c, 1)
			ch.Close(c)
			_, ok1 := ch.Recv(c)
			_, ok2 := ch.Recv(c)
			tail = []bool{ok1, ok2}
		})
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(tail) != "[true false]" {
			t.Errorf("tail = %v", tail)
		}
	})
}

func TestSimDeterministicAcrossRuns(t *testing.T) {
	run := func() []string {
		r := NewSim(vsim.New())
		ch := r.NewChan("ch", 0)
		var log []string
		for i := 0; i < 3; i++ {
			idx := i
			r.Go(fmt.Sprintf("w%d", i), func(c Ctx) {
				c.Sleep(time.Duration(idx) * time.Millisecond)
				ch.Send(c, idx)
			})
		}
		r.Go("collect", func(c Ctx) {
			for i := 0; i < 3; i++ {
				v, _ := ch.Recv(c)
				log = append(log, fmt.Sprintf("%v@%v", v, c.Now()))
			}
		})
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	if fmt.Sprint(run()) != fmt.Sprint(run()) {
		t.Error("sim runtime not deterministic")
	}
}

func TestSimVirtualTimeIsFast(t *testing.T) {
	// An hour of virtual time must simulate in well under a second of real
	// time — this is the point of the simulated runtime.
	r := NewSim(vsim.New())
	r.Go("sleeper", func(c Ctx) {
		for i := 0; i < 3600; i++ {
			c.Sleep(time.Second)
		}
	})
	wallStart := time.Now()
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(wallStart); wall > 2*time.Second {
		t.Errorf("simulating 1h took %v of real time", wall)
	}
	if r.Now() != time.Hour {
		t.Errorf("virtual now = %v, want 1h", r.Now())
	}
}

func TestProcOf(t *testing.T) {
	env := vsim.New()
	r := NewSim(env)
	r.Go("p", func(c Ctx) {
		if ProcOf(c) == nil {
			t.Error("ProcOf returned nil")
		}
		if ProcOf(c).Name() != "p" {
			t.Errorf("proc name = %q", ProcOf(c).Name())
		}
	})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcOfPanicsOnLocalCtx(t *testing.T) {
	r := NewLocal()
	panicked := make(chan bool, 1)
	r.Go("p", func(c Ctx) {
		defer func() { panicked <- recover() != nil }()
		ProcOf(c)
	})
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if !<-panicked {
		t.Error("ProcOf on local ctx should panic")
	}
}

func TestMixedHandleJoinPanics(t *testing.T) {
	sim := NewSim(vsim.New())
	local := NewLocal()
	localH := local.Go("x", func(Ctx) {})
	if err := local.Run(); err != nil {
		t.Fatal(err)
	}
	panicked := false
	sim.Go("p", func(c Ctx) {
		defer func() { panicked = recover() != nil }()
		c.Join(localH)
	})
	_ = sim.Run()
	if !panicked {
		t.Error("cross-runtime join should panic")
	}
}

func TestSimEnvAccessor(t *testing.T) {
	env := vsim.New()
	if NewSim(env).Env() != env {
		t.Error("Env() should return the wrapped environment")
	}
}

func TestLocalChanNegativeCap(t *testing.T) {
	r := NewLocal()
	if r.NewChan("x", -3).Cap() != 0 {
		t.Error("negative capacity should clamp to 0")
	}
}

func TestLocalManyGoroutines(t *testing.T) {
	r := NewLocal()
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		r.Go(fmt.Sprintf("g%d", i), func(c Ctx) { n.Add(1) })
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Errorf("n = %d", n.Load())
	}
}

func TestSendOrDone(t *testing.T) {
	l := NewLocal()
	ch := l.NewChan("c", 1)
	done := make(chan struct{})
	if !SendOrDone(ch, 1, done) {
		t.Fatal("send into free buffer space reported not sent")
	}
	// The buffer is full: the send parks until done closes.
	returned := make(chan bool, 1)
	go func() { returned <- SendOrDone(ch, 2, done) }()
	select {
	case <-returned:
		t.Fatal("send into a full channel returned before done closed")
	case <-time.After(20 * time.Millisecond):
	}
	close(done)
	if <-returned {
		t.Error("send reported delivered though nothing drained the channel")
	}
	if v, _ := ch.Recv(nil); v != 1 || ch.Len() != 0 {
		t.Errorf("channel holds %v then %d more, want exactly the first value", v, ch.Len())
	}
}
