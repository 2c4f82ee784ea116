package vsim

import (
	"fmt"
	"testing"
	"time"
)

func TestUnbufferedHandoff(t *testing.T) {
	e := New()
	ch := NewChan[string](e, "ch", 0)
	var got string
	e.Go("recv", func(p *Proc) {
		v, ok := ch.Recv(p)
		if !ok {
			t.Error("ok = false")
		}
		got = v
	})
	e.Go("send", func(p *Proc) {
		ch.Send(p, "hello")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Errorf("got %q", got)
	}
}

func TestUnbufferedSenderBlocksUntilReceiver(t *testing.T) {
	e := New()
	ch := NewChan[int](e, "ch", 0)
	var sendDone, recvAt time.Duration
	e.Go("send", func(p *Proc) {
		ch.Send(p, 1)
		sendDone = e.Now()
	})
	e.Go("recv", func(p *Proc) {
		p.Sleep(5 * time.Second)
		ch.Recv(p)
		recvAt = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if recvAt != 5*time.Second {
		t.Errorf("recvAt = %v", recvAt)
	}
	if sendDone != 5*time.Second {
		t.Errorf("sender resumed at %v, want 5s", sendDone)
	}
}

func TestBufferedSendNoBlock(t *testing.T) {
	e := New()
	ch := NewChan[int](e, "ch", 2)
	var filledAt time.Duration
	e.Go("send", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2)
		filledAt = e.Now()
		ch.Send(p, 3) // blocks until receiver at t=7
	})
	e.Go("recv", func(p *Proc) {
		p.Sleep(7 * time.Second)
		for i := 0; i < 3; i++ {
			ch.Recv(p)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if filledAt != 0 {
		t.Errorf("buffered sends blocked: %v", filledAt)
	}
}

func TestFIFOOrderAcrossSenders(t *testing.T) {
	e := New()
	ch := NewChan[int](e, "ch", 0)
	var got []int
	for i := 0; i < 4; i++ {
		v := i
		e.Go(fmt.Sprintf("s%d", i), func(p *Proc) { ch.Send(p, v) })
	}
	e.Go("recv", func(p *Proc) {
		p.Sleep(time.Second)
		for i := 0; i < 4; i++ {
			v, _ := ch.Recv(p)
			got = append(got, v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 1 2 3]" {
		t.Errorf("got %v", got)
	}
}

func TestCloseWakesReceivers(t *testing.T) {
	e := New()
	ch := NewChan[int](e, "ch", 0)
	oks := make([]bool, 2)
	for i := 0; i < 2; i++ {
		idx := i
		e.Go(fmt.Sprintf("r%d", i), func(p *Proc) {
			_, ok := ch.Recv(p)
			oks[idx] = ok
		})
	}
	e.Go("closer", func(p *Proc) {
		p.Sleep(time.Second)
		ch.Close(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if oks[0] || oks[1] {
		t.Errorf("oks = %v, want both false", oks)
	}
}

func TestRecvDrainsBufferAfterClose(t *testing.T) {
	e := New()
	ch := NewChan[int](e, "ch", 4)
	var got []int
	var lastOK bool
	e.Go("p", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2)
		ch.Close(p)
		for {
			v, ok := ch.Recv(p)
			if !ok {
				lastOK = false
				break
			}
			got = append(got, v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2]" || lastOK {
		t.Errorf("got %v lastOK %v", got, lastOK)
	}
}

func TestSendOnClosedPanics(t *testing.T) {
	e := New()
	ch := NewChan[int](e, "ch", 1)
	panicked := false
	e.Go("p", func(p *Proc) {
		ch.Close(p)
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		ch.Send(p, 1)
	})
	_ = e.Run()
	if !panicked {
		t.Error("send on closed should panic")
	}
}

func TestCloseOfClosedPanics(t *testing.T) {
	e := New()
	ch := NewChan[int](e, "ch", 0)
	panicked := false
	e.Go("p", func(p *Proc) {
		ch.Close(p)
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		ch.Close(p)
	})
	_ = e.Run()
	if !panicked {
		t.Error("double close should panic")
	}
}

func TestCloseUnderParkedSenderPanicsSender(t *testing.T) {
	e := New()
	ch := NewChan[int](e, "ch", 0)
	panicked := false
	e.Go("sender", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		ch.Send(p, 1) // parks; closer will close under us
	})
	e.Go("closer", func(p *Proc) {
		p.Sleep(time.Second)
		ch.Close(p)
	})
	_ = e.Run()
	if !panicked {
		t.Error("parked sender should panic when channel closes")
	}
}

func TestTrySend(t *testing.T) {
	e := New()
	ch := NewChan[int](e, "ch", 1)
	var results []bool
	e.Go("p", func(p *Proc) {
		results = append(results, ch.TrySend(p, 1)) // buffered: true
		results = append(results, ch.TrySend(p, 2)) // full: false
		ch.Recv(p)
		results = append(results, ch.TrySend(p, 3)) // space again: true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(results) != "[true false true]" {
		t.Errorf("results = %v", results)
	}
}

func TestTrySendToWaitingReceiver(t *testing.T) {
	e := New()
	ch := NewChan[int](e, "ch", 0)
	var got int
	e.Go("recv", func(p *Proc) {
		got, _ = ch.Recv(p)
	})
	e.Go("send", func(p *Proc) {
		p.Sleep(time.Second)
		if !ch.TrySend(p, 42) {
			t.Error("TrySend to waiting receiver should succeed")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("got %d", got)
	}
}

func TestTryRecv(t *testing.T) {
	e := New()
	ch := NewChan[int](e, "ch", 1)
	e.Go("p", func(p *Proc) {
		if _, _, done := ch.TryRecv(p); done {
			t.Error("TryRecv on empty open channel should not complete")
		}
		ch.Send(p, 7)
		v, ok, done := ch.TryRecv(p)
		if !done || !ok || v != 7 {
			t.Errorf("TryRecv = %v %v %v", v, ok, done)
		}
		ch.Close(p)
		_, ok, done = ch.TryRecv(p)
		if !done || ok {
			t.Error("TryRecv on closed empty channel should complete with ok=false")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestParkedSenderRefillsBuffer(t *testing.T) {
	e := New()
	ch := NewChan[int](e, "ch", 1)
	var got []int
	e.Go("s1", func(p *Proc) { ch.Send(p, 1) })
	e.Go("s2", func(p *Proc) { ch.Send(p, 2) }) // parks: buffer full
	e.Go("recv", func(p *Proc) {
		p.Sleep(time.Second)
		for i := 0; i < 2; i++ {
			v, _ := ch.Recv(p)
			got = append(got, v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2]" {
		t.Errorf("got %v", got)
	}
}

func TestChanAccessors(t *testing.T) {
	e := New()
	ch := NewChan[int](e, "mych", 3)
	if ch.Cap() != 3 || ch.Len() != 0 {
		t.Errorf("accessors wrong: %d %d", ch.Cap(), ch.Len())
	}
	e.Go("p", func(p *Proc) {
		ch.Send(p, 1)
		if ch.Len() != 1 {
			t.Errorf("Len = %d", ch.Len())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Negative capacity clamps to zero.
	if NewChan[int](e, "x", -5).Cap() != 0 {
		t.Error("negative cap not clamped")
	}
}

func TestPipelineOfProcs(t *testing.T) {
	// Three-stage pipeline over channels: values must arrive in order,
	// transformed, with proper close propagation.
	e := New()
	c1 := NewChan[int](e, "c1", 1)
	c2 := NewChan[int](e, "c2", 1)
	var out []int
	e.Go("stage1", func(p *Proc) {
		for i := 1; i <= 5; i++ {
			p.Sleep(time.Millisecond)
			c1.Send(p, i)
		}
		c1.Close(p)
	})
	e.Go("stage2", func(p *Proc) {
		for {
			v, ok := c1.Recv(p)
			if !ok {
				break
			}
			p.Sleep(2 * time.Millisecond)
			c2.Send(p, v*v)
		}
		c2.Close(p)
	})
	e.Go("stage3", func(p *Proc) {
		for {
			v, ok := c2.Recv(p)
			if !ok {
				break
			}
			out = append(out, v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(out) != "[1 4 9 16 25]" {
		t.Errorf("out = %v", out)
	}
}
