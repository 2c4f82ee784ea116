package vsim

import (
	"fmt"
	"testing"
	"time"
)

func TestResourceSerialises(t *testing.T) {
	e := New()
	r := NewResource(e, "link", 1)
	var spans []string
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Acquire(p)
			start := e.Now()
			p.Sleep(2 * time.Second)
			r.Release(p)
			spans = append(spans, fmt.Sprintf("%s:%v-%v", p.Name(), start, e.Now()))
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"u0:0s-2s", "u1:2s-4s", "u2:4s-6s"}
	if fmt.Sprint(spans) != fmt.Sprint(want) {
		t.Errorf("spans = %v, want %v", spans, want)
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := New()
	r := NewResource(e, "cpu", 2)
	var finish []time.Duration
	for i := 0; i < 4; i++ {
		e.Go(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Acquire(p)
			p.Sleep(time.Second)
			r.Release(p)
			finish = append(finish, e.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Two run in [0,1), two in [1,2).
	want := []time.Duration{time.Second, time.Second, 2 * time.Second, 2 * time.Second}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceCapacityClampsToOne(t *testing.T) {
	e := New()
	r := NewResource(e, "min", 0)
	var finish []time.Duration
	for i := 0; i < 2; i++ {
		e.Go(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Acquire(p)
			p.Sleep(time.Second)
			r.Release(p)
			finish = append(finish, e.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(finish) != "[1s 2s]" {
		t.Errorf("finish = %v, want [1s 2s]: capacity 0 should clamp to one holder", finish)
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	e := New()
	r := NewResource(e, "r", 1)
	panicked := false
	e.Go("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		r.Release(p)
	})
	_ = e.Run()
	if !panicked {
		t.Error("release of idle resource should panic")
	}
}
