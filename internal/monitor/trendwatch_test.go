package monitor

import (
	"testing"
)

// rampSensor emits an arithmetic ramp: v0, v0+step, v0+2·step, ...
type rampSensor struct {
	v, step float64
}

func (r *rampSensor) Read() float64 {
	v := r.v
	r.v += r.step
	return v
}

func TestTrendWatchFiresOnRisingTrend(t *testing.T) {
	s := &rampSensor{v: 0.1, step: 0.1}
	tw := NewTrendWatch(0.6, 1, 3, []int{0}, []Sensor{s})
	fired := -1
	for i := 0; i < 10; i++ {
		tw.Sample()
		if tw.Triggered() {
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatal("a steady ramp toward the bound must fire")
	}
	// The trend predicts one step ahead: firing must precede the raw
	// reading itself reaching the bound (sample index 5 reads 0.6).
	if fired >= 5 {
		t.Errorf("fired at sample %d; the forecast should beat the raw crossing at 5", fired)
	}
}

func TestTrendWatchStaysQuietOnFlatLoad(t *testing.T) {
	s := FuncSensor(func() float64 { return 0.3 })
	tw := NewTrendWatch(0.6, 1, 4, []int{0}, []Sensor{s})
	for i := 0; i < 50; i++ {
		tw.Sample()
	}
	if tw.Triggered() {
		t.Error("flat load below the bound must not fire")
	}
}

func TestTrendWatchMinWorkersQuorum(t *testing.T) {
	rising := &rampSensor{v: 0.2, step: 0.2}
	flat := FuncSensor(func() float64 { return 0.1 })
	tw := NewTrendWatch(0.5, 2, 3, []int{0, 1}, []Sensor{rising, flat})
	for i := 0; i < 10; i++ {
		tw.Sample()
	}
	if tw.Triggered() {
		t.Error("one of two rising must not satisfy a quorum of 2")
	}
}

func TestTrendWatchLatches(t *testing.T) {
	s := &rampSensor{v: 0.5, step: 0.3}
	tw := NewTrendWatch(0.6, 1, 3, []int{0}, []Sensor{s})
	for i := 0; i < 5; i++ {
		tw.Sample()
	}
	if !tw.Triggered() {
		t.Fatal("should have fired")
	}
	// Latches even if the signal falls back.
	s.v, s.step = 0, 0
	tw.Sample()
	if !tw.Triggered() {
		t.Error("trigger must latch")
	}
}

func TestTrendWatchSampleReturnsOverCount(t *testing.T) {
	high := FuncSensor(func() float64 { return 0.9 })
	low := FuncSensor(func() float64 { return 0.1 })
	tw := NewTrendWatch(0.5, 3, 2, []int{0, 1, 2}, []Sensor{high, high, low})
	over := 0
	for i := 0; i < 3; i++ {
		over = tw.Sample()
	}
	if over != 2 {
		t.Errorf("over = %d, want 2", over)
	}
	if tw.Triggered() {
		t.Error("quorum of 3 not met")
	}
}
