package monitor

import (
	"math"
	"testing"
	"time"
)

func TestFuncSensor(t *testing.T) {
	v := 0.3
	s := FuncSensor(func() float64 { return v })
	if s.Read() != 0.3 {
		t.Error("FuncSensor read wrong")
	}
	v = 0.7
	if s.Read() != 0.7 {
		t.Error("FuncSensor should follow the closure")
	}
}

func TestNoisyDeterministic(t *testing.T) {
	base := FuncSensor(func() float64 { return 0.5 })
	a := NewNoisy(base, 0.1, 0, 1, 42)
	b := NewNoisy(base, 0.1, 0, 1, 42)
	for i := 0; i < 20; i++ {
		if a.Read() != b.Read() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestNoisyClamps(t *testing.T) {
	base := FuncSensor(func() float64 { return 0.5 })
	n := NewNoisy(base, 5, 0, 1, 7) // huge noise
	for i := 0; i < 100; i++ {
		v := n.Read()
		if v < 0 || v > 1 {
			t.Fatalf("escaped clamp: %v", v)
		}
	}
}

func TestNoisyZeroStddevIsExact(t *testing.T) {
	base := FuncSensor(func() float64 { return 0.42 })
	n := NewNoisy(base, 0, 0, 1, 1)
	for i := 0; i < 5; i++ {
		if n.Read() != 0.42 {
			t.Fatal("zero-noise sensor should be exact")
		}
	}
}

func TestNoisyUnbiased(t *testing.T) {
	base := FuncSensor(func() float64 { return 0.5 })
	n := NewNoisy(base, 0.05, 0, 1, 3)
	var sum float64
	const k = 2000
	for i := 0; i < k; i++ {
		sum += n.Read()
	}
	if mean := sum / k; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("noisy mean = %v, want ≈0.5", mean)
	}
}

func TestDetectorMinOver(t *testing.T) {
	d := NewDetector(time.Second)
	d.Observe(3 * time.Second)
	d.Observe(2 * time.Second)
	breached, stat := d.Breached()
	if !breached || stat != 2*time.Second {
		t.Errorf("breached=%v stat=%v", breached, stat)
	}
	// One fast node holds the trigger off: min ≤ Z.
	d.Observe(500 * time.Millisecond)
	breached, stat = d.Breached()
	if breached {
		t.Errorf("min=%v should not breach Z=1s", stat)
	}
}

func TestDetectorMeanOver(t *testing.T) {
	d := &Detector{Z: time.Second, Rule: RuleMeanOver, MinSamples: 1}
	d.Observe(500 * time.Millisecond)
	d.Observe(2500 * time.Millisecond) // mean 1.5s
	breached, stat := d.Breached()
	if !breached || stat != 1500*time.Millisecond {
		t.Errorf("breached=%v stat=%v", breached, stat)
	}
}

func TestDetectorMaxOver(t *testing.T) {
	d := &Detector{Z: time.Second, Rule: RuleMaxOver, MinSamples: 1}
	d.Observe(500 * time.Millisecond)
	if b, _ := d.Breached(); b {
		t.Error("under threshold should not breach")
	}
	d.Observe(1100 * time.Millisecond)
	if b, stat := d.Breached(); !b || stat != 1100*time.Millisecond {
		t.Errorf("breached=%v stat=%v", b, stat)
	}
}

func TestDetectorMinSamples(t *testing.T) {
	d := NewDetector(time.Millisecond)
	d.MinSamples = 3
	d.Observe(time.Second)
	d.Observe(time.Second)
	if b, _ := d.Breached(); b {
		t.Error("should not trigger before MinSamples")
	}
	d.Observe(time.Second)
	if b, _ := d.Breached(); !b {
		t.Error("should trigger at MinSamples")
	}
}

func TestDetectorWindowEvictsOldFastTasks(t *testing.T) {
	// An early fast observation must not pin min(T) down forever: with a
	// window, only the recent round counts (Algorithm 2 collects fresh
	// times each round).
	d := NewDetector(time.Second)
	d.Window = 2
	d.Observe(100 * time.Millisecond) // fast, old
	d.Observe(3 * time.Second)
	d.Observe(4 * time.Second) // fast one evicted now
	if b, stat := d.Breached(); !b || stat != 3*time.Second {
		t.Errorf("breached=%v stat=%v; window did not evict", b, stat)
	}
}

func TestDetectorUnboundedWindowKeepsAll(t *testing.T) {
	d := NewDetector(time.Second)
	d.Observe(100 * time.Millisecond)
	for i := 0; i < 10; i++ {
		d.Observe(5 * time.Second)
	}
	if b, _ := d.Breached(); b {
		t.Error("unbounded detector should keep the fast observation")
	}
}

func TestDetectorDisabled(t *testing.T) {
	d := NewDetector(0)
	d.Observe(time.Hour)
	if b, _ := d.Breached(); b {
		t.Error("Z<=0 should disable the detector")
	}
}

func TestDetectorResetAndCount(t *testing.T) {
	d := NewDetector(time.Second)
	d.Observe(2 * time.Second)
	if d.Count() != 1 {
		t.Errorf("Count = %d", d.Count())
	}
	d.Reset()
	if d.Count() != 0 {
		t.Errorf("Count after reset = %d", d.Count())
	}
	if b, _ := d.Breached(); b {
		t.Error("reset detector should not breach")
	}
}

func TestDetectorRatio(t *testing.T) {
	d := NewDetector(time.Second)
	d.Observe(2 * time.Second)
	if r := d.Ratio(); math.Abs(r-2) > 1e-9 {
		t.Errorf("Ratio = %v, want 2", r)
	}
	if !math.IsNaN((&Detector{Z: 0}).Ratio()) {
		t.Error("disabled detector ratio should be NaN")
	}
}

func TestRuleString(t *testing.T) {
	if RuleMinOver.String() != "min>Z" || RuleMeanOver.String() != "mean>Z" ||
		RuleMaxOver.String() != "max>Z" || Rule(9).String() != "rule(9)" {
		t.Error("rule names wrong")
	}
}
