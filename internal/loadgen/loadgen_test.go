package loadgen

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestConstant(t *testing.T) {
	c := NewConstant(0.5)
	if c.At(0) != 0.5 || c.At(time.Hour) != 0.5 {
		t.Error("constant trace not constant")
	}
	if _, ok := c.NextChange(0); ok {
		t.Error("constant trace should never change")
	}
}

func TestClamping(t *testing.T) {
	if NewConstant(-1).At(0) != 0 {
		t.Error("negative load not clamped to 0")
	}
	if NewConstant(2).At(0) != MaxLoad {
		t.Error("load > MaxLoad not clamped")
	}
}

func TestStep(t *testing.T) {
	s := NewStep(10*time.Second, 0.1, 0.7)
	if s.At(0) != 0.1 || s.At(9*time.Second) != 0.1 {
		t.Error("before step wrong")
	}
	if s.At(10*time.Second) != 0.7 || s.At(time.Hour) != 0.7 {
		t.Error("after step wrong")
	}
	nc, ok := s.NextChange(0)
	if !ok || nc != 10*time.Second {
		t.Errorf("NextChange = %v %v", nc, ok)
	}
	if _, ok := s.NextChange(10 * time.Second); ok {
		t.Error("no change after the step")
	}
}

func TestStepDegenerate(t *testing.T) {
	s := NewStep(5*time.Second, 0.3, 0.3)
	if _, ok := s.NextChange(0); ok {
		t.Error("equal before/after step should report no change")
	}
}

func TestPiecewise(t *testing.T) {
	pw := NewPiecewise([]Segment{
		{Start: 0, Load: 0.1},
		{Start: 10 * time.Second, Load: 0.5},
		{Start: 20 * time.Second, Load: 0.2},
	})
	cases := []struct {
		t    time.Duration
		want float64
	}{
		{0, 0.1}, {5 * time.Second, 0.1}, {10 * time.Second, 0.5},
		{15 * time.Second, 0.5}, {20 * time.Second, 0.2}, {time.Hour, 0.2},
	}
	for _, c := range cases {
		if got := pw.At(c.t); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	nc, ok := pw.NextChange(3 * time.Second)
	if !ok || nc != 10*time.Second {
		t.Errorf("NextChange = %v %v", nc, ok)
	}
	nc, ok = pw.NextChange(10 * time.Second)
	if !ok || nc != 20*time.Second {
		t.Errorf("NextChange = %v %v", nc, ok)
	}
	if _, ok := pw.NextChange(25 * time.Second); ok {
		t.Error("should be constant at tail")
	}
}

func TestPiecewiseNormalisation(t *testing.T) {
	// Unsorted input, duplicate starts, equal adjacent loads.
	pw := NewPiecewise([]Segment{
		{Start: 20 * time.Second, Load: 0.2},
		{Start: 0, Load: 0.1},
		{Start: 0, Load: 0.3},                // later spec wins
		{Start: 10 * time.Second, Load: 0.3}, // merges with previous value
	})
	segs := pw.segs
	if len(segs) != 2 {
		t.Fatalf("normalised to %d segments: %v", len(segs), segs)
	}
	if segs[0].Load != 0.3 || segs[1].Load != 0.2 {
		t.Errorf("segments = %v", segs)
	}
}

func TestPiecewiseEmpty(t *testing.T) {
	pw := NewPiecewise(nil)
	if pw.At(time.Hour) != 0 {
		t.Error("empty piecewise should be zero load")
	}
	if _, ok := pw.NextChange(0); ok {
		t.Error("empty piecewise should never change")
	}
}

func TestPiecewiseBeforeFirstSegment(t *testing.T) {
	pw := NewPiecewise([]Segment{{Start: 10 * time.Second, Load: 0.4}})
	if pw.At(0) != 0.4 {
		t.Error("value before first segment should be first segment's load")
	}
}

func TestSquareWave(t *testing.T) {
	w := NewSquareWave(0.1, 0.8, 2*time.Second, 3*time.Second, 0)
	cases := []struct {
		t    time.Duration
		want float64
	}{
		{0, 0.8}, {time.Second, 0.8}, {2 * time.Second, 0.1},
		{4 * time.Second, 0.1}, {5 * time.Second, 0.8}, {7 * time.Second, 0.1},
	}
	for _, c := range cases {
		if got := w.At(c.t); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestSquareWavePhase(t *testing.T) {
	w := NewSquareWave(0, 0.5, time.Second, time.Second, 10*time.Second)
	if w.At(5*time.Second) != 0 {
		t.Error("before phase should be low")
	}
	if w.At(10*time.Second) != 0.5 {
		t.Error("at phase should be high")
	}
	nc, ok := w.NextChange(0)
	if !ok || nc != 10*time.Second {
		t.Errorf("NextChange = %v %v", nc, ok)
	}
}

func TestSquareWaveNextChangeConsistent(t *testing.T) {
	w := NewSquareWave(0.1, 0.9, 2*time.Second, 3*time.Second, time.Second)
	// Walking NextChange must visit strictly increasing times where the
	// value actually changes.
	cur := time.Duration(0)
	for i := 0; i < 20; i++ {
		nc, ok := w.NextChange(cur)
		if !ok {
			t.Fatal("square wave should change forever")
		}
		if nc <= cur {
			t.Fatalf("NextChange not increasing: %v -> %v", cur, nc)
		}
		if w.At(nc) == w.At(cur) {
			t.Fatalf("no actual change at %v", nc)
		}
		cur = nc
	}
}

func TestSquareWaveDegenerate(t *testing.T) {
	w := NewSquareWave(0.5, 0.5, time.Second, time.Second, 0)
	if _, ok := w.NextChange(0); ok {
		t.Error("equal low/high wave should never change")
	}
}

func TestRandomWalkDeterministic(t *testing.T) {
	a := RandomWalk(42, 0.3, 0.1, time.Second, time.Minute)
	b := RandomWalk(42, 0.3, 0.1, time.Second, time.Minute)
	for ts := time.Duration(0); ts <= time.Minute; ts += 500 * time.Millisecond {
		if a.At(ts) != b.At(ts) {
			t.Fatalf("same seed diverged at %v", ts)
		}
	}
	c := RandomWalk(43, 0.3, 0.1, time.Second, time.Minute)
	same := true
	for ts := time.Duration(0); ts <= time.Minute; ts += time.Second {
		if a.At(ts) != c.At(ts) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical walks")
	}
}

func TestRandomWalkBounded(t *testing.T) {
	pw := RandomWalk(7, 0.9, 0.5, time.Second, 2*time.Minute)
	for ts := time.Duration(0); ts <= 2*time.Minute; ts += 250 * time.Millisecond {
		v := pw.At(ts)
		if v < 0 || v > MaxLoad {
			t.Fatalf("walk escaped bounds at %v: %v", ts, v)
		}
	}
}

func TestMarkovOnOff(t *testing.T) {
	pw := MarkovOnOff(5, 0.05, 0.9, 10*time.Second, 5*time.Second, 5*time.Minute)
	seen := map[float64]bool{}
	for ts := time.Duration(0); ts <= 5*time.Minute; ts += time.Second {
		seen[pw.At(ts)] = true
	}
	if !seen[0.05] || !seen[0.9] {
		t.Errorf("on/off trace should visit both levels, saw %v", seen)
	}
}

func TestSpikes(t *testing.T) {
	pw := Spikes(0.1, 0.7, 2, time.Second, time.Minute)
	// Spikes at 20s and 40s.
	if pw.At(0) != 0.1 {
		t.Error("base load wrong")
	}
	const tol = 1e-9
	if v := pw.At(20 * time.Second); v < 0.8-tol || v > 0.8+tol {
		t.Errorf("spike 1 = %v", v)
	}
	if pw.At(21*time.Second+500*time.Millisecond) != 0.1 {
		t.Error("load should recover after spike width")
	}
	if v := pw.At(40 * time.Second); v < 0.8-tol || v > 0.8+tol {
		t.Errorf("spike 2 = %v", v)
	}
}

func TestSpikesDegenerate(t *testing.T) {
	pw := Spikes(0.2, 0.5, 0, time.Second, time.Minute)
	for ts := time.Duration(0); ts < time.Minute; ts += time.Second {
		if pw.At(ts) != 0.2 {
			t.Fatal("zero spikes should be constant base")
		}
	}
}

// Property: every generator's output is always within [0, MaxLoad] and
// NextChange, when reported, is strictly in the future at a point where the
// value really differs.
func TestPropTraceContract(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		traces := []Trace{
			NewConstant(rng.Float64() * 1.5),
			NewStep(time.Duration(rng.Intn(60))*time.Second, rng.Float64(), rng.Float64()),
			NewSquareWave(rng.Float64()*0.4, 0.5+rng.Float64()*0.4,
				time.Duration(1+rng.Intn(5))*time.Second, time.Duration(1+rng.Intn(5))*time.Second, 0),
			RandomWalk(seed, rng.Float64(), 0.2, time.Second, time.Minute),
			MarkovOnOff(seed, rng.Float64()*0.2, 0.5+rng.Float64()*0.4,
				5*time.Second, 5*time.Second, time.Minute),
			Spikes(rng.Float64()*0.3, rng.Float64()*0.6, rng.Intn(5), time.Second, time.Minute),
		}
		for _, tr := range traces {
			cur := time.Duration(0)
			for i := 0; i < 50; i++ {
				v := tr.At(cur)
				if v < 0 || v > MaxLoad {
					return false
				}
				nc, ok := tr.NextChange(cur)
				if !ok {
					break
				}
				if nc <= cur {
					return false
				}
				if tr.At(nc) == tr.At(cur) {
					return false
				}
				cur = nc
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
