package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestTrendWindowExtrapolates(t *testing.T) {
	f := NewTrendWindow(5)
	for i := 0; i < 5; i++ {
		f.Observe(float64(2 * i)) // 0,2,4,6,8
	}
	if got := f.Predict(); !almostEq(got, 10, 1e-9) {
		t.Errorf("TrendWindow predict = %v, want 10", got)
	}
}

func TestTrendWindowFewSamples(t *testing.T) {
	f := NewTrendWindow(5)
	if !math.IsNaN(f.Predict()) {
		t.Error("empty trend should predict NaN")
	}
	f.Observe(4)
	if got := f.Predict(); got != 4 {
		t.Errorf("single-sample trend = %v, want 4", got)
	}
}

func TestTrendWindowSlides(t *testing.T) {
	f := NewTrendWindow(3)
	// Old decreasing data is pushed out by an increasing tail.
	for _, x := range []float64{100, 90, 80, 1, 2, 3} {
		f.Observe(x)
	}
	if got := f.Predict(); !almostEq(got, 4, 1e-9) {
		t.Errorf("sliding trend = %v, want 4", got)
	}
	if got := f.Mean(); !almostEq(got, 2, 1e-12) {
		t.Errorf("window mean = %v, want 2", got)
	}
}

func TestForecastersOnNoisyConstant(t *testing.T) {
	// On a noisy constant signal the trend forecast should land near the
	// true mean and beat persistence (predict the last value) on average
	// error.
	rng := rand.New(rand.NewSource(11))
	f := NewTrendWindow(20)
	var trendErr, lastErr, last float64
	n := 0
	for i := 0; i < 400; i++ {
		x := 5 + rng.NormFloat64()
		if p := f.Predict(); !math.IsNaN(p) {
			trendErr += math.Abs(p - x)
			lastErr += math.Abs(last - x)
			n++
		}
		f.Observe(x)
		last = x
	}
	if trendErr >= lastErr {
		t.Errorf("trend (%v) should beat persistence (%v) on noisy constant", trendErr/float64(n), lastErr/float64(n))
	}
	if m := f.Mean(); math.Abs(m-5) > 1 {
		t.Errorf("window mean = %v, want ≈5", m)
	}
}

func TestWindowBasics(t *testing.T) {
	w := NewWindow(3)
	if w.Len() != 0 || !math.IsNaN(w.Mean()) {
		t.Fatal("new window should be empty")
	}
	for _, x := range []float64{1, 2, 3} {
		w.Push(x)
	}
	if w.Len() != 3 || !almostEq(w.Mean(), 2, 1e-12) {
		t.Errorf("at capacity: len %d mean %v", w.Len(), w.Mean())
	}
	w.Push(4) // evicts 1
	if got := w.Mean(); w.Len() != 3 || !almostEq(got, 3, 1e-12) {
		t.Errorf("after eviction: len %d mean %v, want 3 and 3", w.Len(), got)
	}
}

func TestWindowCapacityClamp(t *testing.T) {
	w := NewWindow(0)
	w.Push(1)
	w.Push(2)
	if w.Len() != 1 || w.Mean() != 2 {
		t.Errorf("capacity-1 window misbehaved: len %d mean %v", w.Len(), w.Mean())
	}
}

func TestWindowValuesOrder(t *testing.T) {
	w := NewWindow(4)
	for i := 1; i <= 10; i++ {
		w.Push(float64(i))
	}
	// 7, 8, 9, 10 remain.
	if got := w.Mean(); !almostEq(got, 8.5, 1e-12) {
		t.Errorf("Mean = %v, want 8.5", got)
	}
}
