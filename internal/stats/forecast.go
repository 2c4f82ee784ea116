package stats

import "math"

// TrendWindow is the forecaster of the monitoring layer, in the style of
// the Network Weather Service: it predicts the next value of a scalar time
// series by fitting a least-squares line to the last W observations and
// extrapolating one step ahead. With fewer than two observations it falls
// back to persistence.
type TrendWindow struct {
	W   int
	buf []float64 // oldest first
}

// NewTrendWindow returns a linear-trend forecaster over a window of w
// samples (minimum 2).
func NewTrendWindow(w int) *TrendWindow {
	if w < 2 {
		w = 2
	}
	return &TrendWindow{W: w}
}

// Observe records the next sample of the series.
func (f *TrendWindow) Observe(x float64) {
	f.buf = append(f.buf, x)
	if len(f.buf) > f.W {
		f.buf = f.buf[1:]
	}
}

// Len returns how many samples the window holds, at most W.
func (f *TrendWindow) Len() int { return len(f.buf) }

// Mean returns the mean of the samples in the window (NaN when empty).
func (f *TrendWindow) Mean() float64 { return Mean(f.buf) }

// Predict returns the forecast for the next (unseen) sample, NaN before
// any observation.
func (f *TrendWindow) Predict() float64 {
	n := len(f.buf)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return f.buf[0]
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	fit, err := Linregress(xs, f.buf)
	if err != nil {
		return f.buf[n-1]
	}
	return fit.Predict(float64(n))
}

// Window is a fixed-capacity sliding window of float64 samples with O(1)
// descriptive queries used by the monitoring layer.
type Window struct {
	cap  int
	buf  []float64
	next int
}

// NewWindow returns a sliding window holding the most recent n samples
// (minimum 1).
func NewWindow(n int) *Window {
	if n < 1 {
		n = 1
	}
	return &Window{cap: n, buf: make([]float64, 0, n)}
}

// Push appends a sample, evicting the oldest when full.
func (w *Window) Push(x float64) {
	if len(w.buf) < w.cap {
		w.buf = append(w.buf, x)
		return
	}
	w.buf[w.next] = x
	w.next = (w.next + 1) % w.cap
}

// Len returns the number of samples currently held.
func (w *Window) Len() int { return len(w.buf) }

// Mean returns the mean of the window contents (NaN when empty).
func (w *Window) Mean() float64 { return Mean(w.buf) }
