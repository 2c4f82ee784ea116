package monitor

import (
	"sync"

	"grasp/internal/stats"
)

// TrendWatch is the proactive counterpart of the Detector: instead of
// waiting for task times to degrade (reactive — the damage is already in
// the makespan), it watches resource sensors, fits a short linear trend to
// each, and triggers when the forecast crosses a bound on enough workers.
//
// The paper's execution phase "monitors periodically the grid conditions";
// TrendWatch is that periodic monitor armed with the forecasting layer
// (stats.TrendWindow), letting the skeleton recalibrate ahead of the
// slowdown rather than after it. E19 quantifies the difference.
//
// TrendWatch is safe for concurrent use: the sampler runs in its own
// process while the skeleton polls Triggered from the farmer.
type TrendWatch struct {
	// Bound is the forecasted sensor level that counts as pressure.
	Bound float64
	// MinWorkers is how many watched workers must forecast above Bound to
	// trigger (default 1).
	MinWorkers int

	mu        sync.Mutex
	workers   []int
	sensors   []Sensor
	forecasts []*stats.TrendWindow
	fired     bool
}

// NewTrendWatch builds a watch over the given sensors (parallel to
// workers) with a trend window of w samples.
func NewTrendWatch(bound float64, minWorkers, w int, workers []int, sensors []Sensor) *TrendWatch {
	if minWorkers < 1 {
		minWorkers = 1
	}
	if w < 2 {
		w = 4
	}
	tw := &TrendWatch{Bound: bound, MinWorkers: minWorkers, workers: workers, sensors: sensors}
	tw.forecasts = make([]*stats.TrendWindow, len(sensors))
	for i := range tw.forecasts {
		tw.forecasts[i] = stats.NewTrendWindow(w)
	}
	return tw
}

// Sample reads every sensor once and feeds the forecasters, then evaluates
// the trigger. It returns the number of workers currently forecast above
// the bound.
func (tw *TrendWatch) Sample() int {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	over := 0
	for i, s := range tw.sensors {
		tw.forecasts[i].Observe(s.Read())
		if p := tw.forecasts[i].Predict(); p >= tw.Bound {
			over++
		}
	}
	if over >= tw.MinWorkers {
		tw.fired = true
	}
	return over
}

// Triggered reports whether the watch has fired. It latches: once fired it
// stays fired.
func (tw *TrendWatch) Triggered() bool {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return tw.fired
}
