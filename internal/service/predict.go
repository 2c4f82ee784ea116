package service

// The service half of the predictive policy. The engine (predict.go in
// internal/skel/engine) forecasts per-worker completion times; this file
// forecasts each predictive job's queue depth (submitted − completed: the
// at most window + 1 tasks the engine and its hand-off slot hold, plus
// every task committed but not yet admitted, i.e. sitting in a blocked
// push) through the same stats.TrendWindow forecaster and drives three
// actuators from it:
//
//   - share autoscale: a local job whose forecast outgrows its window has
//     its fair share boosted through alloc.SetShare (capped, with
//     hysteresis), pulling worker slots from calmer jobs — and released
//     back when the queue drains;
//   - node demand: a cluster job instead records advisory demand for
//     extra worker nodes with the coordinator (SetWanted), surfaced on
//     /api/v1/nodes and the cluster_nodes_wanted gauge for an external
//     autoscaler to act on;
//   - admission control: once the forecast exceeds ShedFactor × window —
//     with the default factor 2, a full window plus as much again waiting
//     in blocked pushes — the job sheds pushes with ErrOverloaded (HTTP
//     429 + Retry-After) instead of letting backpressure stall the daemon,
//     resuming at half the bound so admission does not flap.

import (
	"fmt"
	"math"
	"time"

	"grasp/internal/stats"
	"grasp/internal/trace"
)

const (
	// forecastWindow is how many queue-depth samples the trend line is
	// fitted over.
	forecastWindow = 8
	// maxShareBoost caps the autoscaler's share multiplier so one hot job
	// cannot starve the rest of the partition.
	maxShareBoost = 4
	// maxNodesWanted caps one job's advisory node demand.
	maxNodesWanted = 8
	// shedRetryAfter is the Retry-After hint a shed push carries.
	shedRetryAfter = time.Second
)

// forecastLoop samples a predictive job's queue depth until the job (or
// the service) is done, adjusting share/node demand and the admission
// state from the forecast. One goroutine per predictive job, started by
// startRunner.
func (s *Service) forecastLoop(j *Job) {
	depth := stats.NewTrendWindow(forecastWindow)
	ticker := time.NewTicker(s.cfg.ForecastEvery)
	defer ticker.Stop()
	if j.pool != nil && s.cfg.Cluster != nil {
		defer s.cfg.Cluster.SetWanted(j.name, 0)
	}
	for {
		select {
		case <-j.done:
			return
		case <-s.closed:
			return
		case <-ticker.C:
		}
		s.forecastStep(j, depth, j.Status().InFlight)
	}
}

// forecastStep takes one queue-depth sample and acts on the forecast. A
// trend line through the first samples of a job that is only filling its
// window says nothing about load — [0, 12] extrapolates to 24, and the
// leading 0 still tilts [0, 12, 12, 12] to 18 — so nothing is decided
// until half the forecast window has been seen, and until the window is
// full the queue is judged by its level, not its slope.
func (s *Service) forecastStep(j *Job, depth *stats.TrendWindow, inFlight int) {
	depth.Observe(float64(inFlight))
	if depth.Len() < forecastWindow/2 {
		return
	}
	f := float64(inFlight)
	if depth.Len() == forecastWindow {
		f = math.Max(depth.Predict(), 0)
	}
	window := float64(j.spec.Window)
	shedBound := s.cfg.ShedFactor * window
	baseShare := j.spec.share()

	// Admission control with hysteresis: shed above the bound, resume
	// below half of it.
	j.mu.Lock()
	j.queueForecast = f
	was := j.shedding
	if shedBound > 0 {
		if !was && f > shedBound {
			j.shedding = true
		} else if was && f < shedBound/2 {
			j.shedding = false
		}
	}
	shedding := j.shedding
	j.mu.Unlock()
	if shedding != was {
		msg := "admission control: shedding (forecast over bound)"
		if !shedding {
			msg = "admission control: accepting (queue drained)"
			s.reg.Counter("service_shed_recoveries_total").Inc()
		} else {
			s.reg.Counter("service_shed_activations_total").Inc()
		}
		j.tr.Append(trace.Event{At: s.l.Now(), Kind: trace.KindForecast, Value: f, Msg: msg})
		s.log.Info("admission control state change",
			"job", j.name, "shedding", shedding, "queue_forecast", f, "bound", shedBound)
	}

	// Share autoscale (local placement): boost toward forecast/window,
	// capped; release back to the spec share when the queue calms. The
	// 10% deadband keeps the allocator from rebalancing on noise.
	boost := 1.0
	if window > 0 && f > window {
		boost = math.Min(f/window, maxShareBoost)
	}
	target := baseShare * boost
	j.mu.Lock()
	cur := j.effShare
	j.mu.Unlock()
	if target != cur && (boost == 1 || math.Abs(target-cur) > 0.1*cur) {
		if j.pool == nil {
			s.alloc.SetShare(j.name, target)
		}
		j.mu.Lock()
		j.effShare = target
		j.mu.Unlock()
		j.tr.Append(trace.Event{
			At: s.l.Now(), Kind: trace.KindForecast, Value: f,
			Msg: fmt.Sprintf("share autoscaled to %.2f", target),
		})
		s.log.Info("share autoscaled",
			"job", j.name, "share", target, "queue_forecast", f)
	}

	// Node demand (cluster placement): advisory scale-out request,
	// cleared when the queue forecast fits the window again.
	if j.pool != nil && s.cfg.Cluster != nil {
		extra := 0
		if window > 0 && f > window {
			extra = int(math.Ceil(f/window)) - 1
			if extra > maxNodesWanted {
				extra = maxNodesWanted
			}
		}
		s.cfg.Cluster.SetWanted(j.name, extra)
	}
}
