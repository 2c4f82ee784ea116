package engine

// The predictive adaptation policy: where the paper recalibrates only
// after Algorithm 2's threshold trips, this file reweights the membership
// as soon as a worker's *forecast* completion time crosses a margin over
// the rest of the fleet. Each live worker's normalised completion times
// feed a stats.TrendWindow forecaster (a least-squares line over the
// recent window, extrapolated one step), so a
// node that is degrading — climbing external load, thermal throttling, a
// noisy neighbour — is demoted while the detector's statistic is still
// under Z, and Z itself is re-derived from the forecast (with the margin
// as headroom) so the threshold tracks the predicted conditions instead of
// tripping on them. Breach-driven recalibration stays untouched underneath
// as the backstop; a predictive reweight resets the detector round so the
// two policies do not double-fire on the same observations.

import (
	"fmt"
	"math"
	"time"

	"grasp/internal/rt"
	"grasp/internal/stats"
	"grasp/internal/trace"
)

// Predict configures the engine's predictive adaptation policy. The zero
// value of each field selects its default; the policy as a whole is off
// unless StreamOptions.Predict is non-nil.
type Predict struct {
	// Margin is the trigger ratio: a predictive recalibration fires when a
	// worker's forecast normalised time exceeds Margin × the mean recent
	// time of the other live workers (and its own recent mean, so a
	// uniformly slow fleet does not thrash). Values ≤ 1 default to 1.5.
	Margin float64
	// Window is the per-worker trend-window size — how many recent
	// completions the forecast line is fitted over. Default RecalWindow.
	Window int
	// MinSamples is how many completions a worker must report before its
	// forecast is trusted. Default Window.
	MinSamples int
	// Cooldown is the minimum number of fleet-wide completions between
	// predictive recalibrations, so one degrading trend produces one
	// reweight rather than one per completion. Default 2 × the initial
	// worker count.
	Cooldown int
}

// predictor is the Core's predictive state, nil when the policy is off —
// which keeps the cost on the Observe hot path to a single nil check.
type predictor struct {
	cfg        Predict
	probes     map[int]*stats.TrendWindow // per-worker normalised completion times
	seen       map[int]int                // completions per worker
	since      int                        // completions since the last predictive reweight
	onForecast func(worker int, forecast time.Duration, triggered bool)
}

// newPredictor normalises the policy's defaults against the run shape.
func newPredictor(opts StreamOptions, workers int, recalWindow int) *predictor {
	cfg := *opts.Predict
	if cfg.Margin <= 1 {
		cfg.Margin = 1.5
	}
	if cfg.Window < 2 {
		cfg.Window = recalWindow
	}
	if cfg.MinSamples < 2 {
		cfg.MinSamples = cfg.Window
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 2 * workers
		if cfg.Cooldown < 2 {
			cfg.Cooldown = 2
		}
	}
	return &predictor{
		cfg:        cfg,
		probes:     make(map[int]*stats.TrendWindow, workers),
		seen:       make(map[int]int, workers),
		onForecast: opts.OnForecast,
	}
}

// fleetRef returns the mean of the recent means of the live workers other
// than v — the reference a forecast is compared against. ok is false when
// no other worker has reported yet.
func (co *Core) fleetRef(v int) (float64, bool) {
	ref, n := 0.0, 0
	for _, o := range co.workers {
		if o == v {
			continue
		}
		if win := co.recent[o]; win != nil && win.Len() > 0 {
			ref += win.Mean()
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return ref / float64(n), true
}

// observeForecast feeds one completion into worker w's probe and fires a
// predictive recalibration when any live worker's forecast trend crosses
// the margin. Called from Observe for every completion while the policy is
// on — breaching completions still update the probes (a straggler's trend
// must stay current precisely when it is straggling) but never trigger:
// the reactive path owns breach handling.
func (co *Core) observeForecast(c rt.Ctx, w int, norm time.Duration, breached bool) {
	p := co.pred
	probe := p.probes[w]
	if probe == nil {
		probe = stats.NewTrendWindow(p.cfg.Window)
		p.probes[w] = probe
	}
	probe.Observe(norm.Seconds())
	p.seen[w]++
	p.since++

	// Trigger scan: the worst offender across the whole live fleet, not
	// just the completing worker — a degrading node completes ever less
	// often, so its trigger usually rides in on a healthy node's
	// completion.
	cand, fcand, candRatio := -1, 0.0, 0.0
	if !breached && p.since >= p.cfg.Cooldown {
		for _, v := range co.workers {
			pv := p.probes[v]
			if pv == nil || p.seen[v] < p.cfg.MinSamples || !co.Alive(v) {
				continue
			}
			f := pv.Predict()
			if math.IsNaN(f) || f <= 0 || f <= pv.Mean() {
				continue
			}
			ref, ok := co.fleetRef(v)
			if !ok || ref <= 0 {
				continue
			}
			if f > ref*p.cfg.Margin && f/ref > candRatio {
				cand, fcand, candRatio = v, f, f/ref
			}
		}
	}

	if p.seen[w] >= p.cfg.MinSamples && co.Alive(w) {
		if fw := probe.Predict(); !math.IsNaN(fw) && fw > 0 {
			fdur := time.Duration(fw * float64(time.Second))
			if p.seen[w] == p.cfg.MinSamples && co.log != nil {
				if ref, ok := co.fleetRef(w); ok && ref > 0 {
					co.log.Append(trace.Event{
						At: c.Now(), Kind: trace.KindForecast,
						Node: co.pf.WorkerName(w), Dur: fdur, Value: fw / ref,
						Msg: fmt.Sprintf("forecast %.3gx fleet mean (margin %.3g)", fw/ref, p.cfg.Margin),
					})
				}
			}
			if p.onForecast != nil {
				p.onForecast(w, fdur, cand == w)
			}
		}
	}
	if cand < 0 {
		return
	}
	p.since = 0
	fdur := time.Duration(fcand * float64(time.Second))
	if co.log != nil {
		co.log.Append(trace.Event{
			At: c.Now(), Kind: trace.KindForecast,
			Node: co.pf.WorkerName(cand), Dur: fdur, Value: candRatio,
			Msg: fmt.Sprintf("forecast %.3gx fleet mean (margin %.3g): predictive recalibration", candRatio, p.cfg.Margin),
		})
	}
	if cand != w && p.onForecast != nil {
		p.onForecast(cand, fdur, true)
	}
	u := co.forecastReweight()
	if u.Weights == nil {
		return
	}
	u.ResetDetector = true
	// Pre-breach threshold refresh: Algorithm 2 recomputes Z only after a
	// breach has fed back to calibration; the predictive policy re-derives
	// it from the forecast first, so the detector tracks the predicted
	// conditions instead of tripping on them one task later. The threshold
	// is only ever raised — recovery is left to the caller's own
	// recalibrations (the service re-installs Z on its control channel).
	if co.det != nil && co.det.Z > 0 {
		if z := time.Duration(p.cfg.Margin * fcand * float64(time.Second)); z > co.det.Z {
			u.Z = z
		}
	}
	co.applyUpdate(c, u, false, true)
}

// forecastReweight reweights the live membership by inverse forecast time
// — the predictive analogue of reweightByRecentMean. Workers without a
// warm forecast fall back to their recent mean, then to the neutral fill.
func (co *Core) forecastReweight() Update {
	est := make(map[int]time.Duration, len(co.workers))
	for _, w := range co.workers {
		if probe := co.pred.probes[w]; probe != nil && co.pred.seen[w] >= co.pred.cfg.MinSamples {
			if f := probe.Predict(); !math.IsNaN(f) && f > 0 {
				est[w] = time.Duration(f * float64(time.Second))
				continue
			}
		}
		if win := co.recent[w]; win != nil && win.Len() > 0 {
			est[w] = time.Duration(win.Mean() * float64(time.Second))
		}
	}
	return co.reweightByRecentMean(est)
}
