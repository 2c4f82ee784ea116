// Package loadgen models the external pressure a non-dedicated grid node
// experiences from other users' jobs: the defining characteristic of the
// computational-grid setting the paper targets.
//
// A Trace is a piecewise-constant function of virtual time returning the
// external load fraction ℓ(t) ∈ [0, 1): the fraction of the node's capacity
// consumed by competing work, so the effective speed of a node is
// base·(1−ℓ(t)). Piecewise-constant traces can be integrated exactly, which
// lets the grid model compute task completion times precisely even when
// pressure changes mid-task (see grid.Node).
//
// All stochastic generators take explicit seeds; identical seeds reproduce
// identical traces.
package loadgen

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// MaxLoad is the ceiling applied to every trace value. A load of exactly 1
// would stall a node forever; clamping just below keeps progress guarantees
// while modelling near-total contention.
const MaxLoad = 0.98

// Trace is an external-load profile: a piecewise-constant ℓ(t).
type Trace interface {
	// At returns the load fraction in [0, MaxLoad] at virtual time t.
	At(t time.Duration) float64
	// NextChange returns the earliest time strictly after t at which the
	// load value changes, or ok=false if the trace is constant forever
	// after t.
	NextChange(t time.Duration) (time.Duration, bool)
}

// clamp bounds a load value into [0, MaxLoad].
func clamp(x float64) float64 {
	if math.IsNaN(x) || x < 0 {
		return 0
	}
	if x > MaxLoad {
		return MaxLoad
	}
	return x
}

// Constant is a trace with a fixed load level.
type Constant struct{ Level float64 }

// NewConstant returns a constant trace clamped into [0, MaxLoad].
func NewConstant(level float64) Constant { return Constant{Level: clamp(level)} }

// At implements Trace.
func (c Constant) At(time.Duration) float64 { return clamp(c.Level) }

// NextChange implements Trace.
func (c Constant) NextChange(time.Duration) (time.Duration, bool) { return 0, false }

// Step is a trace that jumps from Before to After at time At.
type Step struct {
	Time   time.Duration
	Before float64
	After  float64
}

// NewStep returns a step trace.
func NewStep(at time.Duration, before, after float64) Step {
	return Step{Time: at, Before: clamp(before), After: clamp(after)}
}

// At implements Trace.
func (s Step) At(t time.Duration) float64 {
	if t < s.Time {
		return clamp(s.Before)
	}
	return clamp(s.After)
}

// NextChange implements Trace.
func (s Step) NextChange(t time.Duration) (time.Duration, bool) {
	if t < s.Time && clamp(s.Before) != clamp(s.After) {
		return s.Time, true
	}
	return 0, false
}

// Segment is one piece of a piecewise trace: Load holds from Start until the
// next segment's Start.
type Segment struct {
	Start time.Duration
	Load  float64
}

// Piecewise is an arbitrary piecewise-constant trace assembled from
// segments. The value before the first segment is the first segment's load.
type Piecewise struct {
	segs []Segment
}

// NewPiecewise builds a trace from segments, which are sorted by start time.
// Adjacent segments with equal load are merged. An empty segment list yields
// a zero-load trace.
func NewPiecewise(segs []Segment) *Piecewise {
	cp := append([]Segment(nil), segs...)
	sort.SliceStable(cp, func(i, j int) bool { return cp[i].Start < cp[j].Start })
	var merged []Segment
	for _, s := range cp {
		s.Load = clamp(s.Load)
		if n := len(merged); n > 0 {
			if merged[n-1].Start == s.Start {
				// Later spec at the same instant wins.
				merged[n-1].Load = s.Load
				continue
			}
			if merged[n-1].Load == s.Load {
				continue
			}
		}
		merged = append(merged, s)
	}
	return &Piecewise{segs: merged}
}

// At implements Trace.
func (pw *Piecewise) At(t time.Duration) float64 {
	if len(pw.segs) == 0 {
		return 0
	}
	// Find the last segment with Start <= t.
	i := sort.Search(len(pw.segs), func(i int) bool { return pw.segs[i].Start > t })
	if i == 0 {
		return pw.segs[0].Load
	}
	return pw.segs[i-1].Load
}

// NextChange implements Trace.
func (pw *Piecewise) NextChange(t time.Duration) (time.Duration, bool) {
	cur := pw.At(t)
	i := sort.Search(len(pw.segs), func(i int) bool { return pw.segs[i].Start > t })
	for ; i < len(pw.segs); i++ {
		if pw.segs[i].Load != cur {
			return pw.segs[i].Start, true
		}
		cur = pw.segs[i].Load
	}
	return 0, false
}

// SquareWave alternates between Low and High, spending HighFor at High then
// LowFor at Low, starting at High from Phase onward (Low before Phase).
type SquareWave struct {
	Low, High       float64
	HighFor, LowFor time.Duration
	Phase           time.Duration
}

// NewSquareWave builds a square-wave trace; non-positive durations are
// clamped to 1ns to avoid a zero-length period.
func NewSquareWave(low, high float64, highFor, lowFor, phase time.Duration) SquareWave {
	if highFor <= 0 {
		highFor = time.Nanosecond
	}
	if lowFor <= 0 {
		lowFor = time.Nanosecond
	}
	return SquareWave{Low: clamp(low), High: clamp(high), HighFor: highFor, LowFor: lowFor, Phase: phase}
}

// At implements Trace.
func (w SquareWave) At(t time.Duration) float64 {
	if t < w.Phase {
		return clamp(w.Low)
	}
	period := w.HighFor + w.LowFor
	off := (t - w.Phase) % period
	if off < w.HighFor {
		return clamp(w.High)
	}
	return clamp(w.Low)
}

// NextChange implements Trace.
func (w SquareWave) NextChange(t time.Duration) (time.Duration, bool) {
	if clamp(w.Low) == clamp(w.High) {
		return 0, false
	}
	if t < w.Phase {
		return w.Phase, true
	}
	period := w.HighFor + w.LowFor
	off := (t - w.Phase) % period
	base := t - off
	if off < w.HighFor {
		return base + w.HighFor, true
	}
	return base + period, true
}

// RandomWalk generates a seeded random-walk trace: every interval the load
// moves by a uniform step in [−step, +step], reflected into [0, MaxLoad].
func RandomWalk(seed int64, start, step float64, interval, horizon time.Duration) *Piecewise {
	if interval <= 0 {
		interval = time.Second
	}
	rng := rand.New(rand.NewSource(seed))
	level := clamp(start)
	var segs []Segment
	for t := time.Duration(0); t <= horizon; t += interval {
		segs = append(segs, Segment{Start: t, Load: level})
		level += (rng.Float64()*2 - 1) * step
		// Reflect at the boundaries.
		if level < 0 {
			level = -level
		}
		if level > MaxLoad {
			level = 2*MaxLoad - level
		}
		level = clamp(level)
	}
	return NewPiecewise(segs)
}

// MarkovOnOff generates a seeded two-state (idle/busy) trace with
// exponentially distributed dwell times, the classic model of interactive
// owner activity on non-dedicated workstations.
func MarkovOnOff(seed int64, idleLoad, busyLoad float64, meanIdle, meanBusy, horizon time.Duration) *Piecewise {
	if meanIdle <= 0 {
		meanIdle = time.Second
	}
	if meanBusy <= 0 {
		meanBusy = time.Second
	}
	rng := rand.New(rand.NewSource(seed))
	var segs []Segment
	t := time.Duration(0)
	busy := false
	for t <= horizon {
		load := idleLoad
		mean := meanIdle
		if busy {
			load = busyLoad
			mean = meanBusy
		}
		segs = append(segs, Segment{Start: t, Load: clamp(load)})
		dwell := time.Duration(rng.ExpFloat64() * float64(mean))
		if dwell <= 0 {
			dwell = time.Nanosecond
		}
		t += dwell
		busy = !busy
	}
	return NewPiecewise(segs)
}

// Spikes generates a trace that is Base except for n equally spaced bursts
// of the given height and width across the horizon.
func Spikes(base, height float64, n int, width, horizon time.Duration) *Piecewise {
	segs := []Segment{{Start: 0, Load: clamp(base)}}
	if n <= 0 || horizon <= 0 {
		return NewPiecewise(segs)
	}
	gap := horizon / time.Duration(n+1)
	for i := 1; i <= n; i++ {
		at := gap * time.Duration(i)
		segs = append(segs, Segment{Start: at, Load: clamp(base + height)})
		segs = append(segs, Segment{Start: at + width, Load: clamp(base)})
	}
	return NewPiecewise(segs)
}
