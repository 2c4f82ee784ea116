// Package monitor provides the resource-monitoring layer GRASP links
// against: noisy sensors over ground-truth signals, a trend watch that
// forecasts sensor streams, and the threshold detector that drives
// Algorithm 2's recalibration trigger ("if min T > Z").
//
// The paper assumes an external monitoring library (in the style of the
// Network Weather Service); this package is that substitute. Sensor noise is
// seeded and deterministic so experiments that study statistical calibration
// under measurement error are reproducible.
package monitor

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Sensor reads one scalar metric of the platform (a load fraction, a
// bandwidth utilisation, a queue depth...).
type Sensor interface {
	// Read samples the metric now.
	Read() float64
}

// FuncSensor adapts a closure to Sensor.
type FuncSensor func() float64

// Read implements Sensor.
func (f FuncSensor) Read() float64 { return f() }

// Noisy wraps a sensor with additive Gaussian noise of the given standard
// deviation, clamped into [min, max]. Noise is deterministic in the seed.
type Noisy struct {
	S        Sensor
	Stddev   float64
	Min, Max float64
	rng      *rand.Rand
}

// NewNoisy builds a noisy sensor clamped into [min, max].
func NewNoisy(s Sensor, stddev float64, min, max float64, seed int64) *Noisy {
	return &Noisy{S: s, Stddev: stddev, Min: min, Max: max, rng: rand.New(rand.NewSource(seed))}
}

// Read implements Sensor.
func (n *Noisy) Read() float64 {
	v := n.S.Read()
	if n.Stddev > 0 {
		v += n.rng.NormFloat64() * n.Stddev
	}
	if v < n.Min {
		v = n.Min
	}
	if v > n.Max {
		v = n.Max
	}
	return v
}

// Rule selects which statistic of the observed task times is compared
// against the threshold Z.
type Rule int

// Threshold rules.
const (
	// RuleMinOver triggers when min(T) > Z: even the best node is slower
	// than tolerable. This is the paper's Algorithm 2 rule verbatim.
	RuleMinOver Rule = iota
	// RuleMeanOver triggers when mean(T) > Z.
	RuleMeanOver
	// RuleMaxOver triggers when max(T) > Z: any node slower than tolerable.
	RuleMaxOver
)

// String names the rule.
func (r Rule) String() string {
	switch r {
	case RuleMinOver:
		return "min>Z"
	case RuleMeanOver:
		return "mean>Z"
	case RuleMaxOver:
		return "max>Z"
	default:
		return fmt.Sprintf("rule(%d)", int(r))
	}
}

// Detector implements the execution-phase monitoring loop's decision: it
// accumulates recent task times and reports whether the threshold is
// breached.
//
// Algorithm 2 collects a fresh vector of times each round ("Execute F over
// Chosen nodes concurrently; Set t ← execution times(F)"); the Window field
// models that round: only the most recent Window observations enter the
// statistic. Window 0 keeps every observation since the last Reset.
type Detector struct {
	Z    time.Duration // performance threshold; non-positive disables
	Rule Rule
	// MinSamples is the number of observations required before the detector
	// may trigger (guards against deciding on one outlier). Default 1.
	MinSamples int
	// Window bounds how many recent observations form a round (0 = all).
	Window int

	times []time.Duration
}

// NewDetector builds a detector with the paper's min-over rule.
func NewDetector(z time.Duration) *Detector {
	return &Detector{Z: z, Rule: RuleMinOver, MinSamples: 1}
}

// Observe records one task execution time, evicting the oldest beyond
// Window.
func (d *Detector) Observe(t time.Duration) {
	d.times = append(d.times, t)
	if d.Window > 0 && len(d.times) > d.Window {
		d.times = d.times[0:copy(d.times, d.times[1:])]
	}
}

// Count returns the number of observations in the current round.
func (d *Detector) Count() int { return len(d.times) }

// Reset discards the current round's observations (called after a
// recalibration).
func (d *Detector) Reset() { d.times = d.times[:0] }

// Breached evaluates the rule over the current round. It returns the
// triggering statistic alongside the decision.
func (d *Detector) Breached() (bool, time.Duration) {
	minSamples := d.MinSamples
	if minSamples < 1 {
		minSamples = 1
	}
	if d.Z <= 0 || len(d.times) < minSamples {
		return false, 0
	}
	var stat time.Duration
	switch d.Rule {
	case RuleMinOver:
		stat = d.times[0]
		for _, t := range d.times[1:] {
			if t < stat {
				stat = t
			}
		}
	case RuleMaxOver:
		for _, t := range d.times {
			if t > stat {
				stat = t
			}
		}
	default: // RuleMeanOver
		var sum time.Duration
		for _, t := range d.times {
			sum += t
		}
		stat = sum / time.Duration(len(d.times))
	}
	return stat > d.Z, stat
}

// Ratio returns stat/Z for the current round, the "how far over threshold"
// measure recorded in traces. NaN when undefined.
func (d *Detector) Ratio() float64 {
	if d.Z <= 0 {
		return math.NaN()
	}
	_, stat := d.Breached()
	if stat == 0 {
		return math.NaN()
	}
	return float64(stat) / float64(d.Z)
}
