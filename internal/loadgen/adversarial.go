package loadgen

// Adversarial load scenarios for the overload experiments (E29, E30) and the
// scenario end-to-end suite: seeded generators for the two failure shapes
// the predictive policy is built to survive — a node that slowly degrades
// under rising external contention, and demand that arrives faster than the
// configured capacity.

import (
	"math/rand"
	"time"
)

// Ramp returns a piecewise-constant approximation of a linear load ramp:
// the trace holds `from` until start, rises linearly to `to` across the
// following `over` duration (quantised into steps), then holds `to`.
func Ramp(from, to float64, start, over time.Duration, steps int) *Piecewise {
	if steps < 1 {
		steps = 1
	}
	if over <= 0 {
		return NewPiecewise([]Segment{{Start: 0, Load: from}, {Start: start, Load: to}})
	}
	segs := []Segment{{Start: 0, Load: clamp(from)}}
	dt := over / time.Duration(steps)
	if dt <= 0 {
		dt = time.Nanosecond
	}
	for i := 1; i <= steps; i++ {
		frac := float64(i) / float64(steps)
		segs = append(segs, Segment{
			Start: start + dt*time.Duration(i),
			Load:  clamp(from + (to-from)*frac),
		})
	}
	return NewPiecewise(segs)
}

// DegradationSchedule returns n per-node traces for a slow-node-degradation
// scenario: every node carries light seeded background noise, and one node
// (chosen by the seed) ramps to heavy contention across the middle half of
// the horizon — the gradual failure mode a reactive threshold detector only
// notices after tasks have already straggled. Identical seeds reproduce
// identical schedules, so a reactive and a predictive run can be compared
// on the same degradation.
func DegradationSchedule(seed int64, n int, horizon time.Duration) []Trace {
	if n <= 0 {
		return nil
	}
	if horizon <= 0 {
		horizon = time.Second
	}
	rng := rand.New(rand.NewSource(seed))
	victim := rng.Intn(n)
	traces := make([]Trace, n)
	for i := range traces {
		base := 0.05 + 0.10*rng.Float64()
		high := 0.75 + 0.20*rng.Float64()
		walkSeed := rng.Int63()
		if i == victim {
			traces[i] = Ramp(base, high, horizon/4, horizon/2, 8)
			continue
		}
		traces[i] = RandomWalk(walkSeed, base, 0.03, horizon/16, horizon)
	}
	return traces
}
