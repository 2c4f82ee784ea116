// Package workload generates the synthetic task populations the experiments
// run and provides real compute kernels for the local-runtime examples.
//
// Task costs are drawn from seeded distributions (fixed, uniform,
// heavy-tailed Pareto, bimodal), letting experiments control the
// computation/communication ratio and cost variance the paper identifies as
// the levers of skeleton performance.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Dist is a distribution over non-negative float64 values.
type Dist interface {
	// Sample draws one value using the given source.
	Sample(rng *rand.Rand) float64
	// String describes the distribution.
	String() string
}

// Fixed is a degenerate distribution.
type Fixed struct{ V float64 }

// Sample implements Dist.
func (f Fixed) Sample(*rand.Rand) float64 { return f.V }

// String implements Dist.
func (f Fixed) String() string { return fmt.Sprintf("fixed(%g)", f.V) }

// Uniform is uniform on [Lo, Hi].
type Uniform struct{ Lo, Hi float64 }

// Sample implements Dist.
func (u Uniform) Sample(rng *rand.Rand) float64 {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + rng.Float64()*(u.Hi-u.Lo)
}

// String implements Dist.
func (u Uniform) String() string { return fmt.Sprintf("uniform(%g,%g)", u.Lo, u.Hi) }

// Pareto is a heavy-tailed distribution with scale Xm and shape Alpha
// (> 1 for a finite mean). It models the occasional huge task that makes
// static schedules stumble.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// Sample implements Dist.
func (p Pareto) Sample(rng *rand.Rand) float64 {
	a := p.Alpha
	if a <= 0 {
		a = 1.5
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return p.Xm / math.Pow(u, 1/a)
}

// String implements Dist.
func (p Pareto) String() string { return fmt.Sprintf("pareto(%g,%g)", p.Xm, p.Alpha) }

// Bimodal mixes two fixed magnitudes: with probability PHeavy the value is
// Heavy, otherwise Light. It models a workload of cheap tasks with
// occasional expensive ones.
type Bimodal struct {
	Light, Heavy float64
	PHeavy       float64
}

// Sample implements Dist.
func (b Bimodal) Sample(rng *rand.Rand) float64 {
	if rng.Float64() < b.PHeavy {
		return b.Heavy
	}
	return b.Light
}

// String implements Dist.
func (b Bimodal) String() string {
	return fmt.Sprintf("bimodal(%g,%g,p=%g)", b.Light, b.Heavy, b.PHeavy)
}

// Spec describes a task population for the simulated platforms: per-task
// compute cost (operations) and payload sizes (bytes).
type Spec struct {
	N        int
	Cost     Dist
	InBytes  Dist
	OutBytes Dist
	Seed     int64
}

// Item is one generated task's parameters.
type Item struct {
	Cost     float64
	InBytes  float64
	OutBytes float64
}

// Build materialises the population. Nil size distributions mean zero bytes.
func (s Spec) Build() []Item {
	rng := rand.New(rand.NewSource(s.Seed))
	items := make([]Item, s.N)
	for i := range items {
		items[i].Cost = s.Cost.Sample(rng)
		if s.InBytes != nil {
			items[i].InBytes = s.InBytes.Sample(rng)
		}
		if s.OutBytes != nil {
			items[i].OutBytes = s.OutBytes.Sample(rng)
		}
	}
	return items
}
