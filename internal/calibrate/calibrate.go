// Package calibrate implements Algorithm 1 of the paper: run a sample of
// the program's functions on every allocated node concurrently, rank the
// nodes by measured time (TimeOnly, all the daemon uses) or by
// statistically adjusted time (Univariate, Multivariate, LoadScaled:
// virtual-time exhibits until served work feeds calibration), and select
// the fittest subset (the "Chosen" table).
//
// The statistical strategies have no caller outside E6 and
// examples/paramsweep.
//
// Ranking strategies mirror the paper's two modes — "execution times only"
// and "statistical functions, such as univariate and multivariate linear
// regression involving execution time, processor load, and bandwidth
// utilisation" — plus a physically motivated load-scaling ablation.
package calibrate

import (
	"fmt"
	"sort"
	"time"

	"grasp/internal/stats"
)

// Strategy selects how observed sample times are extrapolated into a
// fitness ranking.
type Strategy int

// Ranking strategies.
const (
	// TimeOnly ranks by raw measured time: "the faster a node the fitter
	// it is".
	TimeOnly Strategy = iota
	// Univariate regresses time on observed processor load across nodes
	// and ranks by the load-adjusted time (predicted time at the reference
	// load).
	Univariate
	// Multivariate regresses time on processor load and bandwidth
	// utilisation and ranks by the fully adjusted time.
	Multivariate
	// LoadScaled applies the physical correction t·(1−load): the time the
	// node would have needed had it been idle. Not in the paper; kept as an
	// ablation upper bound for the statistical strategies.
	LoadScaled
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case TimeOnly:
		return "time-only"
	case Univariate:
		return "univariate"
	case Multivariate:
		return "multivariate"
	case LoadScaled:
		return "load-scaled"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Sample is one node's calibration observation: the probe execution time
// plus the resource readings taken alongside it.
type Sample struct {
	Worker int
	Time   time.Duration
	Load   float64 // processor load observed during the sample
	BW     float64 // bandwidth utilisation observed during the sample
	// ProbeCost is the operation count of the probe this sample measured
	// (0 when unknown); callers use it to normalise times across probes of
	// different sizes.
	ProbeCost float64
}

// Ranking is the outcome of Algorithm 1's ranking step.
type Ranking struct {
	Strategy Strategy
	// Order lists workers fittest-first.
	Order []int
	// Score maps worker → adjusted predicted time in seconds; lower is
	// fitter.
	Score map[int]float64
	// Samples are the observations the ranking was computed from.
	Samples []Sample
	// R2 is the regression fit quality for statistical strategies
	// (0 when not applicable or when the regression fell back).
	R2 float64
	// FellBack reports that a statistical strategy degraded to TimeOnly
	// (too few samples or singular design matrix).
	FellBack bool
}

// Rank computes a fitness ranking from calibration samples. Statistical
// strategies need at least 3 (univariate) or 4 (multivariate) samples and
// non-degenerate predictors; otherwise they fall back to TimeOnly and set
// FellBack.
func Rank(samples []Sample, strat Strategy) Ranking {
	r := Ranking{
		Strategy: strat,
		Score:    make(map[int]float64, len(samples)),
		Samples:  append([]Sample(nil), samples...),
	}
	times := make([]float64, len(samples))
	loads := make([]float64, len(samples))
	bws := make([]float64, len(samples))
	for i, s := range samples {
		times[i] = s.Time.Seconds()
		loads[i] = s.Load
		bws[i] = s.BW
	}

	switch strat {
	case LoadScaled:
		for i, s := range samples {
			r.Score[s.Worker] = times[i] * (1 - clamp01(loads[i]))
		}
	case Univariate:
		fit, err := stats.Linregress(loads, times)
		if err != nil || len(samples) < 3 {
			r.FellBack = true
			rawScores(&r, samples, times)
			break
		}
		slope := fit.Slope
		if slope < 0 {
			// A negative load sensitivity is physically meaningless noise;
			// adjusting with it would reward loaded nodes.
			slope = 0
		}
		ref := stats.Mean(loads)
		for i, s := range samples {
			r.Score[s.Worker] = times[i] - slope*(loads[i]-ref)
		}
		r.R2 = fit.R2
	case Multivariate:
		x := make([][]float64, len(samples))
		for i := range samples {
			x[i] = []float64{loads[i], bws[i]}
		}
		fit, err := stats.MultiRegress(x, times)
		if err != nil || len(samples) < 4 {
			// Degrade gracefully: try univariate (bandwidth column is often
			// the degenerate one), then raw.
			uni := Rank(samples, Univariate)
			r.Score = uni.Score
			r.R2 = uni.R2
			r.FellBack = true
			break
		}
		bLoad, bBW := fit.Coef[1], fit.Coef[2]
		if bLoad < 0 {
			bLoad = 0
		}
		if bBW < 0 {
			bBW = 0
		}
		refL, refB := stats.Mean(loads), stats.Mean(bws)
		for i, s := range samples {
			r.Score[s.Worker] = times[i] - bLoad*(loads[i]-refL) - bBW*(bws[i]-refB)
		}
		r.R2 = fit.R2
	default: // TimeOnly
		rawScores(&r, samples, times)
	}

	r.Order = make([]int, 0, len(samples))
	for _, s := range samples {
		r.Order = append(r.Order, s.Worker)
	}
	sort.SliceStable(r.Order, func(a, b int) bool {
		sa, sb := r.Score[r.Order[a]], r.Score[r.Order[b]]
		if sa != sb {
			return sa < sb
		}
		return r.Order[a] < r.Order[b]
	})
	return r
}

// rawScores fills Score with the raw measured times.
func rawScores(r *Ranking, samples []Sample, times []float64) {
	for i, s := range samples {
		r.Score[s.Worker] = times[i]
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Select returns the k fittest workers (the Chosen table). k is clamped to
// [1, len(Order)]; an empty ranking returns nil.
func (r Ranking) Select(k int) []int {
	if len(r.Order) == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > len(r.Order) {
		k = len(r.Order)
	}
	return append([]int(nil), r.Order[:k]...)
}

// SelectBySpeedFraction returns the smallest fittest prefix whose aggregate
// predicted speed (Σ 1/score) reaches frac of the total across all workers.
// frac is clamped into (0, 1]; at least one worker is always selected.
func (r Ranking) SelectBySpeedFraction(frac float64) []int {
	if len(r.Order) == 0 {
		return nil
	}
	if frac <= 0 {
		frac = 0.01
	}
	if frac > 1 {
		frac = 1
	}
	var total float64
	for _, w := range r.Order {
		if s := r.Score[w]; s > 0 {
			total += 1 / s
		}
	}
	if total == 0 {
		return r.Select(1)
	}
	var acc float64
	for i, w := range r.Order {
		if s := r.Score[w]; s > 0 {
			acc += 1 / s
		}
		if acc >= frac*total {
			return append([]int(nil), r.Order[:i+1]...)
		}
	}
	return append([]int(nil), r.Order...)
}

// Weights converts scores into dispatch weights proportional to predicted
// speed (1/score), normalised to sum to 1 over the given workers. Workers
// without a score get weight 0; if nothing has a positive score, weights
// are uniform.
func (r Ranking) Weights(workers []int) map[int]float64 {
	w := make(map[int]float64, len(workers))
	var total float64
	for _, id := range workers {
		if s, ok := r.Score[id]; ok && s > 0 {
			w[id] = 1 / s
			total += 1 / s
		} else {
			w[id] = 0
		}
	}
	if total == 0 {
		for _, id := range workers {
			w[id] = 1 / float64(len(workers))
		}
		return w
	}
	for id := range w {
		w[id] /= total
	}
	return w
}
