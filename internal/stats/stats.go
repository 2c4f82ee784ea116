// Package stats provides the statistical machinery GRASP's calibration and
// monitoring layers rely on: descriptive statistics, covariance/correlation,
// ordinary-least-squares regression (univariate and multivariate), and a
// linear-trend time-series forecaster.
//
// Algorithm 1 of the paper ranks nodes either "based on the execution times
// only" or "on statistical functions, such as univariate and multivariate
// linear regression involving execution time, processor load, and bandwidth
// utilisation"; this package implements those statistical functions.
//
// All functions are pure and deterministic. NaN is returned (never panics)
// for degenerate inputs such as empty samples, so callers can propagate
// "unknown" naturally.
package stats

import (
	"math"
	"sort"
	"time"
)

// Mean returns the arithmetic mean of xs, or NaN if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns NaN for fewer than two samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Speedup returns sequential/parallel. NaN when parallel is non-positive.
func Speedup(sequential, parallel time.Duration) float64 {
	if parallel <= 0 {
		return math.NaN()
	}
	return float64(sequential) / float64(parallel)
}

// Imbalance measures load imbalance as max/mean of per-node busy time minus
// one: 0 means perfect balance, 1 means the busiest node did twice the mean.
// NaN for empty input or zero mean.
func Imbalance(busy []time.Duration) float64 {
	xs := make([]float64, len(busy))
	for i, d := range busy {
		xs[i] = d.Seconds()
	}
	m := Mean(xs)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return Max(xs)/m - 1
}

// Max returns the largest element of xs, or NaN if xs is empty.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Covariance returns the unbiased sample covariance of paired samples xs, ys.
// It returns NaN if the lengths differ or fewer than two pairs are given.
func Covariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var s float64
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(len(xs)-1)
}

// Correlation returns the Pearson correlation coefficient of xs and ys,
// or NaN when undefined (mismatched lengths, degenerate variance).
func Correlation(xs, ys []float64) float64 {
	sx, sy := StdDev(xs), StdDev(ys)
	if sx == 0 || sy == 0 {
		return math.NaN()
	}
	return Covariance(xs, ys) / (sx * sy)
}

// SpearmanRank returns Spearman's rank correlation of xs and ys: the Pearson
// correlation of their rank vectors, with ties assigned average ranks. The
// calibration experiments use it to compare a node ranking against ground
// truth.
func SpearmanRank(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	return Correlation(Ranks(xs), Ranks(ys))
}

// Ranks returns the 1-based fractional ranks of xs (average rank for ties).
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average 1-based rank across the tie group [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}
