// Package metrics computes the performance measures the paper's evaluation
// shape is stated in: makespan, speedup, efficiency, load imbalance, and
// fairness across nodes. It also provides the operational Registry the
// daemons export: counters, gauges, and fixed-bucket latency histograms
// with a zero-allocation Observe path, rendered deterministically in
// Prometheus text exposition format (RenderProm) — the one exposition.
package metrics

import (
	"math"
	"time"

	"grasp/internal/stats"
)

// Speedup returns sequential/parallel. NaN when parallel is non-positive.
func Speedup(sequential, parallel time.Duration) float64 {
	if parallel <= 0 {
		return math.NaN()
	}
	return float64(sequential) / float64(parallel)
}

// Efficiency returns speedup divided by the number of processors.
func Efficiency(sequential, parallel time.Duration, procs int) float64 {
	if procs <= 0 {
		return math.NaN()
	}
	return Speedup(sequential, parallel) / float64(procs)
}

// Imbalance measures load imbalance as max/mean of per-node busy time minus
// one: 0 means perfect balance, 1 means the busiest node did twice the mean.
// NaN for empty input or zero mean.
func Imbalance(busy []time.Duration) float64 {
	if len(busy) == 0 {
		return math.NaN()
	}
	xs := durationsToSeconds(busy)
	m := stats.Mean(xs)
	if m == 0 {
		return math.NaN()
	}
	return stats.Max(xs)/m - 1
}

// JainFairness returns Jain's fairness index of per-node busy times:
// (Σx)²/(n·Σx²), in (0, 1], 1 meaning perfectly equal shares.
func JainFairness(busy []time.Duration) float64 {
	if len(busy) == 0 {
		return math.NaN()
	}
	xs := durationsToSeconds(busy)
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return math.NaN()
	}
	n := float64(len(xs))
	return sum * sum / (n * sumSq)
}

// CoefVar returns the coefficient of variation of per-node busy times.
func CoefVar(busy []time.Duration) float64 {
	return stats.CoefVar(durationsToSeconds(busy))
}

// MeanDuration returns the mean of ds (0 for empty input).
func MeanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// MaxDuration returns the maximum of ds (0 for empty input).
func MaxDuration(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

// MinDuration returns the minimum of ds (0 for empty input).
func MinDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	m := ds[0]
	for _, d := range ds[1:] {
		if d < m {
			m = d
		}
	}
	return m
}

// durationsToSeconds converts to float seconds for the stats layer.
func durationsToSeconds(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}

// GainPercent returns the improvement of measured over baseline as a
// percentage of baseline (positive = measured is faster).
func GainPercent(baseline, measured time.Duration) float64 {
	if baseline <= 0 {
		return math.NaN()
	}
	return 100 * float64(baseline-measured) / float64(baseline)
}
