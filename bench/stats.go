package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation between closest ranks; 0 for an empty sample. vals is
// sorted in place.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	if p <= 0 {
		return vals[0]
	}
	if p >= 100 {
		return vals[len(vals)-1]
	}
	rank := p / 100 * float64(len(vals)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(vals) {
		return vals[lo]
	}
	return vals[lo] + frac*(vals[lo+1]-vals[lo])
}

// median is the 50th percentile.
func median(vals []float64) float64 { return percentile(vals, 50) }

// goodQuartile is the quartile of vals on the side that is better for the
// metric: the upper quartile when higher is better, the lower when lower
// is. Every end-to-end metric of a fixed-duration job is computed per slice
// of the measured window and reported as this quartile of the slices. The
// sandbox's noise is one-sided and comes in episodes — a neighbour on the
// core, a stall of the shared disk, each seconds long and each only ever
// making a slice worse — so the good-side quartile holds still as long as a
// quarter of the window is undisturbed, where a mean or a median moves with
// every episode. A change to the program moves every slice, and so moves
// the quartile as much as it would move the median.
func goodQuartile(vals []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return percentile(vals, 75)
	}
	return percentile(vals, 25)
}

// slices divides a measured window into equal slices and keeps, per slice,
// what the end-to-end metrics are made of: how many results became visible
// and their latencies.
type slices struct {
	width  int64 // ns
	counts []int
	lat    [][]float64 // ms, of the results that became visible in the slice
}

func newSlices(windowNS, widthNS int64) *slices {
	n := int(windowNS / widthNS)
	if n < 1 {
		n, widthNS = 1, max(1, windowNS) // a window shorter than a slice is one slice
	}
	return &slices{width: widthNS, counts: make([]int, n), lat: make([][]float64, n)}
}

// add records one result that became visible offsetNS after the window's
// start; offsets outside the whole slices of the window are ignored.
func (w *slices) add(offsetNS int64, latMS float64) {
	if offsetNS < 0 {
		return
	}
	if i := int(offsetNS / w.width); i < len(w.counts) {
		w.counts[i]++
		w.lat[i] = append(w.lat[i], latMS)
	}
}

// throughput is results per second: the good-side quartile of the slices'
// rates.
func (w *slices) throughput() float64 {
	rates := make([]float64, len(w.counts))
	for i, c := range w.counts {
		rates[i] = float64(c) * 1e9 / float64(w.width)
	}
	return goodQuartile(rates, true)
}

// latencyP50 is the good-side quartile of the slices' median latencies, in
// ms; slices in which nothing became visible have no median and are left
// out.
func (w *slices) latencyP50() float64 {
	var meds []float64
	for _, l := range w.lat {
		if len(l) > 0 {
			meds = append(meds, median(l))
		}
	}
	return goodQuartile(meds, false)
}

// geomean is the geometric mean of positive values (0 if any is not): the
// mean that gives each of a workload's jobs the same relative weight
// whatever its scale.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var logs float64
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		logs += math.Log(v)
	}
	return math.Exp(logs / float64(len(vals)))
}

// ratio is a/b, 0 when b is 0 — a per-layer ratio whose layer did no work
// on this workload reads 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
