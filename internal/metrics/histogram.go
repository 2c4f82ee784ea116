package metrics

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket distribution, safe for concurrent use.
// Observe is allocation-free (a linear scan over a handful of bounds plus
// two atomic updates), so the dispatch and journal hot paths can carry
// one without disturbing the zero-allocation discipline those paths are
// benchmarked under. Buckets are fixed at construction: the exposition is
// Prometheus's cumulative `le` convention, where bucket i counts the
// observations ≤ bounds[i] and an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds  []float64      // ascending upper bounds; +Inf is implicit
	counts  []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	sumBits atomic.Uint64  // float64 bits, CAS-updated
}

// DefDurationBuckets are the default upper bounds (seconds) for duration
// histograms: 100µs to 10s in a coarse log scale, covering spin tasks,
// network round trips, and fsyncs alike.
var DefDurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// BatchBuckets are upper bounds for small-count distributions (results
// batch depth, lease batch size): powers of two up to the wire's caps.
var BatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefDurationBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	// Drop duplicates and non-finite bounds; +Inf is always implicit.
	out := bs[:0]
	for _, b := range bs {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			continue
		}
		if len(out) > 0 && out[len(out)-1] == b {
			continue
		}
		out = append(out, b)
	}
	return &Histogram{bounds: out, counts: make([]atomic.Int64, len(out)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration sample in seconds — the Prometheus
// base unit every *_seconds histogram here uses.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns how many samples were observed: the sum of the buckets,
// which are the only per-sample count kept, so a count and the buckets it
// is read beside can never disagree about a sample in flight.
func (h *Histogram) Count() int64 {
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Buckets snapshots the upper bounds and their per-bucket (not cumulative)
// counts; the final count is the +Inf overflow bucket.
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear interpolation
// within the bucket the rank falls into — the same estimate a Prometheus
// histogram_quantile would produce from the exposition. Samples past the
// last finite bound clamp to it. Returns 0 with no samples.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.bounds {
		c := h.counts[i].Load()
		if c > 0 && float64(cum+c) >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			upper := h.bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + (upper-lower)*frac
		}
		cum += c
	}
	// Rank lands in the +Inf bucket: clamp to the largest finite bound.
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return 0
}
