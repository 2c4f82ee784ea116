package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 10} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("bounds=%v counts=%v", bounds, counts)
	}
	// ≤1: 0.5, 1 → 2; (1,2]: 1.5, 2 → 2; (2,5]: 3 → 1; +Inf: 10 → 1.
	want := []int64{2, 2, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts=%v)", i, counts[i], w, counts)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("Count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.5+2+3+10; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
}

func TestHistogramBoundsNormalised(t *testing.T) {
	h := newHistogram([]float64{5, 1, 5, math.Inf(1), math.NaN(), 2})
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || bounds[0] != 1 || bounds[1] != 2 || bounds[2] != 5 {
		t.Fatalf("bounds = %v, want [1 2 5]", bounds)
	}
	if len(counts) != 4 {
		t.Fatalf("counts len = %d, want 4 (+Inf bucket)", len(counts))
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	h := newHistogram(nil)
	bounds, _ := h.Buckets()
	if len(bounds) != len(DefDurationBuckets) {
		t.Fatalf("default bounds = %v", bounds)
	}
	h.ObserveDuration(3 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-0.003) > 1e-12 {
		t.Fatalf("Sum = %v, want 0.003", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30, 40})
	// 100 uniform samples over (0, 40]: 25 per bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.4)
	}
	if got := h.Quantile(0.5); math.Abs(got-20) > 2 {
		t.Fatalf("p50 = %v, want ≈20", got)
	}
	if got := h.Quantile(0.25); math.Abs(got-10) > 2 {
		t.Fatalf("p25 = %v, want ≈10", got)
	}
	if got := h.Quantile(1); got != 40 {
		t.Fatalf("p100 = %v, want 40", got)
	}
	if got := h.Quantile(0); got < 0 || got > 1 {
		t.Fatalf("p0 = %v, want ≈0", got)
	}
}

func TestHistogramQuantileOverflowClamps(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(100)
	h.Observe(200)
	if got := h.Quantile(0.99); got != 2 {
		t.Fatalf("overflow quantile = %v, want clamp to 2", got)
	}
	empty := newHistogram([]float64{1})
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("lat", BatchBuckets)
	h2 := r.Histogram("lat", nil) // same name: same handle, bounds ignored
	if h1 != h2 {
		t.Fatal("Histogram did not return the existing handle")
	}
	h1.Observe(3)
	if h2.Count() != 1 {
		t.Fatal("handles are not aliased")
	}
	r.Delete("lat")
	if h3 := r.Histogram("lat", nil); h3 == h1 {
		t.Fatal("Delete did not remove the histogram")
	}
}

func TestRenderPromValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_total").Add(3)
	r.Gauge("nodes live").Set(2) // space must be folded by LabelSafe
	h := r.Histogram("task_latency_seconds", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5)

	text := r.RenderProm()
	stats, err := ParseProm(text)
	if err != nil {
		t.Fatalf("ParseProm: %v\n%s", err, text)
	}
	if stats.Histograms != 1 {
		t.Fatalf("histogram families = %d, want 1", stats.Histograms)
	}
	for _, want := range []string{
		"# TYPE jobs_total counter",
		"jobs_total 3",
		"# TYPE nodes_live gauge",
		"nodes_live 2",
		"nodes_live_max 2",
		"# TYPE task_latency_seconds histogram",
		`task_latency_seconds_bucket{le="0.001"} 1`,
		`task_latency_seconds_bucket{le="0.1"} 2`,
		`task_latency_seconds_bucket{le="+Inf"} 3`,
		"task_latency_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestRenderPromDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		r.Counter(name).Inc()
	}
	r.Histogram("hist", []float64{1})
	first := r.RenderProm()
	for i := 0; i < 5; i++ {
		if got := r.RenderProm(); got != first {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	if strings.Index(first, "alpha") > strings.Index(first, "zeta") {
		t.Fatalf("families not sorted:\n%s", first)
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad name":       "1bad 3\n",
		"bad value":      "ok nope\n",
		"bad comment":    "# FROB x y\n",
		"non-cumulative": "# HELP h grasp histogram\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"le descending":  "# HELP h grasp histogram\n# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"no inf":         "# HELP h grasp histogram\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"count mismatch": "# HELP h grasp histogram\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
	}
	for name, text := range cases {
		if _, err := ParseProm(text); err == nil {
			t.Errorf("%s: ParseProm accepted %q", name, text)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram([]float64{0.5})
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				h.Observe(1)
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
	if got := h.Sum(); math.Abs(got-8000) > 1e-6 {
		t.Fatalf("Sum = %v, want 8000", got)
	}
}

// TestRenderPromUntornUnderObserve renders in a loop while other
// goroutines Observe: every exposition must be self-consistent (`_count`
// equal to the +Inf bucket), which ParseProm checks. Run under -race.
func TestRenderPromUntornUnderObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("busy_seconds", []float64{0.5, 1, 2})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Observe(float64((i + g) % 4))
				}
			}
		}(g)
	}
	for i := 0; i < 2000; i++ {
		if _, err := ParseProm(r.RenderProm()); err != nil {
			t.Errorf("render %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if _, err := ParseProm(r.RenderProm()); err != nil {
		t.Errorf("final render: %v", err)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram(DefDurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.003)
	}
}
