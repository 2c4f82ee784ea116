package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMeanBasic(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{5}, 5},
		{[]float64{-1, 1}, 0},
		{[]float64{2.5, 2.5, 2.5, 2.5}, 2.5},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMeanEmptyNaN(t *testing.T) {
	if got := Mean(nil); !math.IsNaN(got) {
		t.Errorf("Mean(nil) = %v, want NaN", got)
	}
}

func TestVariance(t *testing.T) {
	// Known sample: variance of {2,4,4,4,5,5,7,9} with n-1 is 32/7.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got, want := Variance(xs), 32.0/7.0; !almostEq(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of single sample should be NaN")
	}
	if !math.IsNaN(Variance(nil)) {
		t.Error("Variance of empty sample should be NaN")
	}
}

func TestStdDevConstantSeries(t *testing.T) {
	if got := StdDev([]float64{3, 3, 3, 3}); got != 0 {
		t.Errorf("StdDev of constant series = %v, want 0", got)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v", got)
	}
	if got := Sum(xs); got != 11 {
		t.Errorf("Sum = %v", got)
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("Min/Max of empty should be NaN")
	}
	if Sum(nil) != 0 {
		t.Error("Sum of empty should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Interpolated.
	if got := Percentile([]float64{1, 2}, 50); !almostEq(got, 1.5, 1e-12) {
		t.Errorf("Percentile interp = %v, want 1.5", got)
	}
}

func TestPercentileEdge(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	if !math.IsNaN(Percentile([]float64{1}, -1)) || !math.IsNaN(Percentile([]float64{1}, 101)) {
		t.Error("out-of-range percentile should be NaN")
	}
	if got := Percentile([]float64{42}, 99); got != 42 {
		t.Errorf("single sample percentile = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Percentile([]float64{9, 1, 5}, 50); got != 5 {
		t.Errorf("odd median = %v", got)
	}
	if got := Percentile([]float64{1, 2, 3, 4}, 50); !almostEq(got, 2.5, 1e-12) {
		t.Errorf("even median = %v", got)
	}
}

func TestCovarianceCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10} // perfectly linear
	if got := Correlation(xs, ys); !almostEq(got, 1, 1e-12) {
		t.Errorf("Correlation = %v, want 1", got)
	}
	ysNeg := []float64{10, 8, 6, 4, 2}
	if got := Correlation(xs, ysNeg); !almostEq(got, -1, 1e-12) {
		t.Errorf("Correlation = %v, want -1", got)
	}
	if got := Covariance(xs, ys); !almostEq(got, 5, 1e-12) {
		t.Errorf("Covariance = %v, want 5", got)
	}
}

func TestCorrelationDegenerate(t *testing.T) {
	if !math.IsNaN(Correlation([]float64{1, 1, 1}, []float64{1, 2, 3})) {
		t.Error("constant x correlation should be NaN")
	}
	if !math.IsNaN(Covariance([]float64{1, 2}, []float64{1})) {
		t.Error("mismatched lengths should be NaN")
	}
}

func TestRanks(t *testing.T) {
	got := Ranks([]float64{30, 10, 20})
	want := []float64{3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestRanksTies(t *testing.T) {
	got := Ranks([]float64{1, 2, 2, 3})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks ties = %v, want %v", got, want)
		}
	}
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 4, 9, 16, 25} // monotone, nonlinear
	if got := SpearmanRank(xs, ys); !almostEq(got, 1, 1e-12) {
		t.Errorf("Spearman = %v, want 1", got)
	}
}

// Property: mean is bounded by min and max.
func TestPropMeanBounded(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: variance is non-negative.
func TestPropVarianceNonNegative(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) < 2 {
			return true
		}
		return Variance(xs) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: shifting a sample by a constant leaves variance unchanged and
// shifts the mean by the constant.
func TestPropShiftInvariance(t *testing.T) {
	f := func(raw []float64, shift float64) bool {
		xs := sanitize(raw)
		if len(xs) < 2 || math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			return true
		}
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		return almostEq(Variance(xs), Variance(shifted), 1e-6*(1+math.Abs(Variance(xs)))) &&
			almostEq(Mean(xs)+shift, Mean(shifted), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: percentile is monotone in p.
func TestPropPercentileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev-1e-9 {
				t.Fatalf("percentile not monotone at p=%v: %v < %v", p, v, prev)
			}
			prev = v
		}
	}
}

// sanitize clamps quick-generated floats to finite moderate values.
func sanitize(raw []float64) []float64 {
	var out []float64
	for _, x := range raw {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if x > 1e6 {
			x = 1e6
		}
		if x < -1e6 {
			x = -1e6
		}
		out = append(out, x)
	}
	return out
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(10*time.Second, 2*time.Second); got != 5 {
		t.Errorf("Speedup = %v", got)
	}
	if !math.IsNaN(Speedup(time.Second, 0)) {
		t.Error("zero parallel time should be NaN")
	}
}

func TestImbalance(t *testing.T) {
	perfect := []time.Duration{time.Second, time.Second, time.Second}
	if got := Imbalance(perfect); math.Abs(got) > 1e-9 {
		t.Errorf("perfect balance = %v, want 0", got)
	}
	skewed := []time.Duration{2 * time.Second, time.Second, time.Second} // max 2, mean 4/3
	if got := Imbalance(skewed); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Imbalance = %v, want 0.5", got)
	}
	if !math.IsNaN(Imbalance(nil)) {
		t.Error("empty should be NaN")
	}
	if !math.IsNaN(Imbalance([]time.Duration{0, 0})) {
		t.Error("all-zero should be NaN")
	}
}
