package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFixed(t *testing.T) {
	d := Fixed{V: 7}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5; i++ {
		if d.Sample(rng) != 7 {
			t.Fatal("fixed not fixed")
		}
	}
	if d.Mean() != 7 {
		t.Error("mean wrong")
	}
}

func TestUniformRangeAndMean(t *testing.T) {
	d := Uniform{Lo: 10, Hi: 20}
	rng := rand.New(rand.NewSource(2))
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		v := d.Sample(rng)
		if v < 10 || v > 20 {
			t.Fatalf("out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-15) > 0.2 {
		t.Errorf("sample mean = %v", mean)
	}
	if d.Mean() != 15 {
		t.Error("analytic mean wrong")
	}
}

func TestUniformDegenerate(t *testing.T) {
	d := Uniform{Lo: 5, Hi: 5}
	if d.Sample(rand.New(rand.NewSource(1))) != 5 {
		t.Error("degenerate uniform should return Lo")
	}
}

func TestNormalTruncation(t *testing.T) {
	d := Normal{Mu: 1, Sigma: 10, Floor: 0}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		if d.Sample(rng) < 0 {
			t.Fatal("normal escaped floor")
		}
	}
}

func TestNormalMean(t *testing.T) {
	d := Normal{Mu: 100, Sigma: 5}
	rng := rand.New(rand.NewSource(4))
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		sum += d.Sample(rng)
	}
	if mean := sum / n; math.Abs(mean-100) > 0.5 {
		t.Errorf("sample mean = %v", mean)
	}
}

func TestParetoTail(t *testing.T) {
	d := Pareto{Xm: 1, Alpha: 1.5}
	rng := rand.New(rand.NewSource(5))
	var over10 int
	const n = 20000
	for i := 0; i < n; i++ {
		v := d.Sample(rng)
		if v < 1 {
			t.Fatalf("below scale: %v", v)
		}
		if v > 10 {
			over10++
		}
	}
	// P(X>10) = 10^-1.5 ≈ 0.0316.
	frac := float64(over10) / n
	if frac < 0.02 || frac > 0.05 {
		t.Errorf("tail fraction = %v, want ≈0.032", frac)
	}
}

func TestParetoMean(t *testing.T) {
	if m := (Pareto{Xm: 2, Alpha: 3}).Mean(); m != 3 {
		t.Errorf("mean = %v, want 3", m)
	}
	if !math.IsInf((Pareto{Xm: 1, Alpha: 1}).Mean(), 1) {
		t.Error("alpha<=1 mean should be +Inf")
	}
}

func TestParetoBadAlphaDefaults(t *testing.T) {
	d := Pareto{Xm: 1, Alpha: 0}
	rng := rand.New(rand.NewSource(1))
	v := d.Sample(rng)
	if v < 1 || math.IsInf(v, 1) || math.IsNaN(v) {
		t.Errorf("sample with defaulted alpha = %v", v)
	}
}

func TestBimodal(t *testing.T) {
	d := Bimodal{Light: 1, Heavy: 100, PHeavy: 0.1}
	rng := rand.New(rand.NewSource(6))
	var heavies int
	const n = 10000
	for i := 0; i < n; i++ {
		v := d.Sample(rng)
		if v != 1 && v != 100 {
			t.Fatalf("unexpected value %v", v)
		}
		if v == 100 {
			heavies++
		}
	}
	frac := float64(heavies) / n
	if frac < 0.08 || frac > 0.12 {
		t.Errorf("heavy fraction = %v", frac)
	}
	if math.Abs(d.Mean()-10.9) > 1e-9 {
		t.Errorf("mean = %v, want 10.9", d.Mean())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	gen := func(seed int64) []Item { return Spec{N: 100, Cost: Uniform{1, 2}, Seed: seed}.Build() }
	a, b := gen(42), gen(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
	c := gen(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds identical")
	}
}

func TestSpecBuild(t *testing.T) {
	s := Spec{
		N:        50,
		Cost:     Fixed{V: 10},
		InBytes:  Fixed{V: 100},
		OutBytes: Fixed{V: 20},
		Seed:     1,
	}
	items := s.Build()
	if len(items) != 50 {
		t.Fatalf("len = %d", len(items))
	}
	for _, it := range items {
		if it.Cost != 10 || it.InBytes != 100 || it.OutBytes != 20 {
			t.Fatalf("item = %+v", it)
		}
	}
}

func TestSpecNilSizes(t *testing.T) {
	items := Spec{N: 3, Cost: Fixed{V: 1}, Seed: 1}.Build()
	for _, it := range items {
		if it.InBytes != 0 || it.OutBytes != 0 {
			t.Fatal("nil size dists should be zero")
		}
	}
}

func TestPropDistsNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dists := []Dist{
			Fixed{V: 5},
			Uniform{Lo: 0, Hi: 10},
			Normal{Mu: 5, Sigma: 2},
			Pareto{Xm: 1, Alpha: 2},
			Bimodal{Light: 1, Heavy: 50, PHeavy: 0.2},
		}
		for _, d := range dists {
			for i := 0; i < 50; i++ {
				v := d.Sample(rng)
				if v < 0 || math.IsNaN(v) {
					return false
				}
			}
			if d.String() == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMandelbrotRow(t *testing.T) {
	row := MandelbrotRow(50, 100, 100, 64)
	if len(row) != 100 {
		t.Fatalf("len = %d", len(row))
	}
	// The row through the middle contains interior points (maxIter) and
	// exterior points (small counts).
	var hasMax, hasSmall bool
	for _, v := range row {
		if v == 64 {
			hasMax = true
		}
		if v < 5 {
			hasSmall = true
		}
	}
	if !hasMax || !hasSmall {
		t.Errorf("expected interior and exterior pixels: max=%v small=%v", hasMax, hasSmall)
	}
}

func TestMandelbrotRowDegenerate(t *testing.T) {
	if len(MandelbrotRow(0, 0, 10, 8)) != 0 {
		t.Error("zero width should be empty")
	}
}

func TestMandelbrotCostVariance(t *testing.T) {
	// Interior rows must cost more iterations than edge rows — the source of
	// farm irregularity.
	sumIter := func(row []uint16) (s int) {
		for _, v := range row {
			s += int(v)
		}
		return
	}
	mid := sumIter(MandelbrotRow(50, 64, 100, 256))
	edge := sumIter(MandelbrotRow(1, 64, 100, 256))
	if mid <= edge*2 {
		t.Errorf("mid row (%d) should cost far more than edge row (%d)", mid, edge)
	}
}

func TestIntegrate(t *testing.T) {
	// ∫₀¹ x² dx = 1/3.
	got := Integrate(func(x float64) float64 { return x * x }, 0, 1, 10000)
	if math.Abs(got-1.0/3) > 1e-6 {
		t.Errorf("integral = %v", got)
	}
	// ∫₀^π sin = 2.
	got = Integrate(math.Sin, 0, math.Pi, 10000)
	if math.Abs(got-2) > 1e-6 {
		t.Errorf("integral = %v", got)
	}
}

func TestIntegrateDegenerate(t *testing.T) {
	got := Integrate(func(x float64) float64 { return 1 }, 0, 1, 0)
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("n clamped integral = %v", got)
	}
}

func TestSpin(t *testing.T) {
	v := Spin(1000)
	if math.IsNaN(v) || v <= 0 {
		t.Errorf("Spin = %v", v)
	}
	if Spin(0) != 1.0001 {
		t.Error("zero ops should return seed value")
	}
}
