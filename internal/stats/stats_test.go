package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestOLSExactLine(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 3 + 2*v
	}
	fit, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Slope, 2, 1e-12) || !almost(fit.Intercept, 3, 1e-12) {
		t.Errorf("fit = %+v", fit)
	}
	if !almost(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %g", fit.R2)
	}
}

func TestOLSNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x, y []float64
	for i := 0; i < 500; i++ {
		xi := float64(i)
		x = append(x, xi)
		y = append(y, 5+0.5*xi+rng.NormFloat64())
	}
	fit, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Slope, 0.5, 0.01) {
		t.Errorf("slope = %g", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %g", fit.R2)
	}
}

func TestOLSErrors(t *testing.T) {
	if _, err := OLS([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := OLS([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := OLS([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("zero-variance x accepted")
	}
}

func TestGoldenSection(t *testing.T) {
	x, fx := GoldenSection(func(x float64) float64 { return (x - 1.3) * (x - 1.3) }, 0, 4, 1e-9)
	if !almost(x, 1.3, 1e-7) {
		t.Errorf("xmin = %g", x)
	}
	if fx > 1e-12 {
		t.Errorf("fmin = %g", fx)
	}
	// Reversed bounds work too.
	x, _ = GoldenSection(func(x float64) float64 { return math.Abs(x - 2) }, 3, 0, 1e-9)
	if !almost(x, 2, 1e-6) {
		t.Errorf("reversed bounds xmin = %g", x)
	}
}

func TestGridThenGolden(t *testing.T) {
	// Multi-modal: local min near 0.5, global near 2.8.
	f := func(x float64) float64 {
		return math.Min((x-0.5)*(x-0.5)+0.5, (x-2.8)*(x-2.8))
	}
	x, _ := GridThenGolden(f, 0, 4, 41, 1e-9)
	if !almost(x, 2.8, 1e-6) {
		t.Errorf("global xmin = %g", x)
	}
}

func TestErrorMetrics(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{1, 2, 3, 4}
	if SSE(a, b) != 0 {
		t.Error("identical series should have zero error")
	}
	if MAPE(a, b) != 0 {
		t.Error("identical series MAPE nonzero")
	}
	c := []float64{2, 3, 4, 5}
	if !almost(SSE(a, c), 4, 1e-12) {
		t.Errorf("SSE = %g", SSE(a, c))
	}
	// MAPE vs reference a: |1/1|+|1/2|+|1/3|+|1/4| over 4 * 100.
	want := 100 * (1 + 0.5 + 1.0/3 + 0.25) / 4
	if !almost(MAPE(a, c), want, 1e-9) {
		t.Errorf("MAPE = %g want %g", MAPE(a, c), want)
	}
	if !math.IsNaN(SSE(a, []float64{1})) {
		t.Error("mismatched SSE should be NaN")
	}
	if !math.IsNaN(MAPE([]float64{0}, []float64{1})) {
		t.Error("all-zero reference MAPE should be NaN")
	}
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	if !almost(Pearson(a, b), 1, 1e-12) {
		t.Errorf("Pearson = %g", Pearson(a, b))
	}
	bneg := []float64{10, 8, 6, 4, 2}
	if !almost(Pearson(a, bneg), -1, 1e-12) {
		t.Errorf("Pearson = %g", Pearson(a, bneg))
	}
	if !math.IsNaN(Pearson(a, []float64{1, 1, 1, 1, 1})) {
		t.Error("constant series should give NaN")
	}
}

func TestImbalanceRatio(t *testing.T) {
	if !almost(ImbalanceRatio([]float64{1, 1, 1, 1}), 1, 1e-12) {
		t.Error("uniform sample should have ratio 1")
	}
	if !almost(ImbalanceRatio([]float64{0, 0, 4}), 3, 1e-12) {
		t.Errorf("ratio = %g", ImbalanceRatio([]float64{0, 0, 4}))
	}
	if !math.IsNaN(ImbalanceRatio(nil)) {
		t.Error("empty sample should be NaN")
	}
}

func TestCumSum(t *testing.T) {
	got := CumSum([]float64{1, 2, 3})
	want := []float64{1, 3, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("CumSum = %v", got)
		}
	}
	if len(CumSum(nil)) != 0 {
		t.Error("empty CumSum should be empty")
	}
}

func TestCumSumProperty(t *testing.T) {
	f := func(xs []float64) bool {
		// Clamp to a sane range: NaN/Inf break comparisons and magnitudes
		// near MaxFloat64 make the running sum lose all relative precision.
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) || math.Abs(xs[i]) > 1e12 {
				xs[i] = 1
			}
		}
		cs := CumSum(xs)
		if len(cs) != len(xs) {
			return false
		}
		for i := 1; i < len(cs); i++ {
			if !almost(cs[i]-cs[i-1], xs[i], math.Abs(xs[i])*1e-9+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGoldenSectionMatchesGridOnCalibrationShape(t *testing.T) {
	// Objective shaped like the dataset_growth calibration: SSE between a
	// geometric series and a measured one; unimodal in the growth factor.
	measured := make([]float64, 20)
	for i := range measured {
		measured[i] = 1e6 * math.Pow(1.013075, float64(i))
	}
	obj := func(g float64) float64 {
		var s float64
		for i := range measured {
			pred := 1e6 * math.Pow(g, float64(i))
			s += (pred - measured[i]) * (pred - measured[i])
		}
		return s
	}
	x, _ := GoldenSection(obj, 1.0, 1.05, 1e-10)
	if !almost(x, 1.013075, 1e-6) {
		t.Errorf("recovered growth = %g", x)
	}
}
