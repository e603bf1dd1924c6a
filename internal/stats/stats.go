// Package stats provides the small numerical toolbox the paper's modeling
// methodology needs: ordinary least squares linear regression (the paper
// applies "linear regression ... to formulate a simple analytical model"),
// scalar minimization for the dataset_growth calibration (a "single
// parameter optimization problem"), and the error metrics used to judge
// how close the MACSio kernel lands to the measured Castro outputs.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// LinearFit is the result of a simple OLS regression y = Intercept + Slope*x.
type LinearFit struct {
	Slope, Intercept float64
	R2               float64
	N                int
}

// OLS fits y = a + b*x by ordinary least squares.
func OLS(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, fmt.Errorf("stats: OLS length mismatch %d vs %d", len(x), len(y))
	}
	n := len(x)
	if n < 2 {
		return LinearFit{}, errors.New("stats: OLS needs at least 2 points")
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: OLS degenerate x (zero variance)")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx, N: n}
	if syy > 0 {
		fit.R2 = sxy * sxy / (sxx * syy)
	} else {
		fit.R2 = 1 // y constant and perfectly predicted by the mean
	}
	return fit, nil
}

// GoldenSection minimizes a unimodal function f on [a, b] to the given
// x-tolerance and returns the minimizing x and f(x). It is the workhorse
// behind the dataset_growth calibration: a 1-D search over the growth
// factor against the measured output series.
func GoldenSection(f func(float64) float64, a, b, tol float64) (xmin, fmin float64) {
	const invPhi = 0.6180339887498949 // (sqrt(5)-1)/2
	if a > b {
		a, b = b, a
	}
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	for b-a > tol {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		}
	}
	xmin = (a + b) / 2
	return xmin, f(xmin)
}

// GridThenGolden first scans [a,b] at `coarse` evenly spaced points to
// bracket the global minimum of a possibly multi-modal objective, then
// polishes with golden-section inside the best bracket.
func GridThenGolden(f func(float64) float64, a, b float64, coarse int, tol float64) (xmin, fmin float64) {
	if coarse < 3 {
		coarse = 3
	}
	best, bestF := a, math.Inf(1)
	step := (b - a) / float64(coarse-1)
	for i := 0; i < coarse; i++ {
		x := a + float64(i)*step
		if v := f(x); v < bestF {
			best, bestF = x, v
		}
	}
	lo, hi := best-step, best+step
	if lo < a {
		lo = a
	}
	if hi > b {
		hi = b
	}
	return GoldenSection(f, lo, hi, tol)
}

// MAPE is the mean absolute percentage error (in percent) of b against
// reference a; entries with a[i] == 0 are skipped.
func MAPE(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.NaN()
	}
	var s float64
	n := 0
	for i := range a {
		if a[i] == 0 {
			continue
		}
		s += math.Abs((b[i] - a[i]) / a[i])
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return 100 * s / float64(n)
}

// SSE is the sum of squared errors.
func SSE(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.NaN()
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Pearson returns the linear correlation coefficient of two series.
func Pearson(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return math.NaN()
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	n := float64(len(a))
	ma, mb = ma/n, mb/n
	var saa, sbb, sab float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		saa += da * da
		sbb += db * db
		sab += da * db
	}
	if saa == 0 || sbb == 0 {
		return math.NaN()
	}
	return sab / math.Sqrt(saa*sbb)
}

// ImbalanceRatio is max/mean of a positive sample — the load-balance metric
// used when discussing the paper's Fig. 8 per-task distribution.
func ImbalanceRatio(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum, max float64
	for _, v := range xs {
		sum += v
		if v > max {
			max = v
		}
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return math.NaN()
	}
	return max / mean
}

// CumSum returns the running sum of xs.
func CumSum(xs []float64) []float64 {
	out := make([]float64, len(xs))
	var acc float64
	for i, v := range xs {
		acc += v
		out[i] = acc
	}
	return out
}
