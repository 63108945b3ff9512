// Package stats provides the statistical toolbox the paper's §IV-B1 lists
// for I/O data analysis: summary statistics, coefficient of variation,
// correlation (Pearson and Spearman), linear and multiple regression,
// quantiles, bootstrap confidence intervals and period detection. Pure
// stdlib, no external numerics.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when a computation needs more samples.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoeffVar returns the coefficient of variation (stddev/mean); 0 when the
// mean is 0.
func CoeffVar(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / math.Abs(m)
}

// MinMax returns the extrema; zeros for empty input.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Summary bundles the standard descriptive statistics.
type Summary struct {
	N                  int
	Mean, StdDev, CV   float64
	Min, Median, Max   float64
	P25, P75, P95, P99 float64
}

// Summarize computes descriptive statistics for xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Mean = Mean(xs)
	s.StdDev = StdDev(xs)
	s.CV = CoeffVar(xs)
	s.Min, s.Max = MinMax(xs)
	sorted := sortedCopy(xs)
	s.Median = quantileSorted(sorted, 0.5)
	s.P25 = quantileSorted(sorted, 0.25)
	s.P75 = quantileSorted(sorted, 0.75)
	s.P95 = quantileSorted(sorted, 0.95)
	s.P99 = quantileSorted(sorted, 0.99)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantileSorted(sortedCopy(xs), q)
}

// sortedCopy returns xs sorted, leaving xs as it is.
func sortedCopy(xs []float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted
}

// quantileSorted is Quantile of a non-empty sample sorted in ascending
// order (sort.Float64s), which it does not copy.
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Pearson returns the Pearson correlation coefficient of paired samples.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(xs) < 2 {
		return 0, ErrInsufficientData
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman returns the Spearman rank correlation of paired samples.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	return Pearson(ranks(xs), ranks(ys))
}

// ranks assigns average ranks (ties share the mean rank).
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// LinearFit is y = Intercept + Slope*x.
type LinearFit struct {
	Slope, Intercept float64
	R2               float64
}

// LinearRegression fits ordinary least squares on paired samples.
func LinearRegression(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return LinearFit{}, ErrInsufficientData
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: degenerate x")
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		fit.R2 = sxy * sxy / (sxx * syy)
	}
	return fit, nil
}

// Predict evaluates the fit at x.
func (f LinearFit) Predict(x float64) float64 { return f.Intercept + f.Slope*x }

// MultiFit is y = Coef[0] + Coef[1]*x1 + ... (Coef[0] is the intercept).
type MultiFit struct {
	Coef []float64
}

// MultipleRegression fits OLS with k features via the normal equations
// solved by Gaussian elimination with partial pivoting.
func MultipleRegression(X [][]float64, y []float64) (MultiFit, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return MultiFit{}, ErrInsufficientData
	}
	k := len(X[0])
	for _, row := range X {
		if len(row) != k {
			return MultiFit{}, errors.New("stats: ragged feature matrix")
		}
	}
	d := k + 1 // with intercept column
	if n < d {
		return MultiFit{}, ErrInsufficientData
	}
	// Build normal equations A w = b where A = Z'Z, b = Z'y, Z = [1 X].
	A := make([][]float64, d)
	b := make([]float64, d)
	for i := range A {
		A[i] = make([]float64, d)
	}
	zrow := make([]float64, d)
	for r := 0; r < n; r++ {
		zrow[0] = 1
		copy(zrow[1:], X[r])
		for i := 0; i < d; i++ {
			b[i] += zrow[i] * y[r]
			for j := 0; j < d; j++ {
				A[i][j] += zrow[i] * zrow[j]
			}
		}
	}
	// Ridge epsilon for numerical safety on collinear features.
	for i := 0; i < d; i++ {
		A[i][i] += 1e-9
	}
	w, err := solve(A, b)
	if err != nil {
		return MultiFit{}, err
	}
	return MultiFit{Coef: w}, nil
}

// Predict evaluates the multiple regression at feature vector x.
func (f MultiFit) Predict(x []float64) float64 {
	y := f.Coef[0]
	for i, v := range x {
		if i+1 < len(f.Coef) {
			y += f.Coef[i+1] * v
		}
	}
	return y
}

// solve performs Gaussian elimination with partial pivoting.
func solve(A [][]float64, b []float64) ([]float64, error) {
	n := len(A)
	for col := 0; col < n; col++ {
		// Pivot.
		best := col
		for r := col + 1; r < n; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[best][col]) {
				best = r
			}
		}
		if math.Abs(A[best][col]) < 1e-12 {
			return nil, errors.New("stats: singular system")
		}
		A[col], A[best] = A[best], A[col]
		b[col], b[best] = b[best], b[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := A[r][col] / A[col][col]
			for c := col; c < n; c++ {
				A[r][c] -= f * A[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= A[r][c] * x[c]
		}
		x[r] = s / A[r][r]
	}
	return x, nil
}
