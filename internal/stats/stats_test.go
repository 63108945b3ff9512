package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("mean = %v", got)
	}
	if got := Variance(xs); !approx(got, 32.0/7, 1e-12) {
		t.Errorf("variance = %v", got)
	}
	if got := StdDev(xs); !approx(got, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("stddev = %v", got)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("edge cases")
	}
}

func TestCoeffVar(t *testing.T) {
	if got := CoeffVar([]float64{10, 10, 10}); got != 0 {
		t.Errorf("constant CV = %v", got)
	}
	if CoeffVar(nil) != 0 {
		t.Error("empty CV")
	}
	spread := CoeffVar([]float64{1, 100})
	tight := CoeffVar([]float64{50, 51})
	if spread <= tight {
		t.Error("CV should reflect relative spread")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !approx(got, c.want, 1e-12) {
			t.Errorf("Q(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{1, 2}, 0.5); !approx(got, 1.5, 1e-12) {
		t.Errorf("interpolated median = %v", got)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 100})
	if s.N != 5 || s.Min != 1 || s.Max != 100 || s.Median != 3 {
		t.Errorf("summary = %+v", s)
	}
	if s.P95 <= s.P75 {
		t.Error("quantiles not ordered")
	}
	if z := Summarize(nil); z.N != 0 {
		t.Error("empty summary")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil || !approx(r, 1, 1e-12) {
		t.Errorf("perfect correlation = %v, %v", r, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !approx(r, -1, 1e-12) {
		t.Errorf("perfect anticorrelation = %v", r)
	}
	r, err = Pearson(xs, []float64{5, 5, 5, 5, 5})
	if err != nil || r != 0 {
		t.Errorf("constant series = %v, %v", r, err)
	}
	if _, err := Pearson(xs, ys[:3]); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("single sample should error")
	}
}

func TestSpearmanMonotoneNonlinear(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x) // monotone but nonlinear
	}
	rho, err := Spearman(xs, ys)
	if err != nil || !approx(rho, 1, 1e-12) {
		t.Errorf("spearman = %v, %v (want 1)", rho, err)
	}
	pear, _ := Pearson(xs, ys)
	if pear >= rho {
		t.Errorf("pearson (%v) should undershoot spearman (%v) on nonlinear data", pear, rho)
	}
}

func TestRanksWithTies(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}

func TestLinearRegression(t *testing.T) {
	// y = 3 + 2x with noise-free data.
	var xs, ys []float64
	for x := 0.0; x < 10; x++ {
		xs = append(xs, x)
		ys = append(ys, 3+2*x)
	}
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(fit.Slope, 2, 1e-9) || !approx(fit.Intercept, 3, 1e-9) || !approx(fit.R2, 1, 1e-9) {
		t.Errorf("fit = %+v", fit)
	}
	if got := fit.Predict(100); !approx(got, 203, 1e-9) {
		t.Errorf("predict = %v", got)
	}
	if _, err := LinearRegression([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("degenerate x should error")
	}
}

func TestMultipleRegression(t *testing.T) {
	// y = 1 + 2a + 3b
	rng := rand.New(rand.NewSource(1))
	var X [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		X = append(X, []float64{a, b})
		y = append(y, 1+2*a+3*b)
	}
	fit, err := MultipleRegression(X, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i, w := range want {
		if !approx(fit.Coef[i], w, 1e-6) {
			t.Errorf("coef[%d] = %v, want %v", i, fit.Coef[i], w)
		}
	}
	if got := fit.Predict([]float64{1, 1}); !approx(got, 6, 1e-6) {
		t.Errorf("predict = %v", got)
	}
	if _, err := MultipleRegression(nil, nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := MultipleRegression([][]float64{{1}, {2, 3}}, []float64{1, 2}); err == nil {
		t.Error("ragged matrix should error")
	}
}

// Property: Pearson is within [-1, 1] for any non-degenerate paired data.
func TestPropPearsonBounds(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		xs, ys := raw[:n], raw[n:2*n]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			return true
		}
		return r >= -1.0000001 && r <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are monotone in q.
func TestPropQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a := math.Abs(math.Mod(q1, 1))
		b := math.Abs(math.Mod(q2, 1))
		if a > b {
			a, b = b, a
		}
		return Quantile(raw, a) <= Quantile(raw, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAutocorrelation(t *testing.T) {
	// Perfectly periodic square wave, period 4.
	var xs []float64
	for i := 0; i < 64; i++ {
		if i%4 < 2 {
			xs = append(xs, 1)
		} else {
			xs = append(xs, -1)
		}
	}
	if r := Autocorrelation(xs, 0); !approx(r, 1, 1e-12) {
		t.Errorf("lag-0 = %v", r)
	}
	if r := Autocorrelation(xs, 4); r < 0.8 {
		t.Errorf("lag-4 = %v, want high", r)
	}
	if r := Autocorrelation(xs, 2); r > -0.8 {
		t.Errorf("lag-2 = %v, want strongly negative", r)
	}
	if Autocorrelation(xs, -1) != 0 || Autocorrelation(xs, 1000) != 0 {
		t.Error("out-of-range lags")
	}
	if Autocorrelation([]float64{5, 5, 5}, 1) != 0 {
		t.Error("constant series")
	}
}

func TestDetectPeriod(t *testing.T) {
	var xs []float64
	for i := 0; i < 120; i++ {
		v := 0.0
		if i%10 == 0 {
			v = 100 // a burst every 10 samples
		}
		xs = append(xs, v)
	}
	period, strength := DetectPeriod(xs, 2, 40, 0.3)
	if period != 10 {
		t.Fatalf("period = %d (strength %.2f), want 10", period, strength)
	}
	// White noise: no period.
	rng := rand.New(rand.NewSource(4))
	var noise []float64
	for i := 0; i < 200; i++ {
		noise = append(noise, rng.NormFloat64())
	}
	if p, _ := DetectPeriod(noise, 2, 50, 0.5); p != 0 {
		t.Errorf("noise period = %d, want 0", p)
	}
}

// TestQuantilesSortOnce: Summarize's quantiles, taken from one sorted
// copy, and BootstrapCI's bounds, taken from its resample means sorted in
// place, are bit for bit what a Quantile call per quantile gives, on
// generated samples with ties, zeros, negative values and signed zeros;
// and each sorts one sample, allocating one copy.
func TestQuantilesSortOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for c := 0; c < 500; c++ {
		xs := make([]float64, 1+rng.Intn(40))
		for i := range xs {
			switch rng.Intn(5) {
			case 0:
				xs[i] = float64(rng.Intn(4)) // ties
			case 1:
				xs[i] = math.Copysign(0, -1)
			default:
				xs[i] = rng.NormFloat64() * 1e3
			}
		}
		orig := append([]float64(nil), xs...)
		s := Summarize(xs)
		for _, q := range []struct {
			name string
			got  float64
			q    float64
		}{{"median", s.Median, 0.5}, {"p25", s.P25, 0.25}, {"p75", s.P75, 0.75}, {"p95", s.P95, 0.95}, {"p99", s.P99, 0.99}} {
			if want := Quantile(xs, q.q); !same(q.got, want) {
				t.Fatalf("case %d %s: Summarize %v, Quantile %v (sample %v)", c, q.name, q.got, want, xs)
			}
		}
		if len(xs) > 1 {
			seed, level := rng.Int63(), []float64{0.9, 0.95, 0.99}[rng.Intn(3)]
			ci := BootstrapCI(xs, 200, level, seed)
			means := resampleMeans(xs, 200, seed)
			alpha := (1 - level) / 2
			if lo, hi := Quantile(means, alpha), Quantile(means, 1-alpha); !same(ci.Lo, lo) || !same(ci.Hi, hi) {
				t.Fatalf("case %d: BootstrapCI [%v, %v], Quantile [%v, %v]", c, ci.Lo, ci.Hi, lo, hi)
			}
		}
		for i := range xs {
			if !same(xs[i], orig[i]) {
				t.Fatalf("case %d: the sample changed at %d", c, i)
			}
		}
	}
	xs := []float64{3, 1, 2, 5, 4}
	if n := testing.AllocsPerRun(10, func() { Summarize(xs) }); n != 1 {
		t.Errorf("Summarize: %v allocs, want 1 (the sorted copy)", n)
	}
	if n := testing.AllocsPerRun(10, func() { BootstrapCI(xs, 100, 0.95, 1) }); n != 1 {
		t.Errorf("BootstrapCI: %v allocs, want 1 (the resample means)", n)
	}
}
