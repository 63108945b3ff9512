package stats

import "sort"

// CI is a two-sided confidence interval.
type CI struct {
	Lo, Hi float64
	// Level is the nominal coverage, e.g. 0.95.
	Level float64
}

// BootstrapCI estimates a percentile-bootstrap confidence interval for the
// mean of xs: it draws resamples with replacement, computes each resample
// mean, and returns the (1-level)/2 and 1-(1-level)/2 quantiles of the
// resample-mean distribution. The resampling PRNG is self-contained and
// seeded, so the interval is bit-identical across runs and Go versions —
// the property the campaign runner's determinism guarantee rests on.
//
// Degenerate inputs collapse gracefully: an empty sample yields {0, 0} and
// a single observation yields {x, x}.
func BootstrapCI(xs []float64, resamples int, level float64, seed int64) CI {
	if level <= 0 || level >= 1 {
		level = 0.95
	}
	ci := CI{Level: level}
	switch len(xs) {
	case 0:
		return ci
	case 1:
		ci.Lo, ci.Hi = xs[0], xs[0]
		return ci
	}
	if resamples <= 0 {
		resamples = 1000
	}
	means := resampleMeans(xs, resamples, seed)
	alpha := (1 - level) / 2
	sort.Float64s(means)
	ci.Lo = quantileSorted(means, alpha)
	ci.Hi = quantileSorted(means, 1-alpha)
	return ci
}

// resampleMeans returns the means of resamples resamples of xs drawn
// with replacement from a SplitMix64 stream seeded with seed.
func resampleMeans(xs []float64, resamples int, seed int64) []float64 {
	state := uint64(seed)
	means := make([]float64, resamples)
	n := len(xs)
	for i := range means {
		var s float64
		for j := 0; j < n; j++ {
			s += xs[splitmix64(&state)%uint64(n)]
		}
		means[i] = s / float64(n)
	}
	return means
}

// splitmix64 advances a SplitMix64 state and returns the next output, a
// tiny deterministic PRNG independent of math/rand's algorithm choices.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
