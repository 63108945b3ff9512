package des

import (
	"math"
	"math/rand"
)

// StreamRNG provides named, independent, deterministic random streams.
// Each stream's seed is derived from the root seed and the stream name, so
// adding a new stream never perturbs existing ones — essential for
// reproducible simulation experiments. Streams seed lazily (see
// lazySource): a stream that draws a few numbers never builds math/rand's
// 4.9 KB state, yet every stream's sequence is bit-identical to
// rand.New(rand.NewSource(derived)).
type StreamRNG struct {
	seed    int64
	streams map[string]*rand.Rand
}

// NewStreamRNG creates a stream RNG rooted at seed.
func NewStreamRNG(seed int64) *StreamRNG {
	r := &StreamRNG{streams: make(map[string]*rand.Rand)}
	r.Reset(seed)
	return r
}

// Reset re-roots r at seed. Every stream r has handed out is reseeded in
// place, so it draws exactly what the stream of that name of a fresh
// NewStreamRNG(seed) draws, and keeps its storage.
func (r *StreamRNG) Reset(seed int64) {
	r.seed = seed
	for name, rr := range r.streams {
		rr.Seed(r.derive(name))
	}
}

// derive is the seed of the stream named name.
func (r *StreamRNG) derive(name string) int64 {
	return int64(fnv1a(name) ^ uint64(r.seed)*0x9E3779B97F4A7C15)
}

// fnv1a hashes s into a 64-bit value (FNV-1a).
func fnv1a(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Stream returns the named stream, creating it on first use. The stream
// draws exactly the sequence math/rand gives its derived seed; its first
// 273 draws are computed from the seed alone.
func (r *StreamRNG) Stream(name string) *rand.Rand {
	if rr, ok := r.streams[name]; ok {
		return rr
	}
	rr := rand.New(newLazySource(r.derive(name)))
	r.streams[name] = rr
	return rr
}

// Seed returns the root seed.
func (r *StreamRNG) Seed() int64 { return r.seed }

// Exponential draws an exponentially distributed duration with the given
// mean from the named stream. Useful for arrival processes.
func (r *StreamRNG) Exponential(stream string, mean Time) Time {
	u := r.Stream(stream).Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return Time(-math.Log(u) * float64(mean))
}

// Uniform draws a uniformly distributed duration in [lo, hi) from the named
// stream.
func (r *StreamRNG) Uniform(stream string, lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(r.Stream(stream).Int63n(int64(hi-lo)))
}
