package des

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// streamOp applies one scripted operation to r and returns what it drew,
// as bits. op selects the method; arg sizes the bounded draws and is the
// new seed of a Seed operation, which draws nothing.
func streamOp(r *rand.Rand, op byte, arg int64) uint64 {
	switch op % 8 {
	case 0:
		return uint64(r.Int63())
	case 1:
		return r.Uint64()
	case 2:
		return uint64(r.Int63n(1 + arg&(1<<40-1)))
	case 3:
		return uint64(r.Intn(1 + int(arg&(1<<24-1))))
	case 4:
		return math.Float64bits(r.Float64())
	case 5:
		return math.Float64bits(r.NormFloat64())
	case 6:
		return math.Float64bits(r.ExpFloat64())
	default:
		r.Seed(arg)
		return 0
	}
}

// edgeSeeds are seeds at the edges of math/rand's normalisation (seed mod
// 2³¹−1, with 0 remapped to 89482311), plus ordinary ones.
var edgeSeeds = []int64{
	0, -1, 1, 42, int32max, 2 * int32max, -int32max, 1000 * int32max,
	math.MinInt64, math.MaxInt64, 89482311,
	int64(fnv1a("ior.rank0")),
}

// TestStreamMatchesMathRand drives a lazily seeded stream and math/rand's
// own source side by side through 2,000 operations per seed, cycling
// through every drawing method, with a Seed half way so both the lazy
// draws and the switch to the full state run twice.
func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		got, want := rand.New(newLazySource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			op := byte(i % 7)
			arg := seed ^ int64(i)*0x5DEECE66D
			if i == 1000 {
				op, arg = 7, seed+1
			}
			if g, w := streamOp(got, op, arg), streamOp(want, op, arg); g != w {
				t.Fatalf("seed %d, op %d (%d): lazy source drew %#x, math/rand %#x", seed, i, op, g, w)
			}
		}
	}
}

// TestStreamAllocs pins a fresh named stream plus 16 Int63n draws — an IOR
// random-pattern rank's use — at two small objects: the rand.Rand and its
// lazy source. math/rand's up-front seeding allocates 4.9 KB.
func TestStreamAllocs(t *testing.T) {
	r := NewStreamRNG(42)
	const name = "ior.rank0"
	stream := func() {
		s := r.Stream(name)
		for i := 0; i < 16; i++ {
			s.Int63n(1 << 30)
		}
		delete(r.streams, name)
	}
	stream()
	allocs := testing.AllocsPerRun(100, stream)
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		stream()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / n
	if allocs != 2 || bytes > 96 {
		t.Errorf("fresh stream + 16 draws: %v allocs, %d B; want 2 allocs, <= 96 B", allocs, bytes)
	}
}

// FuzzStreamSource checks the lazy source against math/rand's for any seed
// and operation script: draws operations are applied, the script's bytes
// chosen in turn. The corpus puts the draw count on each side of the
// switch to the full state (273) and of one register length (607).
func FuzzStreamSource(f *testing.F) {
	for _, seed := range edgeSeeds {
		for _, draws := range []uint16{272, 273, 274, 275, 607, 608, 2000} {
			f.Add(seed, draws, []byte{0})
		}
	}
	f.Add(int64(42), uint16(2000), []byte{0, 1, 2, 3, 4, 5, 6})
	reseed := make([]byte, 600)
	reseed[300] = 7
	f.Add(int64(7), uint16(1200), reseed)
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, script []byte) {
		if len(script) == 0 {
			script = []byte{0}
		}
		got, want := rand.New(newLazySource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < int(draws); i++ {
			op, arg := script[i%len(script)], seed+int64(i)
			if g, w := streamOp(got, op, arg), streamOp(want, op, arg); g != w {
				t.Fatalf("seed %d, op %d (%d): lazy source drew %#x, math/rand %#x", seed, i, op, g, w)
			}
		}
	})
}
