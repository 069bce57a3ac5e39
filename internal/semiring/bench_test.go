package semiring

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// Local-kernel benchmarks: the blocked kernels against the triple-loop
// oracle at a hot-path size (tracked over time by scripts/bench.sh).

func benchPair(b *testing.B, sr Semiring, n int) (*Matrix, *Matrix) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return ringRandom(sr, n, n, rng), ringRandom(sr, n, n, rng)
}

func BenchmarkMinPlusNaive128(b *testing.B) {
	x, y := benchPair(b, MinPlus, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NaiveMul(MinPlus, x, y)
	}
}

func BenchmarkMinPlusBlocked128(b *testing.B) {
	x, y := benchPair(b, MinPlus, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mulBlockedMinPlus(x, y)
	}
}

func BenchmarkCountBlocked128(b *testing.B) {
	x, y := benchPair(b, Counting, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mulBlockedCount(x, y)
	}
}

func BenchmarkBoolPacked256(b *testing.B) {
	x, y := benchPair(b, Boolean, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Boolean.MulLocal(x, y)
	}
}

// Protocol benchmarks: one full distributed multiplication per iteration,
// naive vs cube, at a size where the cube geometry is non-degenerate.

func BenchmarkMMNaive27(b *testing.B) {
	x, y := benchPair(b, MinPlus, 27)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunMM(core.Env{}, MinPlus, x, y, Naive, 64, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMMCube27(b *testing.B) {
	x, y := benchPair(b, MinPlus, 27)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunMM(core.Env{}, MinPlus, x, y, Cube, 64, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAPSPNaive24(b *testing.B) {
	wg := graph.WeightedGnp(24, 0.25, 100, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := APSP(core.Env{}, wg, Naive, 64, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}
