package sketch

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func BenchmarkSamplerToggle(b *testing.B) {
	s := NewSampler(32640, DefaultFpBits, 7) // the n=256 edge universe
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Toggle(uint64(i % 32640))
	}
}

func BenchmarkSamplerMerge(b *testing.B) {
	s := NewSampler(32640, DefaultFpBits, 7)
	o := NewSampler(32640, DefaultFpBits, 7)
	for i := 0; i < 100; i++ {
		o.Toggle(uint64(i * 37 % 32640))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Merge(o)
	}
}

func BenchmarkSamplerRecover(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	s := NewSampler(32640, DefaultFpBits, 7)
	for i := 0; i < 40; i++ {
		s.Toggle(uint64(rng.Intn(32640)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Recover()
	}
}

// BenchmarkConnectivity64 runs the full Lenzen-aggregated sketch ladder
// on a 3-component 64-player instance — the mid-size point of E16.
func BenchmarkConnectivity64(b *testing.B) {
	g := graph.ComponentsGnp(64, 3, 0.125, rand.New(rand.NewSource(64)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ConnectedComponents(core.Env{}, g, LenzenAgg, 32, 65); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcastBoruvka64 is the matching baseline run.
func BenchmarkBroadcastBoruvka64(b *testing.B) {
	g := graph.ComponentsGnp(64, 3, 0.125, rand.New(rand.NewSource(64)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BroadcastBoruvka(core.Env{}, g, 32, 66); err != nil {
			b.Fatal(err)
		}
	}
}
