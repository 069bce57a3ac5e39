package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bits"
	"repro/internal/graph"
)

// Engine benchmarks: the round loop itself, under the shapes that
// dominate the experiment drivers. Each shape runs under the sequential
// oracle (Parallelism=1) and the worker pool (Parallelism=0, i.e.
// GOMAXPROCS workers) so the parallel speedup is a visible number;
// b.ReportAllocs makes the zero-copy savings visible too.
//
// Seed-engine baselines (sequential, deep-copy delivery, the shapes
// written as per-round step callbacks rather than Proc bodies; 1 vCPU)
// for the trajectory record:
//
//	RunGossip/N=64            4.84ms  50269 allocs/op
//	RunGossip/N=256          26.80ms 205212 allocs/op
//	RunBroadcastFanout/N=64   3.79ms  82312 allocs/op
//	RunBroadcastFanout/N=256 63.08ms 1312264 allocs/op

// gossipBody is an N-node unicast protocol in which every node, for
// `rounds` rounds, sends a Bandwidth-bit message to `fanout` pseudorandom
// destinations and XOR-folds everything it receives. Per-node work is
// independent, so it exposes the stepping overhead of the round loop.
// The schedule is fixed, so it runs through Proc.Rounds, the path most
// protocol rounds take. Each node builds its messages in one reused
// buffer (Send copies it) and reads through a stack Reader, so the steady
// state of the loop allocates nothing.
func gossipBody(rounds, fanout int) func(*Proc) error {
	return func(p *Proc) error {
		var acc uint64
		var m bits.Buffer
		err := p.Rounds(rounds, func(r int) error {
			for k := 0; k < fanout; k++ {
				dst := p.Rand().Intn(p.N())
				if dst == p.ID() || p.sentTo(dst) {
					continue // collision with an earlier draw this round
				}
				m.Reset()
				m.WriteUint(uint64(p.ID())<<16^uint64(r+k), 32)
				if err := p.Send(dst, &m); err != nil {
					return err
				}
			}
			return nil
		}, func(_ int, in []*bits.Buffer) error {
			var rd bits.Reader
			for _, msg := range in {
				if msg == nil {
					continue
				}
				rd.Reset(msg)
				v, err := rd.ReadUint(32)
				if err != nil {
					return err
				}
				acc ^= v
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.SetOutput(acc)
		return nil
	}
}

// bcastBody is an N-node unicast protocol in which every node broadcasts
// a Bandwidth-bit message each round — the clone-heavy shape: the seed
// engine deep-copied each broadcast N-1 times, the engine now copies it
// once into the node's broadcast buffer.
func bcastBody(rounds int) func(*Proc) error {
	return func(p *Proc) error {
		var m bits.Buffer
		err := p.Rounds(rounds, func(r int) error {
			m.Reset()
			m.WriteUint(uint64(p.ID())*31+uint64(r), 32)
			return p.Broadcast(&m)
		}, nil)
		if err != nil {
			return err
		}
		p.SetOutput(p.Round())
		return nil
	}
}

// engineModes pairs the sequential oracle with the worker pool.
func engineModes() []struct {
	name string
	par  int
} {
	return []struct {
		name string
		par  int
	}{
		{"seq", 1},
		{fmt.Sprintf("par%d", runtime.GOMAXPROCS(0)), 0},
	}
}

func benchRun(b *testing.B, rounds int, body func(*Proc) error, cfg Config) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunProcs(cfg, body)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Steps < rounds {
			b.Fatalf("short run: %d steps", res.Stats.Steps)
		}
	}
}

func BenchmarkRunGossip(b *testing.B) {
	const rounds, fanout = 20, 8
	for _, n := range []int{64, 256} {
		for _, mode := range engineModes() {
			cfg := Config{N: n, Bandwidth: 32, Model: Unicast, Seed: 7, Parallelism: mode.par}
			b.Run(fmt.Sprintf("N=%d/%s", n, mode.name), func(b *testing.B) {
				benchRun(b, rounds, gossipBody(rounds, fanout), cfg)
			})
		}
	}
}

// BenchmarkRunBroadcastFanout measures the unicast broadcast-sugar path,
// where zero-copy delivery replaces N-1 payload clones per broadcast.
func BenchmarkRunBroadcastFanout(b *testing.B) {
	const rounds = 10
	for _, n := range []int{64, 256} {
		for _, mode := range engineModes() {
			cfg := Config{N: n, Bandwidth: 32, Model: Unicast, Seed: 11, Parallelism: mode.par}
			b.Run(fmt.Sprintf("N=%d/%s", n, mode.name), func(b *testing.B) {
				benchRun(b, rounds, bcastBody(rounds), cfg)
			})
		}
	}
}

// BenchmarkEngineScaling sweeps an explicit worker curve (1/2/4/8) over
// the two engine-bound shapes at N=256 — the multicore scaling record
// that scripts/bench.sh folds into BENCH_<date>.json as engine_scaling.
// On a 1-CPU box every width degenerates to time-sliced goroutines; the
// curve is meaningful on GOMAXPROCS >= 4 runners (the CI scaling job).
func BenchmarkEngineScaling(b *testing.B) {
	const n = 256
	shapes := []struct {
		name   string
		rounds int
		body   func(*Proc) error
	}{
		{"gossip", 20, gossipBody(20, 8)},
		{"bcast", 10, bcastBody(10)},
	}
	for _, sh := range shapes {
		for _, w := range []int{1, 2, 4, 8} {
			cfg := Config{N: n, Bandwidth: 32, Model: Unicast, Seed: 7, Parallelism: w}
			b.Run(fmt.Sprintf("%s/N=%d/w=%d", sh.name, n, w), func(b *testing.B) {
				benchRun(b, sh.rounds, sh.body, cfg)
			})
		}
	}
}

// BenchmarkRunProcsGossip exercises the coroutine-per-node (Proc) surface
// on a congest ring, the third protocol family.
func BenchmarkRunProcsGossip(b *testing.B) {
	const rounds = 20
	n := 64
	topo := graph.Cycle(n)
	for _, mode := range engineModes() {
		cfg := Config{N: n, Bandwidth: 32, Model: Congest, Topology: topo, Seed: 13, Parallelism: mode.par}
		b.Run(fmt.Sprintf("N=%d/%s", n, mode.name), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunProcs(cfg, procBroadcastBody(rounds)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
