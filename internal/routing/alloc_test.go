package routing

import (
	"testing"

	"repro/internal/bits"
	"repro/internal/core"
)

// routeChunkedOnce routes an all-to-all demand whose payloads span
// several bandwidth chunks, exercising ExchangeUnicast's chunk-stream
// sender. Returns via t.Fatal on any routing error.
func routeChunkedOnce(tb testing.TB, n, bandwidth, payloadBits int) {
	rt := NewRouter(n)
	cfg := core.Config{N: n, Bandwidth: bandwidth, Model: core.Unicast, Seed: 3, Parallelism: 1}
	if _, err := core.RunProcs(cfg, func(p *core.Proc) error {
		var out []Msg
		for j := 0; j < n; j++ {
			if j == p.ID() {
				continue
			}
			b := bits.New(payloadBits)
			for k := 0; k < payloadBits; k += 24 {
				w := payloadBits - k
				if w > 24 {
					w = 24
				}
				b.WriteUint(uint64(p.ID()*131+j*17+k)&0xFFFFFF, w)
			}
			out = append(out, Msg{Src: p.ID(), Dst: j, Payload: b})
		}
		_, err := rt.Route(p, out, payloadBits)
		return err
	}); err != nil {
		tb.Fatalf("route: %v", err)
	}
}

// TestAllocRegressionRouting pins ExchangeUnicast's chunk sender: each
// chunk is cut into one reused scratch buffer that Send copies into one
// of the sender's own buffers, so streaming more chunks per message must
// not add per-chunk allocations. Same two-scale shape as the
// engine's TestAllocRegressionEngine — the fixed epoch setup cancels in
// the delta, leaving the per-extra-chunk cost. Matches the CI
// alloc-regression pattern (-run AllocRegression).
func TestAllocRegressionRouting(t *testing.T) {
	const n, bw = 8, 16
	// 13 payload bits + 3 header bits = 1 chunk; 141 + 3 = 9 chunks.
	short := testing.AllocsPerRun(5, func() { routeChunkedOnce(t, n, bw, 13) })
	long := testing.AllocsPerRun(5, func() { routeChunkedOnce(t, n, bw, 141) })
	// ~112 relay sends per chunk round (2 hops x 56 messages) over 8
	// extra chunk rounds per phase.
	perChunkRound := (long - short) / 8
	t.Logf("allocs: 1-chunk %.0f, 9-chunk %.0f (%.1f/extra chunk round)", short, long, perChunkRound)
	// The pooled-buffer sender paid ~2 allocs per relay send (frozen
	// view + pool churn) — hundreds per extra chunk round on this shape.
	// The scratch chunk pays ~0; allow slack for buffer regrowth on the
	// receive side.
	if perChunkRound > 40 {
		t.Errorf("routing allocates %.1f per extra chunk round, want ~0 (chunk-sender regression)", perChunkRound)
	}
}

// BenchmarkRouteChunkStream is the routing throughput benchmark folded
// into BENCH (scripts/bench.sh): an all-to-all demand with 9-chunk
// payloads on an 8-clique, dominated by ExchangeUnicast's chunk loop.
func BenchmarkRouteChunkStream(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		routeChunkedOnce(b, 8, 16, 141)
	}
}
