package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sketch"
)

// E16SketchConnectivity is the linear-sketch connectivity ablation
// (DESIGN.md §10): ℓ0-sampling Borůvka — merged component sketches
// concentrated at leaders — against the non-sketch broadcast-Borůvka
// baseline that re-ships raw n-bit adjacency rows every phase.
//
// The sketch ladder runs O(log n) phases and moves O(polylog n) bits per
// player per phase, while the baseline moves Θ(n²) bits per phase
// (n players × (n-1) links × n-bit rows in CLIQUE-UCAST); the rounds·bits
// product separates as n grows and the full sweep asserts the sketch
// protocol wins it at n=256. Round growth is pinned against the
// analytic per-phase cost: phases stay within the ceil(log2 n) Borůvka
// bound (plus recovery-stall slack) at every size.
func E16SketchConnectivity(w io.Writer, quick bool, env Env) error {
	header(w, "E16", "ℓ0-sketch connectivity — sketch Borůvka vs broadcast-Borůvka baseline")

	const bandwidth = 32

	// (a) Aggregation ablation at one size: direct single-link stack
	// streaming vs Lenzen-routed per-copy concentration. Same merges,
	// same answer; the router spreads the ship load over all links.
	n0 := 32
	g0 := graph.ComponentsGnp(n0, 2, 0.25, rand.New(rand.NewSource(160)))
	var agg0 [2]*sketch.CCResult
	for i, agg := range []sketch.Aggregation{sketch.DirectAgg, sketch.LenzenAgg} {
		res, err := sketch.ConnectedComponents(env.Engine, g0, agg, bandwidth, 16)
		if err != nil {
			return fmt.Errorf("E16(a) %v: %w", agg, err)
		}
		agg0[i] = res
		fmt.Fprintf(w, "(a) n=%d %-7s agg: comps=%d phases=%d rounds=%d bits=%d maxnode=%d\n",
			n0, agg, res.Components, res.Phases, res.Stats.Rounds, res.Stats.TotalBits, res.Stats.MaxNodeBits)
	}
	if agg0[0].Components != agg0[1].Components || len(agg0[0].Forest) != len(agg0[1].Forest) {
		return fmt.Errorf("E16(a): direct and Lenzen aggregation disagree on the answer")
	}

	// (b) The scaling sweep: sketch vs baseline connectivity across
	// sizes, on a 3-component instance. p = 8/n keeps ~8/3 expected
	// gnp neighbors inside each n/3-vertex blob at every size (the
	// embedded spanning tree of ComponentsGnp guarantees connectivity
	// regardless), so density per blob is size-invariant.
	sizes := []int{16, 64, 256}
	if quick {
		sizes = []int{16, 64}
	}
	fmt.Fprintf(w, "\n(b) connectivity on CLIQUE-UCAST(n, %d), 3-component instances:\n", bandwidth)
	fmt.Fprintf(w, "%6s %10s %8s %8s %12s %12s %16s %10s\n",
		"n", "protocol", "phases", "rounds", "totalBits", "maxNodeBits", "rounds·bits", "vs base")
	for _, n := range sizes {
		p := 8.0 / float64(n) // ~8 expected intra-blob neighbors
		if p > 0.5 {
			p = 0.5
		}
		g := graph.ComponentsGnp(n, 3, p, rand.New(rand.NewSource(int64(n))))
		ref := sketch.UnionFindComponents(g)

		sk, err := sketch.ConnectedComponents(env.Engine, g, sketch.LenzenAgg, bandwidth, int64(n)+1)
		if err != nil {
			return fmt.Errorf("E16(b) n=%d sketch: %w", n, err)
		}
		base, err := sketch.BroadcastBoruvka(env.Engine, g, bandwidth, int64(n)+2)
		if err != nil {
			return fmt.Errorf("E16(b) n=%d baseline: %w", n, err)
		}
		for v := range ref {
			if sk.Leader[v] != ref[v] || base.Leader[v] != ref[v] {
				return fmt.Errorf("E16(b) n=%d: protocol labels diverge from union-find at vertex %d", n, v)
			}
		}

		skCost := int64(sk.Stats.Rounds) * sk.Stats.TotalBits
		baseCost := int64(base.Stats.Rounds) * base.Stats.TotalBits
		fmt.Fprintf(w, "%6d %10s %8d %8d %12d %12d %16d %10s\n",
			n, "sketch", sk.Phases, sk.Stats.Rounds, sk.Stats.TotalBits, sk.Stats.MaxNodeBits, skCost, "")
		fmt.Fprintf(w, "%6d %10s %8d %8d %12d %12d %16d %10.2fx\n",
			n, "baseline", base.Phases, base.Stats.Rounds, base.Stats.TotalBits, base.Stats.MaxNodeBits, baseCost,
			float64(baseCost)/float64(skCost))

		// Machine-greppable record (scripts/bench.sh folds the n=256 one
		// into BENCH_<date>.json).
		fmt.Fprintf(w, "E16RECORD n=%d sketch_phases=%d sketch_rounds=%d sketch_bits=%d baseline_rounds=%d baseline_bits=%d cost_ratio=%.3f\n",
			n, sk.Phases, sk.Stats.Rounds, sk.Stats.TotalBits, base.Stats.Rounds, base.Stats.TotalBits,
			float64(baseCost)/float64(skCost))

		// O(log n) round tracking: the phase count must stay within the
		// Borůvka ceil(log2 n) bound plus the stack slack, and the round
		// count within phases × the analytic per-phase cost (proposal
		// broadcast + routed per-copy stack concentration).
		if maxPhases := sketch.Copies(n, 1); sk.Phases > maxPhases {
			return fmt.Errorf("E16(b) n=%d: %d phases exceed the O(log n) stack bound %d", n, sk.Phases, maxPhases)
		}
		perPhase := e16PerPhaseRounds(n, bandwidth)
		if limit := sk.Phases * perPhase; sk.Stats.Rounds > limit {
			return fmt.Errorf("E16(b) n=%d: %d rounds exceed phases × per-phase bound %d×%d",
				n, sk.Stats.Rounds, sk.Phases, perPhase)
		}
		if !quick && n >= 256 && skCost >= baseCost {
			return fmt.Errorf("E16(b) n=%d: sketch rounds·bits %d >= baseline %d — sketching stopped paying",
				n, skCost, baseCost)
		}
	}
	fmt.Fprintf(w, "(sketch ships O(polylog n) bits per player per phase; the baseline re-broadcasts Θ(n)-bit raw rows)\n")

	// (c) Spanning forest and MST smoke at one size: certificates verify
	// and the weight-class ladder reproduces the exact MSF weight.
	nWS := 48
	if quick {
		nWS = 24
	}
	gw := graph.ComponentsGnp(nWS, 2, 10.0/float64(nWS), rand.New(rand.NewSource(163)))
	sf, err := sketch.SpanningForest(env.Engine, gw, sketch.LenzenAgg, bandwidth, 31)
	if err != nil {
		return fmt.Errorf("E16(c) spanning forest: %w", err)
	}
	fmt.Fprintf(w, "\n(c) spanning forest n=%d: %d certified edges over %d components, %d rounds — all certificates verify\n",
		nWS, len(sf.Forest), sf.Components, sf.Stats.Rounds)

	wg := graph.WeightedFromSeed(gw, 164, 3)
	mst, err := sketch.MST(env.Engine, wg, 3, sketch.LenzenAgg, bandwidth, 33)
	if err != nil {
		return fmt.Errorf("E16(c) MST: %w", err)
	}
	want := sketch.KruskalMSF(wg)
	if mst.TotalWeight != want.TotalWeight {
		return fmt.Errorf("E16(c): sketch MSF weighs %d, Kruskal %d", mst.TotalWeight, want.TotalWeight)
	}
	fmt.Fprintf(w, "    MSF by weight-class filtering: weight %d = Kruskal, %d classes, %d phases, %d rounds\n",
		mst.TotalWeight, 3, mst.Phases, mst.Stats.Rounds)
	return nil
}

// e16PerPhaseRounds is the analytic per-phase round budget of the
// Lenzen-aggregated sketch ladder: the chunked proposal broadcast plus
// the routed stack concentration — each routed message carries one
// sampler (+ class/copy tags) and the 2-hop relay chunks at the
// bandwidth, with the coloring contributing at most a small constant
// number of sub-rounds at these demands.
func e16PerPhaseRounds(n, bandwidth int) int {
	universe := sketch.EdgeUniverse(n)
	idW := sketch.IDBits(universe)
	sample := sketch.NewSampler(universe, sketch.DefaultFpBits, 0).WireBits()
	prop := core.ChunkRounds(2+idW, bandwidth)
	relay := core.ChunkRounds(16+sample, bandwidth) // tags + routed header
	const colorSlack = 4                            // sub-rounds from the edge coloring
	return prop + 2*colorSlack*relay
}
