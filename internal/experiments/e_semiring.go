package experiments

import (
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/semiring"
)

// E15SemiringMM is the naive-vs-cube-partition matrix-multiplication
// ablation of the semiring subsystem (DESIGN.md §9): the row-broadcast
// oracle protocol against the Censor-Hillel-style cube partition with
// Lenzen-routed redistribution, on CLIQUE-UCAST(n, 64).
//
// The cube protocol replicates each input entry n^{1/3} times but routes
// it once, where row-broadcast copies every row to all n-1 links: total
// bits fall from Θ(n³·w) to Θ(n^{7/3}·w) while rounds grow only by the
// routing constant. The rounds·bits product therefore crosses over in
// the cube's favor as n grows — at these parameters between n=27 and
// n=64 — and the full sweep asserts the crossover at n=64.
func E15SemiringMM(w io.Writer, quick bool, env Env) error {
	header(w, "E15", "semiring MM ablation — naive row-broadcast vs cube partition")

	// (a) Backend equivalence: both protocols must reproduce the local
	// ⊕/⊗ oracle product on every backend, through both local kernels.
	n0 := 12
	wg0 := graph.WeightedGnp(n0, 0.3, 1000, 15)
	for _, sr := range semiring.Rings() {
		a := matrixForRing(sr, wg0)
		b := transposeLike(sr, a)
		want := semiring.NaiveMul(sr, a, b)
		for _, proto := range []semiring.Protocol{semiring.Naive, semiring.Cube} {
			for _, mul := range []semiring.LocalMul{semiring.NaiveKernel(sr), semiring.Kernel(sr)} {
				res, err := semiring.RunMM(env.Engine, sr, a, b, proto, 64, 15, mul)
				if err != nil {
					return fmt.Errorf("E15(a) %s/%s: %w", sr.Name(), proto, err)
				}
				if !res.Product.Equal(want) {
					return fmt.Errorf("E15(a) %s/%s: clique product differs from the local oracle", sr.Name(), proto)
				}
			}
		}
	}
	fmt.Fprintf(w, "(a) equivalence: naive = cube = local oracle on all %d backends (n=%d, both kernels)\n",
		len(semiring.Rings()), n0)

	// (b) The ablation: min-plus MM across sizes, both protocols.
	sizes := []int{16, 27, 64}
	if quick {
		sizes = []int{8, 16}
	}
	fmt.Fprintf(w, "\n(b) min-plus n×n MM on CLIQUE-UCAST(n, 64), uint32 entries:\n")
	fmt.Fprintf(w, "%6s %10s %8s %12s %16s %10s\n", "n", "protocol", "rounds", "totalBits", "rounds·bits", "vs naive")
	for _, n := range sizes {
		wg := graph.WeightedGnp(n, 0.3, 1000, int64(n))
		d := semiring.DistanceMatrix(wg)
		var cost [2]int64
		var stats [2]struct{ rounds, bits int64 }
		var naiveProduct *semiring.Matrix
		for pi, proto := range []semiring.Protocol{semiring.Naive, semiring.Cube} {
			res, err := semiring.RunMM(env.Engine, semiring.MinPlus, d, d, proto, 64, int64(n)+1, nil)
			if err != nil {
				return fmt.Errorf("E15(b) n=%d %s: %w", n, proto, err)
			}
			if pi == 0 {
				naiveProduct = res.Product
			} else if !res.Product.Equal(naiveProduct) {
				return fmt.Errorf("E15(b) n=%d: cube and naive products differ", n)
			}
			stats[pi].rounds = int64(res.Stats.Rounds)
			stats[pi].bits = res.Stats.TotalBits
			cost[pi] = int64(res.Stats.Rounds) * res.Stats.TotalBits
			ratio := ""
			if pi == 1 {
				ratio = fmt.Sprintf("%.2fx", float64(cost[0])/float64(cost[1]))
			}
			fmt.Fprintf(w, "%6d %10s %8d %12d %16d %10s\n", n, proto, res.Stats.Rounds, res.Stats.TotalBits, cost[pi], ratio)
		}
		// Machine-greppable record line (scripts/bench.sh folds the n=64
		// one into BENCH_<date>.json).
		fmt.Fprintf(w, "E15RECORD n=%d naive_rounds=%d naive_bits=%d cube_rounds=%d cube_bits=%d cost_ratio=%.3f\n",
			n, stats[0].rounds, stats[0].bits, stats[1].rounds, stats[1].bits,
			float64(cost[0])/float64(cost[1]))
		if !quick && n >= 64 && cost[1] >= cost[0] {
			return fmt.Errorf("E15(b) n=%d: cube rounds·bits %d >= naive %d — the partition stopped paying",
				n, cost[1], cost[0])
		}
	}
	fmt.Fprintf(w, "(cube replicates inputs n^(1/3)-fold but routes them once; row-broadcast copies n-fold)\n")

	// (c) Workload smoke over the protocols: APSP by repeated squaring
	// must match Floyd–Warshall through either MM protocol.
	nAPSP := 18
	if !quick {
		nAPSP = 27
	}
	wg := graph.WeightedGnp(nAPSP, 0.2, 100, 77)
	want := semiring.FloydWarshall(wg)
	for _, proto := range []semiring.Protocol{semiring.Naive, semiring.Cube} {
		res, err := semiring.APSP(env.Engine, wg, proto, 64, 9, nil)
		if err != nil {
			return fmt.Errorf("E15(c) %s: %w", proto, err)
		}
		if !res.Product.Equal(want) {
			return fmt.Errorf("E15(c) %s: APSP differs from Floyd–Warshall", proto)
		}
		fmt.Fprintf(w, "(c) APSP n=%d via %-5s squaring: %d squarings, %d rounds, %d bits — matches Floyd–Warshall\n",
			nAPSP, proto, semiring.Squarings(nAPSP), res.Stats.Rounds, res.Stats.TotalBits)
	}
	return nil
}

// matrixForRing builds the natural test operand of a backend from one
// weighted instance: the min-plus weight matrix, the counting/Boolean/GF(2)
// adjacency matrix.
func matrixForRing(sr semiring.Semiring, wg *graph.Weighted) *semiring.Matrix {
	if sr.Name() == "minplus" {
		return semiring.DistanceMatrix(wg)
	}
	return semiring.AdjacencyMatrix(wg.Graph)
}

// transposeLike returns a second operand derived from a (a shifted clone),
// so products are not accidentally symmetric.
func transposeLike(sr semiring.Semiring, a *semiring.Matrix) *semiring.Matrix {
	n := a.Rows()
	out := semiring.NewMatrix(n, n, 0)
	for i := 0; i < n; i++ {
		src := a.Row((i + 1) % n)
		copy(out.Row(i), src)
	}
	return out
}
