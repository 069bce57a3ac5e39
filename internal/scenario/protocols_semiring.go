package scenario

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/semiring"
)

// weightMax bounds the deterministic edge weights the semiring protocols
// attach to every family's graphs (weights live in [1, weightMax]).
const weightMax = 64

// legKernel selects the local block kernel the protocol body multiplies
// with: the ⊕/⊗ triple loop on the oracle leg, the backend's
// blocked/packed kernel on engine legs. Both legs' wire traffic must come
// out bit-identical, so a kernel bug is a scenario divergence.
func legKernel(sr semiring.Semiring, leg Leg) semiring.LocalMul {
	if leg.Oracle {
		return semiring.NaiveKernel(sr)
	}
	return semiring.Kernel(sr)
}

// runAPSP computes all-pairs shortest distances by repeated min-plus
// squaring over the row-broadcast MM protocol, with weights derived
// deterministically from the cell seed, and cross-checks the distance
// matrix against a leg-chosen local reference: Floyd–Warshall on the
// oracle leg, repeated local squaring through the naive (plain leg) or
// blocked (batch leg) kernel.
func runAPSP(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
	wg := graph.WeightedFromSeed(g, seed, weightMax)
	res, err := semiring.APSP(leg.Env, wg, semiring.Naive, bandwidth, seed, legKernel(semiring.MinPlus, leg))
	if err != nil {
		return nil, err
	}
	var want *semiring.Matrix
	switch {
	case leg.Oracle:
		want = semiring.FloydWarshall(wg)
	default:
		k := semiring.NaiveKernel(semiring.MinPlus)
		if leg.Batch {
			k = semiring.Kernel(semiring.MinPlus)
		}
		want = semiring.DistanceMatrix(wg)
		for s := 0; s < semiring.Squarings(g.N()); s++ {
			want = k(want, want)
		}
	}
	if !res.Product.Equal(want) {
		return nil, fmt.Errorf("apsp: clique distances differ from the local reference")
	}
	reach, sum := distanceDigest(res.Product)
	return &LegResult{
		Output: fmt.Sprintf("dist=%016x reach=%d sum=%d sq=%d", res.Product.Hash(), reach, sum, semiring.Squarings(g.N())),
		Stats:  res.Stats,
	}, nil
}

// khopK is the hop horizon of the distance-product protocol.
const khopK = 3

// runKHop computes the 3-hop distance product through the cube-partition
// MM protocol (Lenzen-routed redistribution under full accounting) and
// cross-checks against Bellman–Ford relaxation (oracle leg) or local
// distance products through the leg's kernel.
func runKHop(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
	wg := graph.WeightedFromSeed(g, seed, weightMax)
	res, err := semiring.KHopDistances(leg.Env, wg, khopK, semiring.Cube, bandwidth, seed, legKernel(semiring.MinPlus, leg))
	if err != nil {
		return nil, err
	}
	var want *semiring.Matrix
	if leg.Oracle {
		want = semiring.BellmanFordK(wg, khopK)
	} else {
		k := semiring.NaiveKernel(semiring.MinPlus)
		if leg.Batch {
			k = semiring.Kernel(semiring.MinPlus)
		}
		w := semiring.DistanceMatrix(wg)
		want = w.Clone()
		for t := 1; t < khopK; t++ {
			want = k(want, w)
		}
	}
	if !res.Product.Equal(want) {
		return nil, fmt.Errorf("khop: clique %d-hop distances differ from the local reference", khopK)
	}
	reach, sum := distanceDigest(res.Product)
	return &LegResult{
		Output: fmt.Sprintf("d%d=%016x reach=%d sum=%d", khopK, res.Product.Hash(), reach, sum),
		Stats:  res.Stats,
	}, nil
}

// runMatrixPower computes Boolean A²/A³ and counting A² on the clique and
// cross-checks every derived graph fact against an independent engine:
// triangle count against the word-parallel neighborhood intersection, C4
// against exhaustive subgraph search, and the power matrices against
// leg-chosen local products.
func runMatrixPower(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
	kern := semiring.Kernel
	if leg.Oracle {
		kern = semiring.NaiveKernel
	}
	res, err := semiring.MatrixPowerCounts(leg.Env, g, semiring.Naive, bandwidth, seed, kern)
	if err != nil {
		return nil, err
	}
	adj := semiring.AdjacencyMatrix(g)
	mulB := legKernel(semiring.Boolean, leg)
	mulC := legKernel(semiring.Counting, leg)
	if !res.Bool2.Equal(semiring.LocalPower(semiring.Boolean, adj, 2, mulB)) ||
		!res.Bool3.Equal(semiring.LocalPower(semiring.Boolean, adj, 3, mulB)) ||
		!res.Count2.Equal(semiring.LocalPower(semiring.Counting, adj, 2, mulC)) {
		return nil, fmt.Errorf("matpower: clique powers differ from the local reference")
	}
	if want := int64(g.CountTriangles()); res.Triangles != want {
		return nil, fmt.Errorf("matpower: tr(A³)/6 = %d, graph counts %d triangles", res.Triangles, want)
	}
	if want := graph.ContainsSubgraph(g, graph.Cycle(4)); res.HasC4 != want {
		return nil, fmt.Errorf("matpower: C4 = %v, exhaustive search says %v", res.HasC4, want)
	}
	return &LegResult{
		Output: fmt.Sprintf("reach2=%d reach3=%d tri=%d c4=%v",
			semiring.Ones(res.Bool2), semiring.Ones(res.Bool3), res.Triangles, res.HasC4),
		Stats: res.Stats,
	}, nil
}

// distanceDigest folds a distance matrix into its reachable-pair count
// and finite-distance sum (diagonal excluded).
func distanceDigest(d *semiring.Matrix) (reach int, sum int64) {
	for i := 0; i < d.Rows(); i++ {
		row := d.Row(i)
		for j, v := range row {
			if i == j || v == semiring.Inf {
				continue
			}
			reach++
			sum += int64(v)
		}
	}
	return reach, sum
}
