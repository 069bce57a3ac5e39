// Lowerboundlab walks through Section 3's lower-bound machinery: it
// builds the (K₄, K_{N,N})-lower-bound graph of Lemma 14, machine-checks
// Definition 10, runs the Lemma 13 reduction (deciding 2-party set
// disjointness by simulating the Theorem 7 detector and metering the bits
// that cross the Alice/Bob cut), and finishes with the Theorem 24
// number-on-forehead reduction on a Ruzsa–Szemerédi graph.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lowerbound"
	"repro/internal/rsgraph"
	"repro/internal/subgraph"
	"repro/internal/triangles"
	"repro/internal/turan"
)

func main() {
	const (
		bigN      = 4 // K_{N,N} universe: N² disjointness elements
		bandwidth = 16
		seed      = 5
	)
	rng := rand.New(rand.NewSource(seed))

	// 1. Build and verify the Lemma 14 lower-bound graph for K4.
	lb, err := lowerbound.CliqueLowerBound(4, bigN)
	must(err)
	must(lb.Verify())
	cut, delta := lb.Sparsity()
	fmt.Printf("Lemma 14 template: %v, |E_F| = %d, cut = %d (δ = %.2f) — Definition 10 verified\n",
		lb.G, len(lb.EF()), cut, delta)

	// 2. The Lemma 13 reduction: decide set disjointness by simulating the
	// Theorem 7 K4-detector on instances of the template.
	fam := turan.CliqueFamily(4)
	det := func(g *graph.Graph, side []bool) (bool, core.Stats, error) {
		res, err := subgraph.DetectKnownTuranCut(core.Env{}, g, fam, bandwidth, seed, side)
		if err != nil {
			return false, core.Stats{}, err
		}
		return res.Found, res.Stats, nil
	}
	fmt.Printf("\n%-26s %-10s %-10s %-10s\n", "instance", "intersect", "cut bits", "rounds")
	for trial := 0; trial < 4; trial++ {
		x, y := lowerbound.RandomInstance(lb, 0.3, rng)
		run, err := lowerbound.RunDisjointness(lb, x, y, det)
		must(err)
		fmt.Printf("%-26s %-10v %-10d %-10d\n",
			fmt.Sprintf("random #%d", trial), run.Intersecting, run.CutBits, run.Rounds)
	}
	fmt.Printf("fooling-set bound: any protocol needs ≥ |E_F| = %d cut bits on worst-case inputs,\n", len(lb.EF()))
	fmt.Printf("so rounds ≥ |E_F|/(n·b) = %.2f for this template (Theorem 15 shape)\n",
		float64(len(lb.EF()))/float64(lb.G.N()*bandwidth))

	// 3. Theorem 24: the NOF reduction on a Ruzsa–Szemerédi graph.
	rs, err := rsgraph.NewTripartite(8)
	must(err)
	must(rs.Verify())
	nof := &cc.TriangleNOF{
		RS:        rs,
		Bandwidth: bandwidth,
		Seed:      seed,
		Detect: func(g *graph.Graph, b int, s int64) (bool, core.Stats, error) {
			res, err := triangles.BroadcastDetect(core.Env{}, g, b, s)
			if err != nil {
				return false, core.Stats{}, err
			}
			return res.Found, res.Stats, nil
		},
	}
	m := nof.Universe()
	xa, xb, xc := randomTriple(m, rng)
	want, _ := cc.Disj3(xa, xb, xc)
	got, bits, err := nof.Run(xa, xb, xc)
	must(err)
	fmt.Printf("\nTheorem 24 NOF reduction: universe m = %d (edge-disjoint triangles), |V| = %d\n",
		m, rs.G.N())
	fmt.Printf("disjoint = %v (truth %v), blackboard bits = %d\n", got, want, bits)
	fmt.Printf("a deterministic NOF bound of m bits implies ≥ %.3f rounds for BCAST triangle detection\n",
		nof.ImpliedRoundBound(int64(m)))
}

func randomTriple(m int, rng *rand.Rand) (xa, xb, xc []bool) {
	xa = make([]bool, m)
	xb = make([]bool, m)
	xc = make([]bool, m)
	for i := 0; i < m; i++ {
		xa[i] = rng.Intn(2) == 0
		xb[i] = rng.Intn(2) == 0
		xc[i] = rng.Intn(2) == 0
	}
	return
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
