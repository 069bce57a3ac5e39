// Quickstart: build a graph, hand each player its local view, and run two
// protocols of the paper on the simulated congested clique — the trivial
// broadcast triangle detector and the Becker et al. one-round
// reconstruction that powers Theorem 7.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/subgraph"
	"repro/internal/triangles"
)

func main() {
	const (
		n         = 32
		bandwidth = 16 // bits per broadcast per round
		seed      = 42
	)
	rng := rand.New(rand.NewSource(seed))

	// A random graph with a planted triangle.
	g := graph.Gnp(n, 0.08, rng)
	graph.PlantCopy(g, graph.Complete(3), rng)
	fmt.Printf("input: %v, degeneracy %d, triangles %d\n",
		g, g.Degeneracy(), g.CountTriangles())

	// 1. The trivial CLIQUE-BCAST detector: everyone broadcasts their
	// adjacency row over ceil(n/b) rounds.
	res, err := triangles.BroadcastDetect(core.Env{}, g, bandwidth, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("broadcast detect: found=%v rounds=%d totalBits=%d (expected rounds %d)\n",
		res.Found, res.Stats.Rounds, res.Stats.TotalBits, (n+bandwidth-1)/bandwidth)

	// 2. Becker et al. reconstruction: with k at least the degeneracy,
	// every player learns the whole topology from one O(k log n)-bit
	// broadcast per node.
	k := g.Degeneracy()
	rec, err := subgraph.Reconstruct(core.Env{}, g, k, bandwidth, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconstruction at k=%d: ok=%v, %d-bit messages, %d rounds\n",
		k, rec.OK, rec.MsgBits, rec.Stats.Rounds)
	if !rec.G.Equal(g) {
		log.Fatal("reconstruction mismatch")
	}

	// With k below the degeneracy, all players detect the failure instead.
	rec2, err := subgraph.Reconstruct(core.Env{}, g, k-1, bandwidth, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconstruction at k=%d: ok=%v (degeneracy exceeded, as expected)\n", k-1, rec2.OK)
}
