// Trianglehunt compares the triangle-detection algorithms surrounding the
// paper on the same inputs: the trivial broadcast exchange, the
// deterministic and randomized algorithms of Dolev, Lenzen and Peled [8]
// on the unicast clique, and the Section 2.1 matrix-multiplication
// detector compiled through the Theorem 2 circuit simulation.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matmul"
	"repro/internal/triangles"
)

func main() {
	const (
		n         = 32
		bandwidth = 16
		seed      = 7
	)
	rng := rand.New(rand.NewSource(seed))

	inputs := []struct {
		name string
		g    *graph.Graph
	}{
		{"sparse-gnp", graph.Gnp(n, 0.05, rng)},
		{"dense-gnp", graph.Gnp(n, 0.4, rng)},
		{"bipartite (triangle-free)", graph.RandomBipartite(n/2, n/2, 0.4, rng)},
	}

	fmt.Printf("%-28s %-8s %-22s %-10s %-12s\n", "graph", "truth", "algorithm", "found", "rounds")
	for _, in := range inputs {
		truth := in.g.HasTriangle()
		tcount := in.g.CountTriangles()

		bd, err := triangles.BroadcastDetect(core.Env{}, in.g, bandwidth, seed)
		must(err)
		row(in.name, truth, "broadcast-exchange", bd.Found, bd.Stats.Rounds)

		dlp, err := triangles.DLPDeterministic(core.Env{}, in.g, bandwidth, seed)
		must(err)
		row(in.name, truth, "DLP deterministic", dlp.Found, dlp.Stats.Rounds)

		promised := tcount
		if promised < 1 {
			promised = 1
		}
		rnd, err := triangles.DLPRandomized(core.Env{}, in.g, bandwidth, promised, 6, seed)
		must(err)
		row(in.name, truth, fmt.Sprintf("DLP randomized T=%d", promised), rnd.Found, rnd.Stats.Rounds)

		mm, err := matmul.DetectTrianglesOnClique(core.Env{}, in.g, matmul.Strassen, 8, 8, 64, seed)
		must(err)
		row(in.name, truth, "matmul (Strassen, §2.1)", mm.Found, mm.Run.Stats.Rounds)
	}
}

func row(name string, truth bool, alg string, found bool, rounds int) {
	fmt.Printf("%-28s %-8v %-22s %-10v %-12d\n", name, truth, alg, found, rounds)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
