package triangles

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func TestDLPWitnessIsRealTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := graph.Gnp(24, 0.3, rng)
		res, err := DLPDeterministic(core.Env{}, g, 32, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			if g.HasTriangle() {
				t.Fatal("missed triangle")
			}
			continue
		}
		if !res.HasWit {
			t.Fatal("deterministic DLP found a triangle without a witness")
		}
		checkTriangle(t, g, res.Witness)
	}
}

func TestDLPRandomizedWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.Gnp(32, 0.5, rng)
	T := g.CountTriangles()
	res, err := DLPRandomized(core.Env{}, g, 32, T/2, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found && res.HasWit {
		checkTriangle(t, g, res.Witness)
	}
	if !res.Found {
		t.Error("dense graph not detected")
	}
}

func checkTriangle(t *testing.T, g *graph.Graph, w [3]int) {
	t.Helper()
	if w[0] == w[1] || w[1] == w[2] || w[0] == w[2] {
		t.Fatalf("witness %v repeats a vertex", w)
	}
	if !g.HasEdge(w[0], w[1]) || !g.HasEdge(w[1], w[2]) || !g.HasEdge(w[0], w[2]) {
		t.Fatalf("witness %v is not a triangle", w)
	}
}
