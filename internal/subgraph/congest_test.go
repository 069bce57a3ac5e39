package subgraph

import (
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/graph"
)

func TestDetectC4CongestBasic(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"C4 itself", graph.Cycle(4), true},
		{"C5", graph.Cycle(5), false},
		{"K4", graph.Complete(4), true},
		{"K23", graph.CompleteBipartite(2, 3), true},
		{"tree", graph.Star(8), false},
		{"path", graph.Path(10), false},
		{"C6", graph.Cycle(6), false},
	}
	for _, tc := range cases {
		res, err := DetectC4Congest(core.Env{}, tc.g, 16, 0, 3)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Found != tc.want {
			t.Errorf("%s: found=%v want %v", tc.name, res.Found, tc.want)
		}
		if res.Found {
			checkC4Witness(t, tc.g, res.Witness)
		}
	}
}

func TestDetectC4CongestRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 12; trial++ {
		g := graph.Gnp(24, []float64{0.05, 0.1, 0.2}[trial%3], rng)
		want := graph.ContainsSubgraph(g, graph.Cycle(4))
		res, err := DetectC4Congest(core.Env{}, g, 16, 0, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if res.Found != want {
			t.Errorf("trial %d: found=%v want %v", trial, res.Found, want)
		}
	}
}

func TestDetectC4CongestPolarityFree(t *testing.T) {
	// The polarity graph is the canonical dense C4-free instance.
	g := mustPolarity(t, 3)
	res, err := DetectC4Congest(core.Env{}, g, 16, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("C4 reported in a C4-free polarity graph")
	}
}

func TestDetectC4CongestCappedOneSided(t *testing.T) {
	// With a degree cap the detector may miss cycles but must never
	// invent one.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 8; trial++ {
		g := graph.Gnp(20, 0.15, rng)
		res, err := DetectC4Congest(core.Env{}, g, 16, 4, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			checkC4Witness(t, g, res.Witness)
		}
	}
}

func TestDetectC4CongestCapBudget(t *testing.T) {
	// With cap = 2⌈√n⌉ the per-edge traffic must stay within the
	// O(√n log n) budget: rounds ≈ cap·log(n)/b.
	rng := rand.New(rand.NewSource(7))
	g := graph.Gnp(36, 0.3, rng)
	cap := 12 // 2·√36
	res, err := DetectC4Congest(core.Env{}, g, 8, cap, 1)
	if err != nil {
		t.Fatal(err)
	}
	idW := bits.UintWidth(uint64(g.N() - 1))
	cntW := bits.UintWidth(uint64(g.N()))
	wantRounds := (cntW + cap*idW + 7) / 8
	if res.Stats.Rounds > wantRounds {
		t.Errorf("rounds = %d, budget %d", res.Stats.Rounds, wantRounds)
	}
	if res.Stats.MaxLinkBits > 8 {
		t.Errorf("bandwidth violated: %d", res.Stats.MaxLinkBits)
	}
}

func TestDetectC4CongestRespectsTopology(t *testing.T) {
	// The engine enforces CONGEST: this just exercises a disconnected
	// input, where no cross-component chatter is possible.
	g := graph.DisjointUnion(graph.Cycle(4), graph.Path(5))
	res, err := DetectC4Congest(core.Env{}, g, 16, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Error("C4 in one component missed")
	}
}

func checkC4Witness(t *testing.T, g *graph.Graph, w graph.Embedding) {
	t.Helper()
	if len(w) != 4 {
		t.Fatalf("witness has %d vertices", len(w))
	}
	for i := 0; i < 4; i++ {
		if !g.HasEdge(w[i], w[(i+1)%4]) {
			t.Fatalf("witness %v missing edge %d-%d", w, w[i], w[(i+1)%4])
		}
	}
	seen := map[int]bool{}
	for _, v := range w {
		if seen[v] {
			t.Fatalf("witness %v repeats a vertex", w)
		}
		seen[v] = true
	}
}
