package lowerbound

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/subgraph"
	"repro/internal/turan"
)

func TestCliqueLowerBoundVerifies(t *testing.T) {
	for _, tc := range []struct{ l, n int }{{4, 2}, {4, 4}, {5, 3}, {6, 2}} {
		lb, err := CliqueLowerBound(tc.l, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if err := lb.Verify(); err != nil {
			t.Errorf("K_%d N=%d: %v", tc.l, tc.n, err)
		}
		if len(lb.EF()) != tc.n*tc.n {
			t.Errorf("K_%d N=%d: |E_F| = %d, want %d", tc.l, tc.n, len(lb.EF()), tc.n*tc.n)
		}
	}
}

func TestCliqueLowerBoundObservation11(t *testing.T) {
	lb, err := CliqueLowerBound(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x, y := RandomInstance(lb, 0.3, rng)
		_, err := lb.ObservationEleven(x, y)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCycleLowerBoundOddVerifies(t *testing.T) {
	for _, l := range []int{5, 7} {
		f := graph.CompleteBipartite(3, 3)
		lb, err := CycleLowerBound(l, f, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := lb.Verify(); err != nil {
			t.Errorf("C_%d: %v", l, err)
		}
	}
}

func TestCycleLowerBoundEvenVerifies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		l int
		f *graph.Graph
	}{
		{4, mustBipartiteC4Free(t, 2)},
		{6, turan.GreedyHFree(8, graph.Cycle(6), 400, rng)},
	}
	for _, tc := range cases {
		lb, err := CycleLowerBound(tc.l, tc.f, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := lb.Verify(); err != nil {
			t.Errorf("C_%d: %v", tc.l, err)
		}
	}
}

func TestCycleLowerBoundObservation11(t *testing.T) {
	f := graph.CompleteBipartite(3, 3)
	lb, err := CycleLowerBound(5, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		x, y := RandomInstance(lb, 0.4, rng)
		if _, err := lb.ObservationEleven(x, y); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCycleLowerBoundSparsity(t *testing.T) {
	// Definition 12: the path construction cuts exactly one edge per path,
	// so δ = N / |V'| is a constant below 1.
	rng := rand.New(rand.NewSource(11))
	f := turan.GreedyHFree(8, graph.Cycle(6), 500, rng)
	lb, err := CycleLowerBound(6, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	cut, delta := lb.Sparsity()
	if cut != f.N() {
		t.Errorf("cut = %d, want one per path = %d", cut, f.N())
	}
	if delta >= 1 {
		t.Errorf("δ = %f, want < 1", delta)
	}
}

func TestBicliqueLowerBoundVerifies(t *testing.T) {
	fStar := starUniverse(5) // K_{1,4}: bipartite, C4-free
	cases := []struct {
		l, m int
		f    *graph.Graph
		left []int
	}{
		{2, 2, fStar.g, fStar.left},
		{3, 3, fStar.g, fStar.left},
		{4, 4, fStar.g, fStar.left},
	}
	for _, tc := range cases {
		lb, err := BicliqueLowerBound(tc.l, tc.m, tc.f, tc.left)
		if err != nil {
			t.Fatal(err)
		}
		if err := lb.Verify(); err != nil {
			t.Errorf("K_{%d,%d}: %v", tc.l, tc.m, err)
		}
	}
}

func TestBicliqueLowerBoundRejectsUnequalSides(t *testing.T) {
	// The documented Lemma 21 gap: for ℓ ≠ m, hub vertices plus a
	// high-degree universe vertex form stray copies built from one
	// player's edges alone, so the constructor must refuse.
	fStar := starUniverse(5)
	for _, tc := range [][2]int{{3, 2}, {2, 3}, {2, 4}, {4, 2}, {3, 5}} {
		if _, err := BicliqueLowerBound(tc[0], tc[1], fStar.g, fStar.left); err == nil {
			t.Fatalf("K_{%d,%d} accepted despite the stray-copy gap", tc[0], tc[1])
		}
	}
}

func TestBicliqueLowerBoundWithPolarityUniverse(t *testing.T) {
	f, left, err := BipartiteC4Free(2)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := BicliqueLowerBound(2, 2, f, left)
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.Verify(); err != nil {
		t.Error(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		x, y := RandomInstance(lb, 0.4, rng)
		if _, err := lb.ObservationEleven(x, y); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBipartiteC4FreeProperties(t *testing.T) {
	for _, q := range []int{2, 3, 5} {
		f, left, err := BipartiteC4Free(q)
		if err != nil {
			t.Fatal(err)
		}
		if graph.ContainsSubgraph(f, graph.Cycle(4)) {
			t.Errorf("q=%d: bipartite extraction contains C4", q)
		}
		er, _ := turan.PolarityGraph(q)
		if 2*f.M() < er.M() {
			t.Errorf("q=%d: kept %d of %d edges, want at least half", q, f.M(), er.M())
		}
		isLeft := make(map[int]bool, len(left))
		for _, v := range left {
			isLeft[v] = true
		}
		for _, e := range f.Edges() {
			if isLeft[e[0]] == isLeft[e[1]] {
				t.Fatalf("q=%d: edge %v inside one side", q, e)
			}
		}
	}
}

func TestConstructionErrors(t *testing.T) {
	if _, err := CliqueLowerBound(3, 4); err == nil {
		t.Error("K3 accepted (triangles are not amenable to this technique)")
	}
	if _, err := CycleLowerBound(3, graph.CompleteBipartite(2, 2), 2); err == nil {
		t.Error("C3 accepted")
	}
	// Universe with a C4 must be rejected for biclique construction.
	if _, err := BicliqueLowerBound(2, 2, graph.CompleteBipartite(2, 2), []int{0, 1}); err == nil {
		t.Error("C4-containing universe accepted")
	}
	// Universe containing C_l rejected for cycle construction.
	if _, err := CycleLowerBound(4, graph.Cycle(4), 0); err == nil {
		t.Error("C4-containing universe accepted for C4 construction")
	}
	// Non-bipartite edge in biclique universe.
	bad := graph.New(4)
	bad.AddEdge(0, 1)
	if _, err := BicliqueLowerBound(2, 2, bad, []int{0, 1}); err == nil {
		t.Error("non-crossing universe edge accepted")
	}
}

func TestVerifyCatchesBrokenTemplates(t *testing.T) {
	lb, err := CliqueLowerBound(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: an edge inside the independent set S1 creates K4 copies
	// with two S1 vertices, which cannot be of the required form.
	bad := lb.G.Clone()
	bad.AddEdge(lb.PhiA[0], lb.PhiA[1])
	sab := &Graph{G: bad, H: lb.H, F: lb.F, PhiA: lb.PhiA, PhiB: lb.PhiB, Side: lb.Side}
	if err := sab.Verify(); err == nil {
		t.Error("sabotaged template passed verification")
	}
}

func TestReductionEndToEnd(t *testing.T) {
	lb, err := CliqueLowerBound(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	fam := turan.CliqueFamily(4)
	det := func(g *graph.Graph, cut []bool) (bool, core.Stats, error) {
		res, err := subgraph.DetectKnownTuranCut(core.Env{}, g, fam, 16, 7, cut)
		if err != nil {
			return false, core.Stats{}, err
		}
		return res.Found, res.Stats, nil
	}
	rng := rand.New(rand.NewSource(4))
	sawYes, sawNo := false, false
	for trial := 0; trial < 10; trial++ {
		x, y := RandomInstance(lb, 0.3, rng)
		run, err := RunDisjointness(lb, x, y, det)
		if err != nil {
			t.Fatal(err)
		}
		if run.Intersecting {
			sawYes = true
		} else {
			sawNo = true
		}
		if run.CutBits <= 0 {
			t.Error("no communication crossed the cut")
		}
		// The 2-party cost is at most rounds · n · b (BCAST blackboard).
		if run.CutBits > int64(run.Rounds)*int64(lb.G.N())*16 {
			t.Errorf("cut bits %d exceed rounds*n*b", run.CutBits)
		}
	}
	if !sawYes || !sawNo {
		t.Errorf("reduction did not exercise both branches: yes=%v no=%v", sawYes, sawNo)
	}
}

func TestReductionWithCycleGraph(t *testing.T) {
	f := graph.CompleteBipartite(3, 3)
	lb, err := CycleLowerBound(5, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	fam := turan.CycleFamily(5)
	det := func(g *graph.Graph, cut []bool) (bool, core.Stats, error) {
		res, err := subgraph.DetectKnownTuranCut(core.Env{}, g, fam, 16, 5, cut)
		if err != nil {
			return false, core.Stats{}, err
		}
		return res.Found, res.Stats, nil
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		x, y := RandomInstance(lb, 0.3, rng)
		if _, err := RunDisjointness(lb, x, y, det); err != nil {
			t.Fatal(err)
		}
	}
}

// starUniverse returns K_{1,k-1} as a bipartite C4-free universe.
type universe struct {
	g    *graph.Graph
	left []int
}

func starUniverse(k int) universe {
	return universe{g: graph.Star(k), left: []int{0}}
}

func mustBipartiteC4Free(t *testing.T, q int) *graph.Graph {
	t.Helper()
	f, _, err := BipartiteC4Free(q)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
