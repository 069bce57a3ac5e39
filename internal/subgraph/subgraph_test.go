package subgraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/turan"
)

func TestFieldFor(t *testing.T) {
	cases := []struct {
		n    int
		want uint64
	}{{4, 5}, {5, 7}, {10, 11}, {30, 31}, {31, 37}, {100, 101}}
	for _, c := range cases {
		if got := fieldFor(c.n); got != c.want {
			t.Errorf("fieldFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestRootsFromSumsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 40
	p := fieldFor(n)
	for trial := 0; trial < 100; trial++ {
		r := rng.Intn(10)
		perm := rng.Perm(n)[:r]
		verts := append([]int(nil), perm...)
		sums := powerSums(verts, r, p)
		roots, ok := rootsFromSums(sums, r, n, p)
		if !ok {
			t.Fatalf("trial %d: decode failed for %v", trial, verts)
		}
		want := make(map[int]bool, r)
		for _, v := range verts {
			want[v+1] = true
		}
		if len(roots) != r {
			t.Fatalf("decoded %d roots, want %d", len(roots), r)
		}
		for _, id := range roots {
			if !want[id] {
				t.Fatalf("decoded spurious root %d (wanted %v)", id, verts)
			}
		}
	}
}

func TestDecodeReconstructsDegenerateGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []*graph.Graph{
		graph.Path(12),
		graph.Cycle(15),
		graph.Star(20),
		graph.RandomTree(25, rng),
		turan.TuranGraph(12, 3),
		graph.CompleteBipartite(4, 9),
		graph.Gnp(18, 0.3, rng),
	}
	for i, g := range cases {
		k := g.Degeneracy()
		if k == 0 {
			k = 1
		}
		p := fieldFor(g.N())
		anns := make([]Announcement, g.N())
		for v := range anns {
			anns[v] = Announce(g.Neighbors(v), k, p)
		}
		recon, ok := Decode(anns, k, p)
		if !ok {
			t.Fatalf("case %d: decode failed at k = degeneracy = %d", i, k)
		}
		if !recon.Equal(g) {
			t.Fatalf("case %d: reconstruction differs from input", i)
		}
	}
}

func TestDecodeFailsBelowDegeneracy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		g := graph.Gnp(16, 0.5, rng)
		k := g.Degeneracy() - 1
		if k < 1 {
			continue
		}
		p := fieldFor(g.N())
		anns := make([]Announcement, g.N())
		for v := range anns {
			anns[v] = Announce(g.Neighbors(v), k, p)
		}
		if _, ok := Decode(anns, k, p); ok {
			t.Fatalf("decode succeeded with k=%d < degeneracy %d", k, g.Degeneracy())
		}
	}
}

func TestDecodeQuickProperty(t *testing.T) {
	// For any random graph, A(G, degeneracy(G)) reconstructs G exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.Gnp(3+rng.Intn(20), rng.Float64()*0.6, rng)
		k := g.Degeneracy()
		if k < 1 {
			k = 1
		}
		p := fieldFor(g.N())
		anns := make([]Announcement, g.N())
		for v := range anns {
			anns[v] = Announce(g.Neighbors(v), k, p)
		}
		recon, ok := Decode(anns, k, p)
		return ok && recon.Equal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReconstructProtocol(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomTree(30, rng)
	res, err := Reconstruct(core.Env{}, g, 2, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("reconstruction of a tree failed at k=2")
	}
	if !res.G.Equal(g) {
		t.Fatal("reconstructed graph differs")
	}
	// Message size: the [2] bound O(k log n).
	if res.MsgBits != MessageBits(30, 2) {
		t.Errorf("MsgBits = %d, want %d", res.MsgBits, MessageBits(30, 2))
	}
	wantRounds := (res.MsgBits + 7) / 8
	if res.Stats.Rounds != wantRounds {
		t.Errorf("rounds = %d, want %d", res.Stats.Rounds, wantRounds)
	}
}

func TestReconstructDetectsHighDegeneracy(t *testing.T) {
	g := graph.Complete(12) // degeneracy 11
	res, err := Reconstruct(core.Env{}, g, 3, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("K12 reconstructed at k=3")
	}
}

func TestMessageBitsGrowth(t *testing.T) {
	// O(k log n): linear in k, logarithmic in n.
	if MessageBits(100, 8) >= MessageBits(100, 16) {
		t.Error("message bits not increasing in k")
	}
	big := MessageBits(1<<16, 4)
	small := MessageBits(1<<8, 4)
	if big > 3*small {
		t.Errorf("message bits grew superlogarithmically: %d vs %d", big, small)
	}
}

func TestDetectKnownTuranFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name string
		fam  turan.Family
		g    *graph.Graph
		want bool
	}{
		{"C4 in polarity+e", turan.CycleFamily(4), polarityPlusEdge(t), true},
		{"C4 absent", turan.CycleFamily(4), mustPolarity(t, 3), false},
		{"tree present", turan.TreeFamily("P4", graph.Path(4)), graph.Path(20), true},
		{"tree absent", turan.TreeFamily("P4", graph.Path(4)), graph.Star(20), false},
		{"K4 present", turan.CliqueFamily(4), withPlanted(graph.Gnp(20, 0.1, rng), graph.Complete(4), rng), true},
		{"K4 absent", turan.CliqueFamily(4), turan.TuranGraph(20, 3), false},
		{"C5 present", turan.CycleFamily(5), withPlanted(graph.Gnp(18, 0.05, rng), graph.Cycle(5), rng), true},
		{"C5 absent", turan.CycleFamily(5), graph.CompleteBipartite(9, 9), false},
		{"K22 present", turan.BicliqueFamily(2, 2), graph.CompleteBipartite(3, 3), true},
	}
	for _, tc := range cases {
		res, err := DetectKnownTuran(core.Env{}, tc.g, tc.fam, 16, 9)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Found != tc.want {
			t.Errorf("%s: found=%v want %v", tc.name, res.Found, tc.want)
		}
		if res.Found && res.Witness != nil {
			checkWitness(t, tc.g, tc.fam.H, res.Witness)
		}
	}
}

func TestDetectKnownTuranDenseShortcut(t *testing.T) {
	// A graph too dense to be H-free: reconstruction fails and detection
	// answers "found" through Claim 6 without a witness.
	fam := turan.TreeFamily("P3", graph.Path(3))
	g := graph.Complete(16)
	res, err := DetectKnownTuran(core.Env{}, g, fam, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("dense graph not flagged")
	}
	if res.Reconstructed {
		t.Error("expected the degeneracy-failure path, not reconstruction")
	}
}

func TestDetectAdaptiveMatchesTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	patterns := []*graph.Graph{graph.Cycle(4), graph.Complete(3), graph.Path(4), graph.CompleteBipartite(2, 2)}
	for trial := 0; trial < 12; trial++ {
		h := patterns[trial%len(patterns)]
		g := graph.Gnp(20, []float64{0.05, 0.15, 0.4}[trial%3], rng)
		want := graph.ContainsSubgraph(g, h)
		res, err := DetectAdaptive(core.Env{}, g, h, 16, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if res.Found != want {
			t.Errorf("trial %d: adaptive found=%v want %v (k=%d, guesses=%d)",
				trial, res.Found, want, res.KUsed, res.Guesses)
		}
		if res.Found && res.Witness != nil {
			checkWitness(t, g, h, res.Witness)
		}
	}
}

func TestDetectAdaptiveNeverFalsePositive(t *testing.T) {
	// The repaired algorithm answers "no" only after reconstructing G
	// itself, so a "no" is always exact; a "yes" always carries a witness
	// found in a subgraph of G.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		g := graph.RandomBipartite(8, 8, 0.5, rng)
		res, err := DetectAdaptive(core.Env{}, g, graph.Complete(3), 16, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			t.Fatal("adaptive claimed a triangle in a bipartite graph")
		}
		if !res.Reconstructed {
			t.Error("a 'no' answer must come from full reconstruction")
		}
	}
}

func TestSampleEdgeSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.Gnp(32, 0.4, rng)
	xs := DrawXs(32, rng)
	g0 := SampleEdgeSubgraph(g, xs, 0)
	if !g0.Equal(g) {
		t.Error("G_0 != G")
	}
	prev := g
	for j := 1; j <= Levels(32); j++ {
		gj := SampleEdgeSubgraph(g, xs, j)
		// Nested: E_{j} ⊆ E_{j-1}.
		for _, e := range gj.Edges() {
			if !prev.HasEdge(e[0], e[1]) {
				t.Fatalf("edge %v in G_%d but not G_%d", e, j, j-1)
			}
		}
		prev = gj
	}
}

func TestSampleSurvivalProbability(t *testing.T) {
	// Each edge survives in G_j with probability 2^{-j}: check the
	// aggregate count at j=1 over many draws.
	rng := rand.New(rand.NewSource(9))
	g := graph.Complete(32)
	total := 0
	const draws = 60
	for d := 0; d < draws; d++ {
		xs := DrawXs(32, rng)
		total += SampleEdgeSubgraph(g, xs, 1).M()
	}
	mean := float64(total) / draws
	want := float64(g.M()) / 2
	if mean < 0.85*want || mean > 1.15*want {
		t.Errorf("mean surviving edges at j=1: %f, want ~%f", mean, want)
	}
}

func TestLemma8DegeneracyConcentration(t *testing.T) {
	// Lemma 8: for k·2^{-j} >= c·log n, degeneracy(G_j) ∈ [0.9, 1.1]·k·2^{-j}.
	// At moderate n the constants are loose; verify the multiplicative
	// tracking within a factor 2 band for j with large expected degeneracy.
	rng := rand.New(rand.NewSource(10))
	g := graph.Complete(64) // degeneracy 63
	k := float64(g.Degeneracy())
	for trial := 0; trial < 5; trial++ {
		xs := DrawXs(64, rng)
		for j := 1; j <= 2; j++ {
			exp := k / float64(int(1)<<uint(j))
			got := float64(SampleEdgeSubgraph(g, xs, j).Degeneracy())
			if got < exp/2 || got > exp*2 {
				t.Errorf("trial %d j=%d: degeneracy %f outside [%f, %f]",
					trial, j, got, exp/2, exp*2)
			}
		}
	}
}

func checkWitness(t *testing.T, g, h *graph.Graph, emb graph.Embedding) {
	t.Helper()
	for _, e := range h.Edges() {
		if !g.HasEdge(emb[e[0]], emb[e[1]]) {
			t.Fatalf("witness %v does not embed %v", emb, e)
		}
	}
}

func withPlanted(g, h *graph.Graph, rng *rand.Rand) *graph.Graph {
	graph.PlantCopy(g, h, rng)
	return g
}

func mustPolarity(t *testing.T, q int) *graph.Graph {
	t.Helper()
	g, err := turan.PolarityGraph(q)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func polarityPlusEdge(t *testing.T) *graph.Graph {
	t.Helper()
	g := mustPolarity(t, 3).Clone()
	// Add one edge; in a C4-saturated extremal-ish graph this creates a C4.
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				g.AddEdge(u, v)
				if graph.ContainsSubgraph(g, graph.Cycle(4)) {
					return g
				}
				g.RemoveEdge(u, v)
			}
		}
	}
	t.Fatal("could not create a C4 by edge addition")
	return nil
}
