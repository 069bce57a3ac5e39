package semiring

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func TestSquarings(t *testing.T) {
	for _, tc := range [][2]int{{1, 0}, {2, 0}, {3, 1}, {5, 2}, {9, 3}, {12, 4}, {17, 4}, {18, 5}, {33, 5}} {
		if got := Squarings(tc[0]); got != tc[1] {
			t.Fatalf("Squarings(%d) = %d, want %d", tc[0], got, tc[1])
		}
	}
}

func TestAPSPMatchesFloydWarshall(t *testing.T) {
	for _, tc := range []struct {
		n     int
		p     float64
		proto Protocol
	}{
		{14, 0.25, Naive},
		{20, 0.15, Cube}, // sparse: disconnected pairs stay Inf
		{27, 0.3, Cube},
	} {
		wg := graph.WeightedGnp(tc.n, tc.p, 100, int64(tc.n)*7+1)
		want := FloydWarshall(wg)
		res, err := APSP(core.Env{}, wg, tc.proto, 32, 3, nil)
		if err != nil {
			t.Fatalf("n=%d %s: %v", tc.n, tc.proto, err)
		}
		if !res.Product.Equal(want) {
			t.Fatalf("n=%d %s: APSP differs from Floyd–Warshall", tc.n, tc.proto)
		}
	}
}

func TestAPSPDisconnected(t *testing.T) {
	// Two components: distances across must be Inf, within must be exact.
	g := graph.DisjointUnion(graph.Cycle(5), graph.Path(4))
	wg := graph.WeightedFromSeed(g, 13, 9)
	res, err := APSP(core.Env{}, wg, Naive, 16, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Product.Equal(FloydWarshall(wg)) {
		t.Fatal("APSP differs from Floyd–Warshall on a disconnected graph")
	}
	if res.Product.At(0, 7) != Inf {
		t.Fatalf("cross-component distance %d, want Inf", res.Product.At(0, 7))
	}
}

func TestKHopMatchesBellmanFord(t *testing.T) {
	wg := graph.WeightedGnp(18, 0.2, 50, 5)
	for _, k := range []int{1, 2, 3, 5} {
		want := BellmanFordK(wg, k)
		for _, proto := range []Protocol{Naive, Cube} {
			res, err := KHopDistances(core.Env{}, wg, k, proto, 32, 2, nil)
			if err != nil {
				t.Fatalf("k=%d %s: %v", k, proto, err)
			}
			if !res.Product.Equal(want) {
				t.Fatalf("k=%d %s: distance product differs from Bellman–Ford", k, proto)
			}
		}
	}
	if _, err := KHopDistances(core.Env{}, wg, 0, Naive, 32, 2, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// TestKHopMonotone pins the semantic: widening the hop horizon can only
// shrink distances, and at k >= n-1 the product equals APSP.
func TestKHopMonotone(t *testing.T) {
	wg := graph.WeightedGnp(15, 0.25, 30, 9)
	prev := BellmanFordK(wg, 1)
	for k := 2; k < wg.N(); k++ {
		cur := BellmanFordK(wg, k)
		for i := 0; i < wg.N(); i++ {
			for j := 0; j < wg.N(); j++ {
				if cur.At(i, j) > prev.At(i, j) {
					t.Fatalf("k=%d: distance (%d,%d) grew %d -> %d", k, i, j, prev.At(i, j), cur.At(i, j))
				}
			}
		}
		prev = cur
	}
	if !prev.Equal(FloydWarshall(wg)) {
		t.Fatal("(n-1)-hop product != APSP")
	}
}

func TestMatrixPowerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		proto Protocol
	}{
		{"gnp-dense", graph.Gnp(16, 0.4, rng), Naive},
		{"gnp-sparse", graph.Gnp(20, 0.1, rng), Cube},
		{"c4-free-star", graph.Star(12), Naive},     // no C4, no triangle
		{"c4", graph.Cycle(4), Naive},               // C4, no triangle
		{"triangle-only", graph.Complete(3), Naive}, // triangle, no C4
		{"k6", graph.Complete(6), Cube},
	} {
		res, err := MatrixPowerCounts(core.Env{}, tc.g, tc.proto, 32, 7, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		adj := AdjacencyMatrix(tc.g)
		if !res.Bool2.Equal(LocalPower(Boolean, adj, 2, nil)) {
			t.Fatalf("%s: Boolean A² differs from local power", tc.name)
		}
		if !res.Bool3.Equal(LocalPower(Boolean, adj, 3, nil)) {
			t.Fatalf("%s: Boolean A³ differs from local power", tc.name)
		}
		if !res.Count2.Equal(LocalPower(Counting, adj, 2, nil)) {
			t.Fatalf("%s: counting A² differs from local power", tc.name)
		}
		if want := int64(tc.g.CountTriangles()); res.Triangles != want {
			t.Fatalf("%s: tr(A³)/6 = %d, graph counts %d triangles", tc.name, res.Triangles, want)
		}
		if want := graph.ContainsSubgraph(tc.g, graph.Cycle(4)); res.HasC4 != want {
			t.Fatalf("%s: HasC4 = %v, exhaustive search says %v", tc.name, res.HasC4, want)
		}
		// Common-neighbor counts must match the graph's own intersection.
		for u := 0; u < tc.g.N(); u++ {
			for v := 0; v < tc.g.N(); v++ {
				if u == v {
					continue
				}
				if int(res.Count2.At(u, v)) != tc.g.CommonNeighborCount(u, v) {
					t.Fatalf("%s: A²[%d][%d] = %d, want %d common neighbors",
						tc.name, u, v, res.Count2.At(u, v), tc.g.CommonNeighborCount(u, v))
				}
			}
		}
	}
}

func TestOnes(t *testing.T) {
	m := NewMatrix(3, 3, 0)
	m.Set(0, 1, 5)
	m.Set(2, 2, 1)
	if Ones(m) != 2 {
		t.Fatalf("Ones = %d, want 2", Ones(m))
	}
}

func TestLocalPowerIdentityCase(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := ringRandom(Boolean, 10, 10, rng)
	if !LocalPower(Boolean, m, 1, nil).Equal(m) {
		t.Fatal("first power must be the matrix itself")
	}
}

// TestAllocRegressionRowBroadcast is the allocation gate of the naive
// row-broadcast protocol: objects per APSP(Naive) run at n = 24, b = 32,
// at the sequential width and under the worker pool. A body's Multiplier
// reuses its wire payload and its B-row matrix across the run's
// squarings and wraps the node's A row instead of copying it, and the
// exchange reassembles every row into a buffer of the Proc's: a run
// reads 1.7k objects, against 7.3k when every squaring built a fresh
// payload, B matrix and A copy and every row arrived in a fresh pool
// buffer. The budget sits about 25% above the reading. Nothing on this
// path draws from a sync.Pool, so the count is the same under the race
// detector and the gate runs there too. Matches the CI alloc-regression
// pattern (-run AllocRegression).
func TestAllocRegressionRowBroadcast(t *testing.T) {
	const budget = 2100
	wg := graph.WeightedGnp(24, 0.3, 100, 24)
	for _, par := range []int{1, 4} {
		env := core.Env{Parallelism: par}
		run := func() {
			if _, err := APSP(env, wg, Naive, 32, 1, nil); err != nil {
				t.Fatalf("p=%d: %v", par, err)
			}
		}
		run()
		allocs := testing.AllocsPerRun(10, run)
		t.Logf("p=%d: %.0f objects per APSP(Naive) run (budget %d)", par, allocs, budget)
		if allocs > budget {
			t.Errorf("p=%d: %.0f objects per APSP(Naive) run, budget %d", par, allocs, budget)
		}
	}
}
