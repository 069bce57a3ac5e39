package graph

import (
	"fmt"
	"math/rand"
)

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Cycle returns the cycle C_n (n >= 3).
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: cycle needs >= 3 vertices, got %d", n))
	}
	g := New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
	}
	return g
}

// Path returns the path P_n on n vertices (n-1 edges).
func Path(n int) *Graph {
	g := New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1)
	}
	return g
}

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(0, v)
	}
	return g
}

// CompleteBipartite returns K_{a,b}: left part {0..a-1}, right {a..a+b-1}.
func CompleteBipartite(a, b int) *Graph {
	g := New(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Gnp returns an Erdős–Rényi random graph G(n,p).
func Gnp(n int, p float64, rng *rand.Rand) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// Gnm returns a uniformly random graph with n vertices and exactly m edges
// (m must not exceed n(n-1)/2).
func Gnm(n, m int, rng *rand.Rand) *Graph {
	max := n * (n - 1) / 2
	if m > max {
		panic(fmt.Sprintf("graph: Gnm(%d,%d) exceeds max %d edges", n, m, max))
	}
	g := New(n)
	for g.M() < m {
		u := rng.Intn(n)
		v := rng.Intn(n)
		g.AddEdge(u, v)
	}
	return g
}

// RandomTree returns a uniformly random labelled tree on n vertices via a
// random Prüfer-like attachment (each vertex v >= 1 attaches to a uniform
// earlier vertex), which suffices for test workloads.
func RandomTree(n int, rng *rand.Rand) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.Intn(v))
	}
	return g
}

// RandomBipartite returns a random bipartite graph with parts of size a and
// b where each cross pair is an edge independently with probability p.
func RandomBipartite(a, b int, p float64, rng *rand.Rand) *Graph {
	g := New(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// PowerLaw returns a preferential-attachment (Barabási–Albert style)
// graph: vertices arrive one at a time and each newcomer attaches to m
// distinct earlier vertices chosen with probability proportional to their
// current degree (endpoint sampling over the running edge list). The
// first min(m+1, n) vertices form a clique seed. Degree tails follow the
// usual power law, giving the scenario matrix its skewed-degree family.
func PowerLaw(n, m int, rng *rand.Rand) *Graph {
	if m < 1 {
		m = 1
	}
	g := New(n)
	seed := m + 1
	if seed > n {
		seed = n
	}
	for u := 0; u < seed; u++ {
		for v := u + 1; v < seed; v++ {
			g.AddEdge(u, v)
		}
	}
	// ends holds both endpoints of every edge so far; uniform sampling
	// from it is degree-proportional sampling of vertices.
	ends := make([]int, 0, 2*m*n)
	for _, e := range g.Edges() {
		ends = append(ends, e[0], e[1])
	}
	// The newcomer loop only runs when n > seed >= 2, so the clique seed
	// guarantees ends is non-empty and holds >= m+1 distinct vertices,
	// all < v: sampling always terminates.
	picked := make([]int, 0, m)
	for v := seed; v < n; v++ {
		picked = picked[:0]
		for len(picked) < m {
			t := ends[rng.Intn(len(ends))]
			dup := false
			for _, q := range picked {
				if q == t {
					dup = true
					break
				}
			}
			if !dup {
				picked = append(picked, t)
			}
		}
		for _, t := range picked {
			g.AddEdge(v, t)
			ends = append(ends, v, t)
		}
	}
	return g
}

// ComponentsGnp returns a graph with exactly k connected components:
// the vertices split into k near-equal contiguous blocks, each block is
// a random spanning tree plus G(block, p) extra edges, and no edge
// crosses blocks. The disconnected-components family of the sketch
// connectivity protocols (DESIGN.md §10); k is capped at n.
func ComponentsGnp(n, k int, p float64, rng *rand.Rand) *Graph {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	g := New(n)
	for b := 0; b < k; b++ {
		lo, hi := b*n/k, (b+1)*n/k
		for v := lo + 1; v < hi; v++ {
			g.AddEdge(v, lo+rng.Intn(v-lo))
		}
		for u := lo; u < hi; u++ {
			for v := u + 1; v < hi; v++ {
				if rng.Float64() < p {
					g.AddEdge(u, v)
				}
			}
		}
	}
	return g
}

// PlantedGnp returns G(n, p) with `copies` random copies of the pattern h
// planted on top (the planted-H family of the scenario matrix), together
// with the vertex sets used for the plants.
func PlantedGnp(n int, p float64, h *Graph, copies int, rng *rand.Rand) (*Graph, [][]int) {
	g := Gnp(n, p, rng)
	plants := make([][]int, 0, copies)
	for i := 0; i < copies; i++ {
		plants = append(plants, PlantCopy(g, h, rng))
	}
	return g, plants
}

// WithIsolated returns a copy of g padded with isolated vertices up to n
// total (or g itself unchanged, as a clone, when it already has >= n).
// Scenario families built from rigid constructions (RS tripartite graphs,
// polarity graphs) use it to hit an exact player count.
func WithIsolated(g *Graph, n int) *Graph {
	if n < g.N() {
		n = g.N()
	}
	out := New(n)
	for _, e := range g.Edges() {
		out.AddEdge(e[0], e[1])
	}
	return out
}

// DisjointUnion returns the disjoint union of g and h; vertices of h are
// shifted up by g.N().
func DisjointUnion(g, h *Graph) *Graph {
	out := New(g.N() + h.N())
	for _, e := range g.Edges() {
		out.AddEdge(e[0], e[1])
	}
	for _, e := range h.Edges() {
		out.AddEdge(e[0]+g.N(), e[1]+g.N())
	}
	return out
}

// PlantCopy embeds pattern h into g on a random injective vertex set and
// returns the vertices used (position i hosts pattern vertex i). It panics
// if h has more vertices than g.
func PlantCopy(g, h *Graph, rng *rand.Rand) []int {
	if h.N() > g.N() {
		panic("graph: pattern larger than host")
	}
	perm := rng.Perm(g.N())[:h.N()]
	for _, e := range h.Edges() {
		g.AddEdge(perm[e[0]], perm[e[1]])
	}
	return perm
}
