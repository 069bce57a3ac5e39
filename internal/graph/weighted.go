package graph

import (
	"fmt"
	"math/rand"

	"repro/internal/bits"
)

// Weighted couples a Graph with positive uint32 edge weights. Weights are
// stored symmetrically (Weight(u,v) == Weight(v,u)); non-edges and the
// diagonal carry weight 0, which the semiring layer maps to +inf / the
// additive identity when it builds distance matrices.
type Weighted struct {
	*Graph
	w []uint32 // n*n row-major, symmetric
}

// NewWeighted wraps g with an all-zero weight table; callers assign edge
// weights with SetWeight (or use WeightedFromSeed for deterministic ones).
func NewWeighted(g *Graph) *Weighted {
	return &Weighted{Graph: g, w: make([]uint32, g.N()*g.N())}
}

// Weight returns the weight of edge {u,v}, or 0 if {u,v} is not an edge.
func (wg *Weighted) Weight(u, v int) uint32 {
	wg.check(u)
	wg.check(v)
	return wg.w[u*wg.N()+v]
}

// SetWeight assigns weight x to the existing edge {u,v}. Weights must be
// positive (0 is reserved for non-edges) and the edge must exist.
func (wg *Weighted) SetWeight(u, v int, x uint32) {
	if !wg.HasEdge(u, v) {
		panic(fmt.Sprintf("graph: SetWeight on non-edge {%d,%d}", u, v))
	}
	if x == 0 {
		panic(fmt.Sprintf("graph: zero weight on edge {%d,%d}", u, v))
	}
	n := wg.N()
	wg.w[u*n+v] = x
	wg.w[v*n+u] = x
}

// edgeWeight derives the deterministic weight of edge {u,v} from seed: a
// splitmix64 of (seed, min, max) reduced to [1, maxW]. It depends only on
// the unordered pair, never on edge-insertion order, so two independently
// generated copies of the same graph get identical weights — the property
// the scenario matrix's differential legs rely on.
func edgeWeight(seed int64, u, v int, maxW uint32) uint32 {
	if u > v {
		u, v = v, u
	}
	z := bits.Mix64(uint64(seed) ^ 0x9e3779b97f4a7c15*uint64(u+1) ^ 0x517cc1b727220a95*uint64(v+1))
	return 1 + uint32(z%uint64(maxW))
}

// WeightedFromSeed assigns every edge of g a deterministic weight in
// [1, maxW] derived from (seed, endpoints). maxW must be positive.
func WeightedFromSeed(g *Graph, seed int64, maxW uint32) *Weighted {
	if maxW == 0 {
		panic("graph: WeightedFromSeed needs maxW >= 1")
	}
	wg := NewWeighted(g)
	for _, e := range g.Edges() {
		wg.SetWeight(e[0], e[1], edgeWeight(seed, e[0], e[1], maxW))
	}
	return wg
}

// WeightedGnp returns G(n,p) with deterministic uint32 edge weights in
// [1, maxW]: both the topology (via a seeded rng) and the weights (via
// WeightedFromSeed) are functions of seed alone.
func WeightedGnp(n int, p float64, maxW uint32, seed int64) *Weighted {
	g := Gnp(n, p, rand.New(rand.NewSource(seed)))
	return WeightedFromSeed(g, seed, maxW)
}

// ConnectedWeightedGnp returns a connected weighted graph: G(n,p)
// overlaid with a random spanning tree (so every instance is connected
// regardless of p), with deterministic uint32 edge weights in [1, maxW].
// Topology and weights are functions of seed alone; weights depend only
// on (seed, endpoints), never on edge-insertion order — the same
// invariance WeightedFromSeed guarantees.
func ConnectedWeightedGnp(n int, p float64, maxW uint32, seed int64) *Weighted {
	rng := rand.New(rand.NewSource(seed))
	g := Gnp(n, p, rng)
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.Intn(v))
	}
	return WeightedFromSeed(g, seed, maxW)
}

// WeightedPowerLaw returns a preferential-attachment graph (PowerLaw with
// attachment degree m) with deterministic uint32 edge weights in [1, maxW],
// a function of seed alone.
func WeightedPowerLaw(n, m int, maxW uint32, seed int64) *Weighted {
	g := PowerLaw(n, m, rand.New(rand.NewSource(seed)))
	return WeightedFromSeed(g, seed, maxW)
}
