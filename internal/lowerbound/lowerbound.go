// Package lowerbound implements Section 3.2–3.5 of the paper: the
// (H,F)-lower-bound graphs of Definition 10, the explicit constructions of
// Lemma 14 (cliques vs K_{N,N}), Lemma 18 (cycles vs extremal C_ℓ-free
// graphs) and Lemma 21 (complete bipartite subgraphs vs bipartite C₄-free
// graphs), machine verification of the Definition 10 conditions, the
// δ-sparsity of Definition 12, and the Lemma 13 reduction from 2-party set
// disjointness to H-subgraph detection.
package lowerbound

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// Errors reported by verification.
var (
	ErrNotDisjoint   = errors.New("lowerbound: F_A and F_B share vertices")
	ErrEmbedding     = errors.New("lowerbound: φ does not embed F into G'")
	ErrConditionI    = errors.New("lowerbound: Definition 10 condition I fails")
	ErrConditionII   = errors.New("lowerbound: Definition 10 condition II fails")
	ErrBadInstance   = errors.New("lowerbound: instance inputs do not match |E_F|")
	ErrBadDimensions = errors.New("lowerbound: construction parameters out of range")
)

// Graph is an (H,F)-lower-bound graph per Definition 10: a template G'
// with two disjoint embedded copies of F whose edges Alice and Bob control.
type Graph struct {
	G *graph.Graph // the template G'
	H *graph.Graph // the subgraph being detected
	F *graph.Graph // the universe graph: E_F indexes set-disjointness elements

	PhiA []int // F vertex -> G' vertex (Alice's copy F_A)
	PhiB []int // F vertex -> G' vertex (Bob's copy F_B)

	// Partition of G''s vertices for Lemma 13 / Definition 12: Side[v] is
	// true for Alice's simulated nodes (V_A ⊆ Alice, V_B ⊆ Bob).
	Side []bool
}

// EF returns the edges of F in a fixed order; index into this slice is the
// set-disjointness element identifier.
func (lb *Graph) EF() [][2]int { return lb.F.Edges() }

// MapEdge applies a vertex map to an F edge.
func MapEdge(phi []int, e [2]int) [2]int {
	a, b := phi[e[0]], phi[e[1]]
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// controlled returns the set of Alice- and Bob-controlled edges.
func (lb *Graph) controlled() map[[2]int]bool {
	out := make(map[[2]int]bool)
	for _, e := range lb.EF() {
		out[MapEdge(lb.PhiA, e)] = true
		out[MapEdge(lb.PhiB, e)] = true
	}
	return out
}

// TemplateEdges returns E' \ (E_A ∪ E_B): the fixed edges present in every
// instance.
func (lb *Graph) TemplateEdges() [][2]int {
	ctrl := lb.controlled()
	var out [][2]int
	for _, e := range lb.G.Edges() {
		if !ctrl[e] {
			out = append(out, e)
		}
	}
	return out
}

// Instance builds the input graph G ⊆ G' for set-disjointness inputs x
// and y over E_F: all template edges, plus φ_A(e) iff x[e], plus φ_B(e)
// iff y[e] (the Lemma 13 construction).
func (lb *Graph) Instance(x, y []bool) (*graph.Graph, error) {
	ef := lb.EF()
	if len(x) != len(ef) || len(y) != len(ef) {
		return nil, fmt.Errorf("%w: |x|=%d |y|=%d |E_F|=%d", ErrBadInstance, len(x), len(y), len(ef))
	}
	g := graph.New(lb.G.N())
	for _, e := range lb.TemplateEdges() {
		g.AddEdge(e[0], e[1])
	}
	for i, e := range ef {
		if x[i] {
			m := MapEdge(lb.PhiA, e)
			g.AddEdge(m[0], m[1])
		}
		if y[i] {
			m := MapEdge(lb.PhiB, e)
			g.AddEdge(m[0], m[1])
		}
	}
	return g, nil
}

// Verify machine-checks Definition 10 on the template:
//
//	(pre) φ_A, φ_B embed F on disjoint vertex sets;
//	(I)   every e ∈ E_F has an H-copy through φ_A(e), φ_B(e) touching
//	      V_A ∪ V_B in exactly those four endpoints;
//	(II)  every H-copy of G' is of that form.
//
// Cost grows with the number of H-copies in G'; intended for the moderate
// template sizes of the experiments.
func (lb *Graph) Verify() error {
	if err := lb.verifyEmbeddings(); err != nil {
		return err
	}
	inAB := make(map[int]bool)
	for _, v := range lb.PhiA {
		inAB[v] = true
	}
	for _, v := range lb.PhiB {
		if inAB[v] {
			return fmt.Errorf("%w: vertex %d", ErrNotDisjoint, v)
		}
		inAB[v] = true
	}

	copies := graph.EnumerateCopies(lb.G, lb.H)
	ef := lb.EF()
	witnessed := make([]bool, len(ef))
	for _, cp := range copies {
		edgeSet := make(map[[2]int]bool, len(cp.Edges))
		for _, e := range cp.Edges {
			edgeSet[e] = true
		}
		matched := false
		for i, e := range ef {
			ea := MapEdge(lb.PhiA, e)
			eb := MapEdge(lb.PhiB, e)
			if !edgeSet[ea] || !edgeSet[eb] {
				continue
			}
			// (c): the copy meets V_A ∪ V_B exactly in the 4 endpoints.
			endpoint := map[int]bool{ea[0]: true, ea[1]: true, eb[0]: true, eb[1]: true}
			ok := true
			for _, v := range cp.Verts {
				if inAB[v] && !endpoint[v] {
					ok = false
					break
				}
			}
			if ok {
				matched = true
				witnessed[i] = true
			}
		}
		if !matched {
			return fmt.Errorf("%w: stray H-copy on vertices %v", ErrConditionII, cp.Verts)
		}
	}
	for i, w := range witnessed {
		if !w {
			return fmt.Errorf("%w: edge %d (%v) has no H-copy", ErrConditionI, i, ef[i])
		}
	}
	return nil
}

func (lb *Graph) verifyEmbeddings() error {
	for name, phi := range map[string][]int{"A": lb.PhiA, "B": lb.PhiB} {
		if len(phi) != lb.F.N() {
			return fmt.Errorf("%w: φ_%s has %d entries for %d F-vertices",
				ErrEmbedding, name, len(phi), lb.F.N())
		}
		seen := make(map[int]bool)
		for _, v := range phi {
			if v < 0 || v >= lb.G.N() || seen[v] {
				return fmt.Errorf("%w: φ_%s not injective into G'", ErrEmbedding, name)
			}
			seen[v] = true
		}
		for _, e := range lb.F.Edges() {
			m := MapEdge(phi, e)
			if !lb.G.HasEdge(m[0], m[1]) {
				return fmt.Errorf("%w: φ_%s drops edge %v", ErrEmbedding, name, e)
			}
		}
	}
	return nil
}

// ObservationEleven checks the iff of Observation 11 on a concrete
// instance: the instance contains H iff x and y intersect. Used by tests
// and the reduction driver as a self-check.
func (lb *Graph) ObservationEleven(x, y []bool) (bool, error) {
	g, err := lb.Instance(x, y)
	if err != nil {
		return false, err
	}
	has := graph.ContainsSubgraph(g, lb.H)
	intersect := false
	for i := range x {
		if x[i] && y[i] {
			intersect = true
			break
		}
	}
	if has != intersect {
		return has, fmt.Errorf("lowerbound: Observation 11 violated: H=%v, intersect=%v", has, intersect)
	}
	return has, nil
}

// Sparsity returns the cut size of the template under Side and δ =
// cut/|V'| (Definition 12). Instances only remove edges, so every
// instance's cut is at most this.
func (lb *Graph) Sparsity() (cut int, delta float64) {
	cut = lb.G.CutSize(lb.Side)
	return cut, float64(cut) / float64(lb.G.N())
}
