// Package rsgraph provides the Ruzsa–Szemerédi-style graphs of Claim 23:
// tripartite graphs with many edge-disjoint triangles in which every edge
// belongs to exactly one triangle. The paper cites [38] nonconstructively;
// we use the standard explicit route through Behrend's construction of
// large progression-free sets:
//
//	S ⊆ [1..m] with no 3-term arithmetic progression, |S| ≥ m/e^{O(√log m)},
//
// and the induced tripartite graph on A = [n], B = [2n], C = [3n] with a
// triangle (x, x+d, x+2d) for every x ∈ A, d ∈ S. Progression-freeness
// makes these the only triangles, and the parameterization puts every edge
// in exactly one of them — the two properties Theorem 24's reduction needs.
//
// Part sizes differ from Claim 23's normalization (|A| = |B| = n, |C| =
// n/3) by constants only; the reduction's accounting identity is reported
// against the actual vertex count.
package rsgraph

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// ErrBadParam reports invalid construction parameters.
var ErrBadParam = errors.New("rsgraph: invalid parameter")

// ProgressionFreeSet returns a large subset of [1..m] with no 3-term
// arithmetic progression, via Behrend's construction: numbers whose base-d
// digits are below d/2 and have a fixed sum of squares. All (d, digits)
// shapes that fit in m are tried and the best norm bucket wins; digits
// below d/2 prevent carries, so x + z = 2y forces digit-wise equality, and
// equal norms then force x = z.
func ProgressionFreeSet(m int) []int {
	if m < 1 {
		return nil
	}
	if m <= 3 {
		// {1}, {1,2}, {1,2,3}\{2}... small cases by hand: {1,2} is AP-free;
		// {1,2,3} is not (1,2,3 is an AP).
		switch m {
		case 1:
			return []int{1}
		case 2:
			return []int{1, 2}
		default:
			return []int{1, 2} // any 3-element subset of [1..3] w/o AP has size 2
		}
	}
	// Erdős–Turán baseline (better than Behrend at small m): numbers with
	// only digits {0,1} in base 3 are 3-AP-free (x+z = 2y would need a
	// digit 2 or digit-wise equality without carries).
	best := []int{1, 2}
	var et []int
	for v := 0; v < m; v++ {
		ok := true
		for x := v; x > 0; x /= 3 {
			if x%3 == 2 {
				ok = false
				break
			}
		}
		if ok {
			et = append(et, v+1)
		}
	}
	if len(et) > len(best) {
		best = et
	}
	for d := 3; d <= 40; d++ {
		half := (d + 1) / 2 // digits in [0, half)
		for digits := 1; pow(d, digits) <= 4*m; digits++ {
			buckets := make(map[int][]int)
			enumDigits(d, half, digits, func(val, norm int) {
				v := val + 1 // shift into [1..m]
				if v <= m {
					buckets[norm] = append(buckets[norm], v)
				}
			})
			for _, set := range buckets {
				if len(set) > len(best) {
					best = set
				}
			}
		}
	}
	return best
}

// enumDigits enumerates all `digits`-digit base-d values with digits in
// [0, half), reporting each value and its digit-norm Σa_i².
func enumDigits(d, half, digits int, f func(val, norm int)) {
	var rec func(pos, val, norm int)
	rec = func(pos, val, norm int) {
		if pos == digits {
			f(val, norm)
			return
		}
		for a := 0; a < half; a++ {
			rec(pos+1, val*d+a, norm+a*a)
		}
	}
	rec(0, 0, 0)
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
		if out > 1<<30 {
			return out
		}
	}
	return out
}

// HasThreeAP reports whether the set contains x < y < z with x + z = 2y.
func HasThreeAP(s []int) bool {
	in := make(map[int]bool, len(s))
	for _, v := range s {
		in[v] = true
	}
	for i := 0; i < len(s); i++ {
		for j := i + 1; j < len(s); j++ {
			x, y := s[i], s[j]
			if x == y {
				continue
			}
			// z with x, y, z in AP: z = 2y - x; also y mid: handled by pairs.
			if in[2*y-x] && 2*y-x != y && 2*y-x != x {
				return true
			}
			if (x+y)%2 == 0 {
				mid := (x + y) / 2
				if in[mid] && mid != x && mid != y {
					return true
				}
			}
		}
	}
	return false
}

// Tripartite is the Claim 23 object: a tripartite graph whose triangle set
// is exactly an edge-disjoint family indexed by (x, d) pairs.
type Tripartite struct {
	G         *graph.Graph
	NParam    int      // the construction parameter n
	S         []int    // the progression-free difference set
	Triangles [][3]int // triangle i = (aVertex, bVertex, cVertex)

	aOff, bOff, cOff int
}

// NewTripartite builds the graph for parameter n: parts A = [n], B = [2n],
// C = [3n] and a triangle (x, x+d, x+2d) per x ∈ A, d ∈ S(n).
func NewTripartite(n int) (*Tripartite, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadParam, n)
	}
	s := ProgressionFreeSet(n)
	g := graph.New(6 * n)
	t := &Tripartite{G: g, NParam: n, S: s, aOff: 0, bOff: n, cOff: 3 * n}
	for x := 0; x < n; x++ {
		for _, d := range s {
			a := t.aOff + x
			b := t.bOff + x + d
			c := t.cOff + x + 2*d
			g.AddEdge(a, b)
			g.AddEdge(b, c)
			g.AddEdge(a, c)
			t.Triangles = append(t.Triangles, [3]int{a, b, c})
		}
	}
	return t, nil
}

// PartOf returns 0, 1 or 2 for membership of v in A, B or C.
func (t *Tripartite) PartOf(v int) int {
	switch {
	case v < t.bOff:
		return 0
	case v < t.cOff:
		return 1
	default:
		return 2
	}
}

// TriangleOfEdge returns the unique triangle index containing the edge
// {u,v}, or -1 if the edge is not in the graph.
func (t *Tripartite) TriangleOfEdge(u, v int) int {
	if !t.G.HasEdge(u, v) {
		return -1
	}
	pu, pv := t.PartOf(u), t.PartOf(v)
	if pu > pv {
		u, v = v, u
		pu, pv = pv, pu
	}
	var x, d int
	switch {
	case pu == 0 && pv == 1: // (x, x+d)
		x = u - t.aOff
		d = (v - t.bOff) - x
	case pu == 1 && pv == 2: // (x+d, x+2d)
		d = (v - t.cOff) - (u - t.bOff)
		x = (u - t.bOff) - d
	case pu == 0 && pv == 2: // (x, x+2d)
		x = u - t.aOff
		diff := (v - t.cOff) - x
		if diff%2 != 0 {
			return -1
		}
		d = diff / 2
	default:
		return -1
	}
	for i, tri := range t.Triangles {
		if tri[0] == t.aOff+x && tri[1] == t.bOff+x+d && tri[2] == t.cOff+x+2*d {
			return i
		}
	}
	return -1
}

// Verify machine-checks the Claim 23 properties: the graph is tripartite,
// its triangle count equals the family size (no accidental triangles), and
// every edge lies in exactly one family member.
func (t *Tripartite) Verify() error {
	for _, e := range t.G.Edges() {
		if t.PartOf(e[0]) == t.PartOf(e[1]) {
			return fmt.Errorf("rsgraph: edge %v inside one part", e)
		}
	}
	if got, want := t.G.CountTriangles(), len(t.Triangles); got != want {
		return fmt.Errorf("rsgraph: %d triangles in graph, family has %d", got, want)
	}
	seen := make(map[[2]int]int)
	for i, tri := range t.Triangles {
		for _, e := range [][2]int{{tri[0], tri[1]}, {tri[1], tri[2]}, {tri[0], tri[2]}} {
			if e[0] > e[1] {
				e[0], e[1] = e[1], e[0]
			}
			if prev, dup := seen[e]; dup {
				return fmt.Errorf("rsgraph: edge %v in triangles %d and %d", e, prev, i)
			}
			seen[e] = i
		}
	}
	if len(seen) != t.G.M() {
		return fmt.Errorf("rsgraph: %d family edges vs %d graph edges", len(seen), t.G.M())
	}
	return nil
}
