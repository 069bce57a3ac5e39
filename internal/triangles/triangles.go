// Package triangles implements the triangle-detection algorithms the paper
// builds on and compares against:
//
//   - BroadcastDetect: the trivial CLIQUE-BCAST baseline — every node
//     broadcasts its adjacency row over ceil(n/b) rounds and decides
//     locally (the O(n log n / b) upper bound the paper calls trivial for
//     non-bipartite H).
//   - DLPDeterministic: the deterministic Õ(n^{1/3})-round CLIQUE-UCAST
//     algorithm of Dolev, Lenzen and Peled [8]: vertices are split into
//     g ≈ n^{1/3} groups, each group triple is checked by a dedicated
//     player, and the three bipartite blocks of each triple are shipped to
//     the checker as a Lenzen-balanced demand.
//   - DLPRandomized: the Õ(n^{1/3}/T^{2/3}) variant for graphs promised to
//     contain at least T triangles: finer groups (g³ ≈ nT triples), each
//     player samples a few random triples, announces them, receives the
//     blocks and checks. One-sided error: a positive answer always
//     exhibits a triangle.
//
// Together with internal/matmul's Section 2.1 detector, these regenerate
// the upper-bound landscape the paper's Section 2.1/3.6 discussion sits in.
package triangles

import (
	"fmt"
	"sort"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/f2"
	"repro/internal/graph"
	"repro/internal/routing"
)

// Result reports one detection run. When Found is true and the algorithm
// localizes the triangle (the DLP variants do), Witness holds its three
// vertices.
type Result struct {
	Found   bool
	Witness [3]int
	HasWit  bool
	Stats   core.Stats
}

// BroadcastDetect runs the trivial full-exchange detection in
// CLIQUE-BCAST(n, bandwidth). The local decision runs word-packed: the
// received rows are reassembled into an f2 adjacency matrix and a
// triangle exists iff some entry of A AND A∘A (Boolean square, computed
// by the four-Russians multiplier) is set.
func BroadcastDetect(env core.Env, g *graph.Graph, bandwidth int, seed int64) (*Result, error) {
	n := g.N()
	views := graph.Distribute(g)
	rounds := core.ChunkRounds(n, bandwidth)
	cfg := core.Config{N: n, Bandwidth: bandwidth, Model: core.Broadcast, Seed: seed}
	res, err := core.RunProcs(env.Apply(cfg), func(p *core.Proc) error {
		payload := core.EncodeAdjacencyRow(views[p.ID()].Row(), n)
		all, err := core.ExchangeBroadcasts(p, payload, rounds)
		if err != nil {
			return err
		}
		recon := f2.New(n)
		for v, buf := range all {
			row, err := core.DecodeAdjacencyRow(buf, n)
			if err != nil {
				return fmt.Errorf("node %d: row from %d: %w", p.ID(), v, err)
			}
			recon.SetRowWords(v, row)
		}
		p.SetOutput(hasTriangleBitset(recon))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return collectAgreement(res)
}

// hasTriangleBitset decides triangle existence from a packed adjacency
// matrix: A[i][j] and (A∘A)[i][j] are both set for some i,j iff edge
// {i,j} has a common neighbor (the diagonal of A is zero, so the witness
// is distinct from both endpoints).
func hasTriangleBitset(a *f2.Matrix) bool {
	sq := f2.BoolMulM4R(a, a)
	for i := 0; i < a.N(); i++ {
		ai, si := a.Row(i), sq.Row(i)
		for w := range ai {
			if ai[w]&si[w] != 0 {
				return true
			}
		}
	}
	return false
}

// grouping is a balanced partition of vertices into g groups with
// publicly computable membership.
type grouping struct {
	g       int
	of      []int   // vertex -> group
	members [][]int // group -> sorted vertices
	maxSize int
}

func contiguousGrouping(n, g int) *grouping {
	gr := &grouping{g: g, of: make([]int, n), members: make([][]int, g)}
	for v := 0; v < n; v++ {
		gi := v * g / n
		gr.of[v] = gi
		gr.members[gi] = append(gr.members[gi], v)
	}
	for _, m := range gr.members {
		if len(m) > gr.maxSize {
			gr.maxSize = len(m)
		}
	}
	return gr
}

// permutedGrouping assigns groups through a shared pseudorandom
// permutation derived from publicSeed (the protocol's common random
// string), spreading triangles across group triples.
func permutedGrouping(n, g int, publicSeed int64) *grouping {
	perm := sharedPerm(n, publicSeed)
	gr := &grouping{g: g, of: make([]int, n), members: make([][]int, g)}
	for v := 0; v < n; v++ {
		gi := perm[v] * g / n
		gr.of[v] = gi
		gr.members[gi] = append(gr.members[gi], v)
	}
	for i := range gr.members {
		sort.Ints(gr.members[i])
		if len(gr.members[i]) > gr.maxSize {
			gr.maxSize = len(gr.members[i])
		}
	}
	return gr
}

// sharedPerm derives a permutation of [n] from a public seed with a
// deterministic Fisher–Yates over a splitmix-style generator.
func sharedPerm(n int, seed int64) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	x := uint64(seed)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	next := func() uint64 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// triple is an unordered group triple a <= b <= c.
type triple struct{ a, b, c int }

// blocks returns the distinct (X, Y) group pairs whose bipartite edges the
// triple's checker needs; rows of X restricted to Y cover block (X, Y).
func (t triple) blocks() [][2]int {
	all := [][2]int{{t.a, t.b}, {t.a, t.c}, {t.b, t.c}}
	out := all[:0]
	seen := make(map[[2]int]bool, 3)
	for _, bl := range all {
		if !seen[bl] {
			seen[bl] = true
			out = append(out, bl)
		}
	}
	return out
}

// allTriples enumerates all multisets {a<=b<=c} over [g].
func allTriples(g int) []triple {
	var out []triple
	for a := 0; a < g; a++ {
		for b := a; b < g; b++ {
			for c := b; c < g; c++ {
				out = append(out, triple{a, b, c})
			}
		}
	}
	return out
}

// DLPDeterministic runs the deterministic Õ(n^{1/3})-round algorithm of
// [8] on CLIQUE-UCAST(n, bandwidth).
func DLPDeterministic(env core.Env, g *graph.Graph, bandwidth int, seed int64) (*Result, error) {
	n := g.N()
	if n < 2 {
		return &Result{Found: false}, nil
	}
	views := graph.Distribute(g)
	numGroups := 1
	for numGroups*numGroups*numGroups < n {
		numGroups++
	}
	gr := contiguousGrouping(n, numGroups)
	trs := allTriples(numGroups)
	owner := make(map[int][]triple, n) // player -> owned triples
	for i, tr := range trs {
		owner[i%n] = append(owner[i%n], tr)
	}
	rt := routing.NewRouter(n)
	cfg := core.Config{N: n, Bandwidth: bandwidth, Model: core.Unicast, Seed: seed}
	res, err := core.RunProcs(env.Apply(cfg), func(p *core.Proc) error {
		found, wit, err := serveAndCheck(p, rt, views[p.ID()], gr, owner)
		if err != nil {
			return err
		}
		return agree(p, found, wit)
	})
	if err != nil {
		return nil, err
	}
	return collectAgreement(res)
}

// DLPRandomized runs the Õ(n^{1/3}/T^{2/3}) algorithm of [8] under the
// promise that the graph has at least T triangles: g³ ≈ n·T group triples,
// samplesPerNode random triples checked by every player (Θ(log n) gives
// high-probability detection). The answer is one-sided: true only if a
// checker saw a triangle.
func DLPRandomized(env core.Env, g *graph.Graph, bandwidth, promisedT, samplesPerNode int, seed int64) (*Result, error) {
	n := g.N()
	if n < 2 {
		return &Result{Found: false}, nil
	}
	if promisedT < 1 || samplesPerNode < 1 {
		return nil, fmt.Errorf("triangles: bad parameters T=%d samples=%d", promisedT, samplesPerNode)
	}
	views := graph.Distribute(g)
	target := n * promisedT
	numGroups := 1
	for numGroups*numGroups*numGroups < target {
		numGroups++
	}
	if numGroups > n {
		numGroups = n
	}
	gr := permutedGrouping(n, numGroups, seed)
	gw := bits.UintWidth(uint64(numGroups - 1))

	rt := routing.NewRouter(n)
	cfg := core.Config{N: n, Bandwidth: bandwidth, Model: core.Unicast, Seed: seed}
	res, err := core.RunProcs(env.Apply(cfg), func(p *core.Proc) error {
		// Sample and announce triples: 3·samples group ids per node.
		mine := make([]triple, samplesPerNode)
		payload := bits.New(3 * samplesPerNode * gw)
		for i := range mine {
			gs := []int{
				p.Rand().Intn(numGroups),
				p.Rand().Intn(numGroups),
				p.Rand().Intn(numGroups),
			}
			sort.Ints(gs)
			mine[i] = triple{gs[0], gs[1], gs[2]}
			for _, x := range gs {
				payload.WriteUint(uint64(x), gw)
			}
		}
		rounds := core.ChunkRounds(3*samplesPerNode*gw, p.Bandwidth())
		all, err := core.ExchangeBroadcasts(p, payload, rounds)
		if err != nil {
			return err
		}
		owner := make(map[int][]triple, n)
		for v, buf := range all {
			r := bits.NewReader(buf)
			for i := 0; i < samplesPerNode; i++ {
				var gs [3]int
				for k := range gs {
					x, err := r.ReadUint(gw)
					if err != nil {
						return fmt.Errorf("node %d: bad announcement from %d: %w", p.ID(), v, err)
					}
					gs[k] = int(x)
				}
				owner[v] = append(owner[v], triple{gs[0], gs[1], gs[2]})
			}
		}
		found, wit, err := serveAndCheck(p, rt, views[p.ID()], gr, owner)
		if err != nil {
			return err
		}
		return agree(p, found, wit)
	})
	if err != nil {
		return nil, err
	}
	return collectAgreement(res)
}

// serveAndCheck is the common core of both DLP variants: ship every block
// row each checker needs (deduplicated per (sender, checker, target
// group)), then check all owned triples locally.
func serveAndCheck(p *core.Proc, rt *routing.Router, lv *graph.LocalView,
	gr *grouping, owner map[int][]triple) (bool, [3]int, error) {
	me := p.ID()
	gw := bits.UintWidth(uint64(gr.g - 1))
	maxPayload := gw + gr.maxSize

	// Outgoing: for every checker v and block (X, Y) of its triples with
	// me ∈ X, send my row restricted to members(Y), once per (v, Y).
	none := [3]int{-1, -1, -1}
	var out []routing.Msg
	for v := 0; v < p.N(); v++ {
		sentY := make(map[int]bool)
		for _, tr := range owner[v] {
			for _, bl := range tr.blocks() {
				if gr.of[me] != bl[0] && gr.of[me] != bl[1] {
					continue
				}
				// Rows of X restricted to Y; if I'm in Y but not X for an
				// unequal block, the X-rows already cover it.
				var y int
				switch gr.of[me] {
				case bl[0]:
					y = bl[1]
				default:
					continue
				}
				if sentY[y] {
					continue
				}
				sentY[y] = true
				payload := bits.New(maxPayload)
				payload.WriteUint(uint64(y), gw)
				for _, w := range gr.members[y] {
					payload.WriteBool(lv.HasEdge(w))
				}
				out = append(out, routing.Msg{Src: me, Dst: v, Payload: payload})
			}
		}
	}
	recv, err := rt.Route(p, out, maxPayload)
	if err != nil {
		return false, none, err
	}
	// rows[u][y][k] = edge between u and the k-th member of group y.
	rows := make(map[int]map[int][]bool)
	for _, m := range recv {
		r := bits.NewReader(m.Payload)
		y64, err := r.ReadUint(gw)
		if err != nil {
			return false, none, fmt.Errorf("triangles: bad block header from %d: %w", m.Src, err)
		}
		y := int(y64)
		vals := make([]bool, len(gr.members[y]))
		for k := range vals {
			v, err := r.ReadBool()
			if err != nil {
				return false, none, fmt.Errorf("triangles: short block from %d: %w", m.Src, err)
			}
			vals[k] = v
		}
		if rows[m.Src] == nil {
			rows[m.Src] = make(map[int][]bool)
		}
		rows[m.Src][y] = vals
	}
	edge := func(u, y, k int) bool {
		ry := rows[u]
		if ry == nil || ry[y] == nil {
			return false
		}
		return ry[y][k]
	}
	for _, tr := range owner[me] {
		for _, u := range gr.members[tr.a] {
			for wi, w := range gr.members[tr.b] {
				if u == w || !edge(u, tr.b, wi) {
					continue
				}
				for xi, x := range gr.members[tr.c] {
					if x == u || x == w {
						continue
					}
					if edge(u, tr.c, xi) && edge(w, tr.c, xi) {
						return true, [3]int{u, w, x}, nil
					}
				}
			}
		}
	}
	return false, none, nil
}

// verdictOut is a node's final output: the agreed verdict plus the local
// witness if this node found one.
type verdictOut struct {
	verdict bool
	witness [3]int
	hasWit  bool
}

// agree ORs the players' verdicts through node 0 (core.AllReduce) and
// makes every node output the agreed answer (the witness stays local to
// its finder, as in [8]).
func agree(p *core.Proc, found bool, wit [3]int) error {
	var v uint64
	if found {
		v = 1
	}
	verdict, err := core.AllReduce(p, v, 1, func(acc, x uint64) uint64 { return acc | x })
	if err != nil {
		return err
	}
	p.SetOutput(verdictOut{verdict: verdict == 1, witness: wit, hasWit: found})
	return nil
}

// collectAgreement turns a run whose nodes all output the same bool into a
// Result, failing loudly on disagreement.
func collectAgreement(res *core.Result) (*Result, error) {
	out := &Result{Stats: res.Stats}
	for i, o := range res.Outputs {
		switch v := o.(type) {
		case bool: // BroadcastDetect path: plain verdicts
			if i == 0 {
				out.Found = v
			} else if v != out.Found {
				return nil, fmt.Errorf("triangles: node %d disagrees (%v vs %v)", i, v, out.Found)
			}
		case verdictOut:
			if i == 0 {
				out.Found = v.verdict
			} else if v.verdict != out.Found {
				return nil, fmt.Errorf("triangles: node %d disagrees (%v vs %v)", i, v.verdict, out.Found)
			}
			if v.hasWit && !out.HasWit {
				out.Witness = v.witness
				out.HasWit = true
			}
		default:
			return nil, fmt.Errorf("triangles: node %d produced %T", i, o)
		}
	}
	return out, nil
}
