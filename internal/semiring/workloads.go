package semiring

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/routing"
)

// Squarings returns the number of min-plus squarings APSP performs on an
// n-vertex graph: ⌈log₂(n-1)⌉, since shortest paths have at most n-1 hops
// and each squaring doubles the hop horizon.
func Squarings(n int) int {
	s := 0
	for span := 1; span < n-1; span *= 2 {
		s++
	}
	return s
}

// APSP computes all-pairs shortest distances of wg on CLIQUE-UCAST(n,
// bandwidth) by repeated min-plus squaring of the weight matrix — one
// accounted clique run of Squarings(n) distributed products over the
// chosen protocol. Unreachable pairs come back as Inf.
func APSP(env core.Env, wg *graph.Weighted, proto Protocol, bandwidth int, seed int64, mul LocalMul) (*MMResult, error) {
	n := wg.N()
	d := DistanceMatrix(wg)
	rt := routing.NewRouter(n)
	cfg := core.Config{N: n, Bandwidth: bandwidth, Model: core.Unicast, Seed: seed, Env: env}
	res, err := core.RunProcs(cfg, func(p *core.Proc) error {
		m := NewMultiplier(p, rt, proto)
		row := append([]uint32(nil), d.Row(p.ID())...)
		for span := 1; span < n-1; span *= 2 {
			next, err := m.MulRow(MinPlus, row, row, mul)
			if err != nil {
				return err
			}
			row = next
		}
		p.SetOutput(row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &MMResult{Product: gatherRows(res, n), Stats: res.Stats}, nil
}

// KHopDistances computes the k-hop distance product W^⊗k of wg on the
// clique: entry (u,v) is the weight of the cheapest u→v path using at
// most k edges (Inf if none). k-1 distributed min-plus products of the
// running distance matrix with W, all in one accounted run.
func KHopDistances(env core.Env, wg *graph.Weighted, k int, proto Protocol, bandwidth int, seed int64, mul LocalMul) (*MMResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("semiring: k-hop distance product needs k >= 1, got %d", k)
	}
	n := wg.N()
	d := DistanceMatrix(wg)
	rt := routing.NewRouter(n)
	cfg := core.Config{N: n, Bandwidth: bandwidth, Model: core.Unicast, Seed: seed, Env: env}
	res, err := core.RunProcs(cfg, func(p *core.Proc) error {
		m := NewMultiplier(p, rt, proto)
		wrow := d.Row(p.ID())
		row := append([]uint32(nil), wrow...)
		for t := 1; t < k; t++ {
			next, err := m.MulRow(MinPlus, row, wrow, mul)
			if err != nil {
				return err
			}
			row = next
		}
		p.SetOutput(row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &MMResult{Product: gatherRows(res, n), Stats: res.Stats}, nil
}

// PowerResult reports the matrix-power counting workload: the Boolean
// square and cube of the adjacency matrix (2- and 3-step reachability)
// and its counting square (common-neighbor counts), plus the graph facts
// read off them.
type PowerResult struct {
	Bool2, Bool3 *Matrix // Boolean A², A³
	Count2       *Matrix // counting A²: (u,v) ↦ |N(u) ∩ N(v)|
	Triangles    int64   // tr(A³)/6 via Count2 and the adjacency rows
	HasC4        bool    // ∃ u≠v with ≥ 2 common neighbors
	Stats        core.Stats
}

// MatrixPowerCounts runs the Boolean/counting matrix-power workload on
// the clique: three distributed products (Boolean A², Boolean A³,
// counting A²) in one accounted run, then derives triangle and C4 facts
// host-side. tr(A³) = Σ_{u,v} A²[u][v]·A[v][u] counts each triangle six
// times; a C4 exists iff some off-diagonal A² count is ≥ 2 (two distinct
// common neighbors close a 4-cycle). The workload multiplies over two
// rings, so it takes a kernel selector rather than one LocalMul (nil =
// each ring's fast kernel; pass NaiveKernel for the oracle leg).
func MatrixPowerCounts(env core.Env, g *graph.Graph, proto Protocol, bandwidth int, seed int64, kern func(Semiring) LocalMul) (*PowerResult, error) {
	if kern == nil {
		kern = Kernel
	}
	n := g.N()
	adj := AdjacencyMatrix(g)
	rt := routing.NewRouter(n)
	cfg := core.Config{N: n, Bandwidth: bandwidth, Model: core.Unicast, Seed: seed, Env: env}
	type rows struct{ b2, b3, c2 []uint32 }
	res, err := core.RunProcs(cfg, func(p *core.Proc) error {
		m := NewMultiplier(p, rt, proto)
		arow := adj.Row(p.ID())
		b2, err := m.MulRow(Boolean, arow, arow, kern(Boolean))
		if err != nil {
			return err
		}
		b3, err := m.MulRow(Boolean, b2, arow, kern(Boolean))
		if err != nil {
			return err
		}
		c2, err := m.MulRow(Counting, arow, arow, kern(Counting))
		if err != nil {
			return err
		}
		p.SetOutput(&rows{b2: b2, b3: b3, c2: c2})
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &PowerResult{
		Bool2:  NewMatrix(n, n, 0),
		Bool3:  NewMatrix(n, n, 0),
		Count2: NewMatrix(n, n, 0),
		Stats:  res.Stats,
	}
	for i, o := range res.Outputs {
		r := o.(*rows)
		copy(out.Bool2.Row(i), r.b2)
		copy(out.Bool3.Row(i), r.b3)
		copy(out.Count2.Row(i), r.c2)
	}
	var trace int64
	for u := 0; u < n; u++ {
		crow := out.Count2.Row(u)
		for v := 0; v < n; v++ {
			if u != v && crow[v] >= 2 {
				out.HasC4 = true
			}
			if g.HasEdge(u, v) {
				trace += int64(crow[v])
			}
		}
	}
	out.Triangles = trace / 6
	return out, nil
}

// Ones counts the nonzero entries of m.
func Ones(m *Matrix) int {
	total := 0
	for i := 0; i < m.Rows(); i++ {
		for _, v := range m.Row(i) {
			if v != 0 {
				total++
			}
		}
	}
	return total
}

// FloydWarshall is the classic O(n³) local APSP reference (saturating
// min-plus arithmetic, Inf for unreachable pairs).
func FloydWarshall(wg *graph.Weighted) *Matrix {
	d := DistanceMatrix(wg)
	n := d.Rows()
	for k := 0; k < n; k++ {
		krow := d.Row(k)
		for i := 0; i < n; i++ {
			irow := d.Row(i)
			dik := irow[k]
			if dik == Inf {
				continue
			}
			for j, dkj := range krow {
				if dkj == Inf {
					continue
				}
				if s := uint64(dik) + uint64(dkj); s < uint64(irow[j]) {
					irow[j] = uint32(s)
				}
			}
		}
	}
	return d
}

// BellmanFordK is the local k-hop distance reference: k-1 relaxation
// sweeps of the weight matrix, i.e. W^⊗k by successive naive products.
func BellmanFordK(wg *graph.Weighted, k int) *Matrix {
	w := DistanceMatrix(wg)
	d := w.Clone()
	for t := 1; t < k; t++ {
		d = NaiveMul(MinPlus, d, w)
	}
	return d
}

// LocalPower computes m^⊗k over sr with the given kernel — the local
// reference of the distributed power workloads.
func LocalPower(sr Semiring, m *Matrix, k int, mul LocalMul) *Matrix {
	if mul == nil {
		mul = sr.MulLocal
	}
	out := m.Clone()
	for t := 1; t < k; t++ {
		out = mul(out, m)
	}
	return out
}
