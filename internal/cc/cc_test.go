package cc

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rsgraph"
	"repro/internal/triangles"
)

func TestDisjBasics(t *testing.T) {
	cases := []struct {
		x, y []bool
		want bool
	}{
		{[]bool{true, false}, []bool{false, true}, true},
		{[]bool{true, false}, []bool{true, false}, false},
		{[]bool{}, []bool{}, true},
		{[]bool{false, false}, []bool{true, true}, true},
	}
	for i, c := range cases {
		got, err := Disj(c.x, c.y)
		if err != nil || got != c.want {
			t.Errorf("case %d: Disj = %v err %v, want %v", i, got, err, c.want)
		}
	}
	if _, err := Disj([]bool{true}, []bool{}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestDisj3(t *testing.T) {
	xa := []bool{true, false, true}
	xb := []bool{true, true, false}
	xc := []bool{true, false, false}
	if d, _ := Disj3(xa, xb, xc); d {
		t.Error("common element 0 missed")
	}
	xc[0] = false
	if d, _ := Disj3(xa, xb, xc); !d {
		t.Error("disjoint triple reported intersecting")
	}
}

func TestFoolingSetSmall(t *testing.T) {
	for m := 1; m <= 8; m++ {
		if err := VerifyDisjFoolingSet(m); err != nil {
			t.Errorf("m=%d: %v", m, err)
		}
	}
}

func TestTrivialNOF(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := TrivialNOF{}
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(30)
		xa, xb, xc := randomTriple(m, rng)
		want, _ := Disj3(xa, xb, xc)
		got, bits, err := p.Run(xa, xb, xc)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trivial NOF wrong on trial %d", trial)
		}
		if bits != int64(m)+1 {
			t.Fatalf("trivial NOF used %d bits, want %d", bits, m+1)
		}
	}
}

func newTriangleNOF(t *testing.T, n, bandwidth int) *TriangleNOF {
	t.Helper()
	rs, err := rsgraph.NewTripartite(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Verify(); err != nil {
		t.Fatal(err)
	}
	return &TriangleNOF{
		RS:        rs,
		Bandwidth: bandwidth,
		Seed:      7,
		Detect: func(g *graph.Graph, b int, seed int64) (bool, core.Stats, error) {
			res, err := triangles.BroadcastDetect(core.Env{}, g, b, seed)
			if err != nil {
				return false, core.Stats{}, err
			}
			return res.Found, res.Stats, nil
		},
	}
}

func TestTriangleNOFCorrectness(t *testing.T) {
	nof := newTriangleNOF(t, 6, 16)
	m := nof.Universe()
	if m < 6 {
		t.Fatalf("universe too small: %d", m)
	}
	rng := rand.New(rand.NewSource(2))
	sawDisjoint, sawIntersecting := false, false
	for trial := 0; trial < 12; trial++ {
		xa, xb, xc := randomTriple(m, rng)
		want, _ := Disj3(xa, xb, xc)
		got, bits, err := nof.Run(xa, xb, xc)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: reduction answered %v, want %v", trial, got, want)
		}
		if bits <= 0 {
			t.Fatal("no blackboard bits counted")
		}
		if want {
			sawDisjoint = true
		} else {
			sawIntersecting = true
		}
	}
	if !sawDisjoint || !sawIntersecting {
		t.Errorf("did not exercise both outcomes: disj=%v inter=%v", sawDisjoint, sawIntersecting)
	}
}

func TestTriangleNOFAccountingIdentity(t *testing.T) {
	// Theorem 24: the blackboard cost of the simulation is |V|·b·R + 1.
	nof := newTriangleNOF(t, 5, 8)
	m := nof.Universe()
	rng := rand.New(rand.NewSource(3))
	xa, xb, xc := randomTriple(m, rng)
	g, err := nof.BuildInstance(xa, xb, xc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := triangles.BroadcastDetect(core.Env{}, g, nof.Bandwidth, nof.Seed)
	if err != nil {
		t.Fatal(err)
	}
	_, bits, err := nof.Run(xa, xb, xc)
	if err != nil {
		t.Fatal(err)
	}
	if bits > nof.AccountingBound(res.Stats.Rounds) {
		t.Errorf("blackboard bits %d exceed |V|·b·R+1 = %d", bits, nof.AccountingBound(res.Stats.Rounds))
	}
}

func TestTriangleNOFLocality(t *testing.T) {
	// The NOF structure: the subgraph on edges incident to part A's nodes
	// must not depend on X_A (player A cannot see its own forehead).
	nof := newTriangleNOF(t, 5, 8)
	m := nof.Universe()
	rng := rand.New(rand.NewSource(4))
	_, xb, xc := randomTriple(m, rng)
	xa1 := make([]bool, m)
	xa2 := make([]bool, m)
	for i := range xa2 {
		xa2[i] = rng.Intn(2) == 0
	}
	g1, err := nof.BuildInstance(xa1, xb, xc)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := nof.BuildInstance(xa2, xb, xc)
	if err != nil {
		t.Fatal(err)
	}
	aSize := nof.RS.NParam
	for v := 0; v < aSize; v++ { // part A occupies the first n vertices
		n1 := g1.Neighbors(v)
		n2 := g2.Neighbors(v)
		if len(n1) != len(n2) {
			t.Fatalf("vertex %d view depends on X_A", v)
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatalf("vertex %d view depends on X_A", v)
			}
		}
	}
}

func TestImpliedRoundBound(t *testing.T) {
	nof := newTriangleNOF(t, 6, 8)
	m := nof.Universe()
	// Deterministic NOF disjointness needs Ω(m) bits (Rao–Yehudayoff);
	// feeding m bits through the reduction yields the Corollary 25 shape.
	bound := nof.ImpliedRoundBound(int64(m))
	if bound <= 0 {
		t.Errorf("implied round bound %f not positive", bound)
	}
	want := float64(m-1) / (float64(nof.RS.G.N()) * 8)
	if bound != want {
		t.Errorf("implied bound = %f, want %f", bound, want)
	}
}

func randomTriple(m int, rng *rand.Rand) (xa, xb, xc []bool) {
	xa = make([]bool, m)
	xb = make([]bool, m)
	xc = make([]bool, m)
	for i := 0; i < m; i++ {
		xa[i] = rng.Intn(2) == 0
		xb[i] = rng.Intn(2) == 0
		xc[i] = rng.Intn(2) == 0
	}
	return
}
