package matmul

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/f2"
	"repro/internal/graph"
)

func TestSchoolbookCircuitMatchesF2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 5, 8} {
		c, err := MulCircuit(n, Schoolbook, 0)
		if err != nil {
			t.Fatal(err)
		}
		a, b := f2.Random(n, rng), f2.Random(n, rng)
		got, err := EvalMulCircuit(c, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(f2.Mul(a, b)) {
			t.Errorf("n=%d: schoolbook circuit product differs", n)
		}
	}
}

func TestStrassenCircuitMatchesF2(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 4, 8, 16} {
		for _, cutoff := range []int{1, 2, 4} {
			c, err := MulCircuit(n, Strassen, cutoff)
			if err != nil {
				t.Fatal(err)
			}
			a, b := f2.Random(n, rng), f2.Random(n, rng)
			got, err := EvalMulCircuit(c, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(f2.Mul(a, b)) {
				t.Errorf("n=%d cutoff=%d: Strassen circuit product differs", n, cutoff)
			}
		}
	}
}

func TestStrassenRejectsNonPowerOfTwo(t *testing.T) {
	if _, err := MulCircuit(6, Strassen, 2); err == nil {
		t.Error("n=6 accepted for Strassen")
	}
	if _, err := TriangleCircuit(6, Strassen, 2, 2, rand.New(rand.NewSource(0))); err == nil {
		t.Error("TriangleCircuit n=6 accepted for Strassen")
	}
}

func TestStrassenWiresGrowSlower(t *testing.T) {
	// The Section 2.1 shape claim: Strassen's wires/n² grows like n^0.81
	// while schoolbook's grows like n. Compare growth ratios when n doubles.
	wires := func(n int, alg Algorithm) float64 {
		c, err := MulCircuit(n, alg, 2)
		if err != nil {
			t.Fatal(err)
		}
		return float64(c.Wires())
	}
	var ratios []float64
	for _, n := range []int{8, 16, 32} {
		sb := wires(2*n, Schoolbook) / wires(n, Schoolbook)
		st := wires(2*n, Strassen) / wires(n, Strassen)
		if sb < 7.9 || sb > 8.1 { // schoolbook is exactly 8x per doubling
			t.Errorf("schoolbook doubling ratio %.2f, want 8", sb)
		}
		if st >= sb-0.1 {
			t.Errorf("n=%d: Strassen doubling ratio %.2f not below schoolbook %.2f", n, st, sb)
		}
		ratios = append(ratios, st)
	}
	// The ratio must decrease toward 7 = 2^{2.81} as n grows.
	for i := 1; i < len(ratios); i++ {
		if ratios[i] >= ratios[i-1] {
			t.Errorf("Strassen doubling ratios not decreasing: %v", ratios)
		}
	}
}

func TestShamirBoolProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(20)
		a, b := f2.Random(n, rng), f2.Random(n, rng)
		want := f2.BoolMul(a, b)
		got := ShamirBoolProduct(a, b, 40, rng)
		// One-sided: got <= want entry-wise, equal w.h.p. given 40 trials.
		if !got.Equal(want) {
			t.Errorf("n=%d: Shamir product differs after 40 trials (prob < n²·2^-40)", n)
		}
	}
}

func TestShamirOneSided(t *testing.T) {
	// Even with a single trial, no false positives.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(15)
		a, b := f2.Random(n, rng), f2.Random(n, rng)
		want := f2.BoolMul(a, b)
		got := ShamirBoolProduct(a, b, 1, rng)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got.Get(i, j) && !want.Get(i, j) {
					t.Fatalf("false positive at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestTriangleCircuitDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(8)
		g := graph.Gnp(n, 0.3, rng)
		c, err := TriangleCircuit(n, Schoolbook, 0, 12, rng)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]bool, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				in[i*n+j] = g.HasEdge(i, j)
			}
		}
		out, err := c.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		want := g.HasTriangle()
		if out[0] && !want {
			t.Fatalf("false positive on triangle-free graph (n=%d)", n)
		}
		if !out[0] && want {
			t.Fatalf("missed triangle with 12 trials (prob 2^-12), n=%d", n)
		}
	}
}

func TestDetectTrianglesOnClique(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"K4", graph.Complete(4), true},
		{"C8", graph.Cycle(8), false},
		{"bipartite", graph.CompleteBipartite(4, 4), false},
		{"gnp", graph.Gnp(8, 0.5, rng), false}, // set below
	}
	cases[3].want = cases[3].g.HasTriangle()
	for _, tc := range cases {
		res, err := DetectTrianglesOnClique(core.Env{}, tc.g, Schoolbook, 0, 10, 64, 42)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Found != tc.want {
			t.Errorf("%s: clique detection = %v, want %v", tc.name, res.Found, tc.want)
		}
	}
}

func TestDetectTrianglesStrassenOnClique(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Gnp(8, 0.4, rng)
	res, err := DetectTrianglesOnClique(core.Env{}, g, Strassen, 2, 10, 64, 17)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found != g.HasTriangle() {
		t.Errorf("Strassen clique detection = %v, want %v", res.Found, g.HasTriangle())
	}
}

func TestTriangleCircuitPlantedTriangle(t *testing.T) {
	// A graph that is exactly one triangle plus isolated vertices.
	rng := rand.New(rand.NewSource(8))
	g := graph.New(9)
	g.AddEdge(2, 5)
	g.AddEdge(5, 7)
	g.AddEdge(7, 2)
	res, err := DetectTrianglesOnClique(core.Env{}, g, Schoolbook, 0, 12, 64, int64(rng.Int()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Error("missed planted triangle")
	}
}
