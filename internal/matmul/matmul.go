// Package matmul implements Section 2.1 of the paper: triangle detection
// on the congested clique through matrix multiplication circuits.
//
// It provides explicit arithmetic circuits over GF(2) for matrix
// multiplication — schoolbook (Θ(n³) wires) and Strassen (Θ(n^{2.81})
// wires, with a recursion cutoff) — together with Shamir's randomized
// reduction of Boolean matrix products to GF(2) products, composed into a
// one-sided-error triangle-detection circuit: cubing the adjacency matrix
// over the Boolean semiring makes triangles appear as nonzero diagonal
// entries; randomized diagonal scalings turn OR-sums into parities that
// survive with probability 1/2.
//
// The paper's conjecture (O(n^{2+ε})-size circuits) cannot be
// instantiated; Strassen instantiates the same mechanism with exponent
// 2.81, and the wire counts reported by the circuit generators demonstrate
// how the Theorem 2 bandwidth parameter s = wires/n² tracks the circuit
// family plugged in (DESIGN.md §4.2).
package matmul

import (
	"fmt"
	"math/rand"

	"repro/internal/circsim"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/f2"
	"repro/internal/graph"
)

// ids is a square matrix of circuit gate ids.
type ids struct {
	n    int
	gate []int
}

func newIDs(n int) *ids { return &ids{n: n, gate: make([]int, n*n)} }

func (m *ids) at(i, j int) int { return m.gate[i*m.n+j] }
func (m *ids) set(i, j, g int) { m.gate[i*m.n+j] = g }
func (m *ids) quad(r, c int) *ids {
	h := m.n / 2
	out := newIDs(h)
	for i := 0; i < h; i++ {
		for j := 0; j < h; j++ {
			out.set(i, j, m.at(r*h+i, c*h+j))
		}
	}
	return out
}

// addMat emits elementwise XOR gates for x + y over GF(2), through the
// builder's two-wire fast path.
func addMat(b *circuit.Builder, x, y *ids) *ids {
	out := newIDs(x.n)
	for i := 0; i < x.n; i++ {
		for j := 0; j < x.n; j++ {
			out.set(i, j, b.Gate2(circuit.Xor, 0, x.at(i, j), y.at(i, j)))
		}
	}
	return out
}

// schoolbookMat emits the Θ(m³) gates for x·y over GF(2). The AND terms
// go through Gate2 (no varargs slice); the terms slice is reused across
// output cells.
func schoolbookMat(b *circuit.Builder, x, y *ids) *ids {
	m := x.n
	out := newIDs(m)
	terms := make([]int, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			for k := 0; k < m; k++ {
				terms[k] = b.Gate2(circuit.And, 0, x.at(i, k), y.at(k, j))
			}
			out.set(i, j, b.Gate(circuit.Xor, 0, terms...))
		}
	}
	return out
}

// strassenMat emits Strassen's recursion down to the cutoff.
func strassenMat(b *circuit.Builder, x, y *ids, cutoff int) *ids {
	m := x.n
	if m <= cutoff || m%2 != 0 {
		return schoolbookMat(b, x, y)
	}
	a11, a12, a21, a22 := x.quad(0, 0), x.quad(0, 1), x.quad(1, 0), x.quad(1, 1)
	b11, b12, b21, b22 := y.quad(0, 0), y.quad(0, 1), y.quad(1, 0), y.quad(1, 1)

	m1 := strassenMat(b, addMat(b, a11, a22), addMat(b, b11, b22), cutoff)
	m2 := strassenMat(b, addMat(b, a21, a22), b11, cutoff)
	m3 := strassenMat(b, a11, addMat(b, b12, b22), cutoff)
	m4 := strassenMat(b, a22, addMat(b, b21, b11), cutoff)
	m5 := strassenMat(b, addMat(b, a11, a12), b22, cutoff)
	m6 := strassenMat(b, addMat(b, a21, a11), addMat(b, b11, b12), cutoff)
	m7 := strassenMat(b, addMat(b, a12, a22), addMat(b, b21, b22), cutoff)

	h := m / 2
	out := newIDs(m)
	for i := 0; i < h; i++ {
		for j := 0; j < h; j++ {
			c11 := b.Gate(circuit.Xor, 0, m1.at(i, j), m4.at(i, j), m5.at(i, j), m7.at(i, j))
			c12 := b.Gate2(circuit.Xor, 0, m3.at(i, j), m5.at(i, j))
			c21 := b.Gate2(circuit.Xor, 0, m2.at(i, j), m4.at(i, j))
			c22 := b.Gate(circuit.Xor, 0, m1.at(i, j), m2.at(i, j), m3.at(i, j), m6.at(i, j))
			out.set(i, j, c11)
			out.set(i, h+j, c12)
			out.set(h+i, j, c21)
			out.set(h+i, h+j, c22)
		}
	}
	return out
}

// inputMat emits n² input gates forming a matrix (row-major).
func inputMat(b *circuit.Builder, n int) *ids {
	out := newIDs(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out.set(i, j, b.Input())
		}
	}
	return out
}

// Algorithm selects the multiplication circuit family.
type Algorithm int

// Circuit families.
const (
	Schoolbook Algorithm = iota + 1
	Strassen
)

func (a Algorithm) String() string {
	switch a {
	case Schoolbook:
		return "schoolbook"
	case Strassen:
		return "strassen"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// MulCircuit builds a circuit computing the GF(2) product of two n×n
// matrices. Inputs are A then B, row-major; outputs are C row-major.
// For Strassen, n must be a power of two (the recursion halves until the
// cutoff).
func MulCircuit(n int, alg Algorithm, cutoff int) (*circuit.Circuit, error) {
	if n < 1 {
		return nil, fmt.Errorf("matmul: n=%d", n)
	}
	if alg == Strassen && n&(n-1) != 0 {
		return nil, fmt.Errorf("matmul: Strassen circuit needs power-of-two n, got %d", n)
	}
	b := circuit.NewBuilder()
	a := inputMat(b, n)
	bb := inputMat(b, n)
	var c *ids
	switch alg {
	case Schoolbook:
		c = schoolbookMat(b, a, bb)
	case Strassen:
		c = strassenMat(b, a, bb, cutoff)
	default:
		return nil, fmt.Errorf("matmul: unknown algorithm %v", alg)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Output(c.at(i, j))
		}
	}
	return b.Build()
}

// EvalMulCircuit is a convenience for tests: evaluates a MulCircuit on
// concrete matrices and returns the product.
func EvalMulCircuit(c *circuit.Circuit, a, b *f2.Matrix) (*f2.Matrix, error) {
	n := a.N()
	in := make([]bool, 0, 2*n*n)
	for _, m := range []*f2.Matrix{a, b} {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				in = append(in, m.Get(i, j))
			}
		}
	}
	out, err := c.Eval(in)
	if err != nil {
		return nil, err
	}
	res := f2.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			res.Set(i, j, out[i*n+j])
		}
	}
	return res, nil
}

// TriangleCircuit builds the Section 2.1 triangle detector for an n-vertex
// graph: inputs are the n² adjacency bits (row-major); the single output
// is 1 only if the graph has a triangle, and is 1 with probability at
// least 1 - 2^{-trials} when it does (one-sided error over the circuit's
// baked-in randomness).
//
// Construction: a triangle exists iff some edge {i,j} has a common
// neighbor, i.e. (A ·_bool A)[i][j] = 1 for an edge. Each trial draws a
// random 0/1 diagonal D and computes P = A · (D·A) over GF(2); by Shamir's
// reduction, P[i][j] is a uniform bit whenever (i,j) has at least one
// witness and zero otherwise. The trial output is OR over {i,j} of
// A[i][j] AND P[i][j]; trials are ORed together.
func TriangleCircuit(n int, alg Algorithm, cutoff, trials int, rng *rand.Rand) (*circuit.Circuit, error) {
	if n < 1 || trials < 1 {
		return nil, fmt.Errorf("matmul: TriangleCircuit(n=%d, trials=%d)", n, trials)
	}
	if alg == Strassen && n&(n-1) != 0 {
		return nil, fmt.Errorf("matmul: Strassen circuit needs power-of-two n, got %d", n)
	}
	b := circuit.NewBuilder()
	a := inputMat(b, n)
	zero := b.Const(false)
	var trialOuts []int
	for t := 0; t < trials; t++ {
		// D·A: keep row k iff the coin says so; dropped rows are constant 0
		// wires, so the diagonal scaling costs no gates at all.
		da := newIDs(n)
		for k := 0; k < n; k++ {
			keep := rng.Intn(2) == 1
			for j := 0; j < n; j++ {
				if keep {
					da.set(k, j, a.at(k, j))
				} else {
					da.set(k, j, zero)
				}
			}
		}
		var p *ids
		switch alg {
		case Schoolbook:
			p = schoolbookMat(b, a, da)
		case Strassen:
			p = strassenMat(b, a, da, cutoff)
		default:
			return nil, fmt.Errorf("matmul: unknown algorithm %v", alg)
		}
		hits := make([]int, 0, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				hits = append(hits, b.Gate2(circuit.And, 0, a.at(i, j), p.at(i, j)))
			}
		}
		trialOuts = append(trialOuts, b.Gate(circuit.Or, 0, hits...))
	}
	b.Output(b.Gate(circuit.Or, 0, trialOuts...))
	return b.Build()
}

// TriangleTrialCircuit builds ONE Shamir trial of the Section 2.1
// detector with the random diagonal exposed as inputs instead of baked
// into the wiring: inputs are the n² adjacency bits (row-major) followed
// by the n diagonal bits d_0..d_{n-1}; the single output is the trial's
// hit bit — OR over i≠j of A[i][j] AND (A·(D·A))[i][j].
//
// Because the diagonal is an input, 64 independent trials become 64 lanes
// of one bitsliced EvalBatch pass (the adjacency lanes are replicated,
// the diagonal lanes carry 64 independent coin flips): the whole Shamir
// trial budget of the detector runs in one pass instead of 64 sequential
// cubings. One-sidedness is preserved lane by lane — a lane's P[i][j]
// is a GF(2) sum over that lane's selected witnesses, so it can only be
// nonzero when a witness exists (see DESIGN.md §7).
func TriangleTrialCircuit(n int, alg Algorithm, cutoff int) (*circuit.Circuit, error) {
	if n < 1 {
		return nil, fmt.Errorf("matmul: TriangleTrialCircuit(n=%d)", n)
	}
	if alg == Strassen && n&(n-1) != 0 {
		return nil, fmt.Errorf("matmul: Strassen circuit needs power-of-two n, got %d", n)
	}
	b := circuit.NewBuilder()
	a := inputMat(b, n)
	d := make([]int, n)
	for k := range d {
		d[k] = b.Input()
	}
	da := newIDs(n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			da.set(k, j, b.Gate2(circuit.And, 0, d[k], a.at(k, j)))
		}
	}
	var p *ids
	switch alg {
	case Schoolbook:
		p = schoolbookMat(b, a, da)
	case Strassen:
		p = strassenMat(b, a, da, cutoff)
	default:
		return nil, fmt.Errorf("matmul: unknown algorithm %v", alg)
	}
	hits := make([]int, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			hits = append(hits, b.Gate2(circuit.And, 0, a.at(i, j), p.at(i, j)))
		}
	}
	b.Output(b.Gate(circuit.Or, 0, hits...))
	return b.Build()
}

// DetectTrianglesBatch runs the Section 2.1 detector locally on the
// bitsliced engine: one TriangleTrialCircuit evaluation batches 64
// random-diagonal trials (one per lane), and passes repeat until the
// trial budget is spent. The answer has the same one-sided-error
// guarantee as TriangleCircuit with the same trial count: false
// positives are impossible, false negatives happen with probability at
// most 2^{-trials}. workers > 1 enables level-parallel stepping.
func DetectTrianglesBatch(g *graph.Graph, alg Algorithm, cutoff, trials, workers int, rng *rand.Rand) (bool, error) {
	n := g.N()
	if trials < 1 {
		return false, fmt.Errorf("matmul: DetectTrianglesBatch(trials=%d)", trials)
	}
	c, err := TriangleTrialCircuit(n, alg, cutoff)
	if err != nil {
		return false, err
	}
	in := make([]uint64, c.NumInputs())
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if g.HasEdge(i, j) {
				in[i*n+j] = ^uint64(0) // adjacency replicated across lanes
			}
		}
	}
	plan := c.Plan()
	for done := 0; done < trials; done += 64 {
		lanes := trials - done
		if lanes > 64 {
			lanes = 64
		}
		for k := 0; k < n; k++ {
			var word uint64
			for t := 0; t < lanes; t++ {
				if rng.Intn(2) == 1 {
					word |= 1 << uint(t)
				}
			}
			in[n*n+k] = word
		}
		out, err := plan.EvalBatchParallel(in, workers)
		if err != nil {
			return false, err
		}
		mask := ^uint64(0)
		if lanes < 64 {
			mask = 1<<uint(lanes) - 1
		}
		if out[0]&mask != 0 {
			return true, nil
		}
	}
	return false, nil
}

// DetectResult reports one clique-simulated triangle detection run.
type DetectResult struct {
	Found bool
	Run   *circsim.RunResult
}

// DetectTrianglesOnClique runs the Section 2.1 pipeline end to end: build
// the triangle circuit for the graph's vertex count, distribute the
// adjacency matrix with player i holding row i (the paper's input
// partition), and evaluate the circuit with the Theorem 2 simulation on
// CLIQUE-UCAST(n, bandwidth).
func DetectTrianglesOnClique(env core.Env, g *graph.Graph, alg Algorithm, cutoff, trials, bandwidth int, seed int64) (*DetectResult, error) {
	n := g.N()
	rng := rand.New(rand.NewSource(seed))
	c, err := TriangleCircuit(n, alg, cutoff, trials, rng)
	if err != nil {
		return nil, err
	}
	in := make([]bool, n*n)
	owner := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			in[i*n+j] = g.HasEdge(i, j)
			owner[i*n+j] = int32(i) // player i holds row i
		}
	}
	run, err := circsim.EvalOnClique(env, c, n, bandwidth, in, owner, seed)
	if err != nil {
		return nil, err
	}
	return &DetectResult{Found: run.Output[0], Run: run}, nil
}

// ShamirBoolProduct computes the Boolean product of a and b with the same
// randomized reduction the circuit uses, as a direct (non-circuit)
// reference: each trial computes a·(D·b) over GF(2) — via the
// four-Russians multiplier — and ORs the results word-wise. With
// `trials` rounds, each true entry is detected with probability at least
// 1-2^{-trials}; false entries are never set.
func ShamirBoolProduct(a, b *f2.Matrix, trials int, rng *rand.Rand) *f2.Matrix {
	n := a.N()
	acc := f2.New(n)
	keep := make([]bool, n)
	for t := 0; t < trials; t++ {
		for i := range keep {
			keep[i] = rng.Intn(2) == 1
		}
		p := f2.MulM4R(a, f2.ScaleRows(b, keep))
		for i := 0; i < n; i++ {
			dst, src := acc.Row(i), p.Row(i)
			for w := range dst {
				dst[w] |= src[w]
			}
		}
	}
	return acc
}
