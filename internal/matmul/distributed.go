package matmul

import (
	"fmt"

	"repro/internal/circsim"
	"repro/internal/core"
	"repro/internal/f2"
)

// MulResult reports a distributed multiplication run.
type MulResult struct {
	Product *f2.Matrix
	Run     *circsim.RunResult
}

// MulOnClique multiplies two n×n GF(2) matrices on CLIQUE-UCAST(n,
// bandwidth) via the Theorem 2 simulation of a multiplication circuit —
// the Remark 3 "operator" case: player i initially holds row i of A and
// row i of B, and ends up holding the rows of the product assigned to it
// by the simulation's output partition (the runtime reassembles them for
// the caller).
func MulOnClique(env core.Env, a, b *f2.Matrix, alg Algorithm, cutoff, bandwidth int, seed int64) (*MulResult, error) {
	n := a.N()
	if b.N() != n {
		return nil, fmt.Errorf("matmul: dimension mismatch %d vs %d", n, b.N())
	}
	c, err := MulCircuit(n, alg, cutoff)
	if err != nil {
		return nil, err
	}
	in := make([]bool, 0, 2*n*n)
	owner := make([]int32, 0, 2*n*n)
	for _, m := range []*f2.Matrix{a, b} {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				in = append(in, m.Get(i, j))
				owner = append(owner, int32(i)) // player i holds row i of both
			}
		}
	}
	run, err := circsim.EvalOnClique(env, c, n, bandwidth, in, owner, seed)
	if err != nil {
		return nil, err
	}
	prod := f2.New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			prod.Set(i, j, run.Output[i*n+j])
		}
	}
	return &MulResult{Product: prod, Run: run}, nil
}
