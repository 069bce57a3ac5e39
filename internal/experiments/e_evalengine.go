package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/circuit"
	"repro/internal/graph"
	"repro/internal/matmul"
)

// evalReference evaluates the circuit on one assignment with the
// selected local engine: the dense scalar plan, or lane 0 of a
// bitsliced pass when batch is set.
func evalReference(c *circuit.Circuit, in []bool, batch bool) ([]bool, error) {
	if !batch {
		return c.Eval(in)
	}
	lanes, err := c.EvalBatch(circuit.ReplicateLanes(in))
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(lanes))
	for i, w := range lanes {
		out[i] = w&1 == 1
	}
	return out, nil
}

// E14EvalEngines is the evaluation-engine ablation (DESIGN.md §7):
// scalar gate-at-a-time vs dense levelized plan vs 64-way bitsliced, on
// the Section 2.1 trial circuit — equivalence first, then throughput per
// evaluated assignment, then the batched Shamir detector against the
// exact truth.
func E14EvalEngines(w io.Writer, quick bool, env Env) error {
	header(w, "E14", "evaluation-engine ablation — scalar vs dense vs bitsliced")
	rng := rand.New(rand.NewSource(41))

	n, cutoff, reps := 16, 4, 3
	if quick {
		n, cutoff, reps = 8, 2, 1
	}
	c, err := matmul.TriangleTrialCircuit(n, matmul.Strassen, cutoff)
	if err != nil {
		return err
	}

	// Equivalence: 64 random assignments, three engines, one verdict.
	assigns := make([][]bool, 64)
	lanes := make([]uint64, c.NumInputs())
	for l := range assigns {
		in := make([]bool, c.NumInputs())
		for i := range in {
			in[i] = rng.Intn(2) == 1
			if in[i] {
				lanes[i] |= 1 << uint(l)
			}
		}
		assigns[l] = in
	}
	batch, err := c.EvalBatch(lanes)
	if err != nil {
		return err
	}
	for l, in := range assigns {
		scalar, err := c.EvalScalar(in)
		if err != nil {
			return err
		}
		dense, err := c.Eval(in)
		if err != nil {
			return err
		}
		for j := range scalar {
			bl := batch[j]>>uint(l)&1 == 1
			if scalar[j] != dense[j] || scalar[j] != bl {
				return fmt.Errorf("E14: engines disagree on lane %d output %d (scalar %v dense %v batch %v)",
					l, j, scalar[j], dense[j], bl)
			}
		}
	}
	fmt.Fprintf(w, "equivalence: scalar = dense = bitsliced on 64 random assignments of the Strassen-%d trial circuit (%d gates)\n",
		n, c.NumGates())

	// Throughput: time 64 assignments through each engine.
	timeIt := func(f func() error) (time.Duration, error) {
		best := time.Duration(0)
		for r := 0; r < reps; r++ {
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			d := time.Since(start)
			if best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	tScalar, err := timeIt(func() error {
		for _, in := range assigns {
			if _, err := c.EvalScalar(in); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	tDense, err := timeIt(func() error {
		for _, in := range assigns {
			if _, err := c.Eval(in); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	tBatch, err := timeIt(func() error {
		_, err := c.EvalBatch(lanes)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%12s %14s %16s\n", "engine", "64 evals", "vs scalar")
	fmt.Fprintf(w, "%12s %14v %16s\n", "scalar", tScalar, "1.0x")
	fmt.Fprintf(w, "%12s %14v %15.1fx\n", "dense", tDense, float64(tScalar)/float64(tDense))
	fmt.Fprintf(w, "%12s %14v %15.1fx\n", "bitsliced", tBatch, float64(tScalar)/float64(tBatch))

	// Batched Shamir detector vs exact truth (one-sided: with 64 trials a
	// disagreement is a 2^-64 event or a bug).
	fmt.Fprintf(w, "\nbatched Shamir detector (64 lanes/pass) vs exact truth:\n")
	fmt.Fprintf(w, "%6s %8s %8s %8s\n", "n", "truth", "batch", "agree")
	sizes := []int{8, 16}
	if !quick {
		sizes = append(sizes, 32)
	}
	for _, sz := range sizes {
		g := graph.Gnp(sz, 0.2, rng)
		want := g.HasTriangle()
		got, err := matmul.DetectTrianglesBatch(g, matmul.Schoolbook, 0, 64, 1, rng)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("E14: batched detector wrong on n=%d", sz)
		}
		fmt.Fprintf(w, "%6d %8v %8v %8v\n", sz, want, got, got == want)
	}
	return nil
}
