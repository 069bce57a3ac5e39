package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matmul"
	"repro/internal/subgraph"
	"repro/internal/triangles"
	"repro/internal/turan"
)

// EA1Ablations probes the reproduction's own design choices (DESIGN.md
// §4): the routing flavor, the Strassen recursion cutoff, the Theorem 7
// bandwidth dependence, and the sample count of the randomized DLP
// algorithm.
func EA1Ablations(w io.Writer, quick bool, env Env) error {
	header(w, "EA1", "ablations over the reproduction's design choices")

	// (a) Routing flavor: deterministic schedule vs in-model Valiant, on
	// the same balanced demand (also part of E2; repeated here at one n
	// for the ablation record).
	det, err := routeAllToAll(env.Engine, 32, false)
	if err != nil {
		return err
	}
	val, err := routeAllToAll(env.Engine, 32, true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "(a) routing n=32 all-to-all: deterministic %d rounds / %d bits, valiant %d rounds / %d bits\n",
		det.Rounds, det.TotalBits, val.Rounds, val.TotalBits)

	// (b) Strassen cutoff: wires of the 32x32 multiplication circuit as
	// the recursion floor varies. Lower cutoffs trade XOR overhead for
	// fewer multiplications.
	fmt.Fprintf(w, "\n(b) Strassen cutoff ablation (n=32 multiplication circuit):\n")
	fmt.Fprintf(w, "%10s %12s %10s\n", "cutoff", "wires", "gates")
	cutoffs := []int{1, 2, 4, 8, 16, 32}
	if quick {
		cutoffs = []int{2, 8, 32}
	}
	for _, c := range cutoffs {
		circ, err := matmul.MulCircuit(32, matmul.Strassen, c)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%10d %12d %10d\n", c, circ.Wires(), circ.NumGates())
	}

	// (c) Theorem 7 bandwidth sweep: rounds must scale as 1/b.
	fmt.Fprintf(w, "\n(c) Theorem 7 bandwidth sweep (C4 detection, n=64):\n")
	fmt.Fprintf(w, "%10s %10s %14s\n", "bandwidth", "rounds", "rounds*b")
	rng := rand.New(rand.NewSource(31))
	g := graph.Gnp(64, 0.05, rng)
	graph.PlantCopy(g, graph.Cycle(4), rng)
	fam := turan.CycleFamily(4)
	bands := []int{4, 8, 16, 32, 64}
	if quick {
		bands = []int{8, 32}
	}
	for _, b := range bands {
		res, err := subgraph.DetectKnownTuran(env.Engine, g, fam, b, 17)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%10d %10d %14d\n", b, res.Stats.Rounds, res.Stats.Rounds*b)
	}

	// (d) DLP randomized sample count: more samples per node means more
	// traffic but higher single-shot hit probability; the w.h.p. theory
	// asks for Θ(log n).
	fmt.Fprintf(w, "\n(d) DLP randomized samples-per-node (n=48 dense graph, T=true count):\n")
	fmt.Fprintf(w, "%10s %10s %12s %8s\n", "samples", "rounds", "totalBits", "found")
	gd := graph.Gnp(48, 0.5, rng)
	T := gd.CountTriangles()
	samples := []int{1, 2, 4, 8}
	if quick {
		samples = []int{1, 4}
	}
	for _, s := range samples {
		res, err := triangles.DLPRandomized(env.Engine, gd, 32, T, s, 19)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%10d %10d %12d %8v\n", s, res.Stats.Rounds, res.Stats.TotalBits, res.Found)
	}

	// (e) CONGEST C4 cap: exact vs √n-capped traffic.
	fmt.Fprintf(w, "\n(e) CONGEST C4 detector cap (n=36, G(n,0.15)):\n")
	fmt.Fprintf(w, "%10s %10s %12s %8s\n", "cap", "rounds", "totalBits", "found")
	gc := graph.Gnp(36, 0.15, rng)
	truth := graph.ContainsSubgraph(gc, graph.Cycle(4))
	for _, cap := range []int{0, 12, 6} {
		res, err := subgraph.DetectC4Congest(env.Engine, gc, 8, cap, 23)
		if err != nil {
			return err
		}
		label := cap
		if cap == 0 {
			label = 36 // uncapped
		}
		fmt.Fprintf(w, "%10d %10d %12d %8v\n", label, res.Stats.Rounds, res.Stats.TotalBits, res.Found)
	}
	fmt.Fprintf(w, "(truth: %v; capped runs are one-sided)\n", truth)

	// (f) Engine parallelism: the worker-pool engine must reproduce the
	// sequential oracle bit-for-bit (DESIGN.md §3). Run the same
	// broadcast-heavy detection under both and record the accounting.
	fmt.Fprintf(w, "\n(f) engine parallelism oracle check (BroadcastDetect, n=48):\n")
	// Force both engines explicitly: the worker pool must be exercised
	// even when GOMAXPROCS=1 or the user passed -parallelism 1.
	const ablationWorkers = 4
	ge := graph.Gnp(48, 0.3, rng)
	seq, seqErr := triangles.BroadcastDetect(core.Env{Parallelism: 1}, ge, 16, 29)
	par, parErr := triangles.BroadcastDetect(core.Env{Parallelism: ablationWorkers}, ge, 16, 29)
	if seqErr != nil {
		return seqErr
	}
	if parErr != nil {
		return parErr
	}
	identical := seq.Found == par.Found &&
		seq.Stats.Rounds == par.Stats.Rounds &&
		seq.Stats.TotalBits == par.Stats.TotalBits &&
		seq.Stats.MaxLinkBits == par.Stats.MaxLinkBits &&
		seq.Stats.MaxNodeBits == par.Stats.MaxNodeBits
	fmt.Fprintf(w, "%12s %8s %10s %12s\n", "engine", "found", "rounds", "totalBits")
	fmt.Fprintf(w, "%12s %8v %10d %12d\n", "sequential", seq.Found, seq.Stats.Rounds, seq.Stats.TotalBits)
	fmt.Fprintf(w, "%12s %8v %10d %12d\n",
		fmt.Sprintf("%d workers", ablationWorkers), par.Found, par.Stats.Rounds, par.Stats.TotalBits)
	if !identical {
		return fmt.Errorf("EA1(f): parallel engine diverged from sequential oracle")
	}
	fmt.Fprintf(w, "(identical accounting: %v)\n", identical)
	return nil
}
