package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/subgraph"
	"repro/internal/turan"
)

// E5Reconstruction regenerates the Becker et al. [2] guarantees: one
// logical broadcast of O(k·log n) bits per node, reconstruction succeeds
// exactly when the degeneracy is at most k.
func E5Reconstruction(w io.Writer, quick bool, env Env) error {
	header(w, "E5", "[2] reconstruction — message growth O(k log n) and the success threshold")
	fmt.Fprintf(w, "%8s %6s %12s %14s\n", "n", "k", "msg bits", "bits/(k·lg n)")
	ns := []int{64, 256, 1024, 4096}
	if quick {
		ns = []int{64, 256}
	}
	for _, n := range ns {
		for _, k := range []int{2, 8} {
			bits := subgraph.MessageBits(n, k)
			lg := 0
			for v := n - 1; v > 0; v >>= 1 {
				lg++
			}
			fmt.Fprintf(w, "%8d %6d %12d %14.2f\n", n, k, bits, float64(bits)/float64(k*lg))
		}
	}

	fmt.Fprintf(w, "\nsuccess threshold on random graphs (n=48, bandwidth 16):\n")
	fmt.Fprintf(w, "%14s %6s %6s %10s %8s\n", "graph", "degen", "k", "success", "rounds")
	rng := rand.New(rand.NewSource(6))
	graphs := []*graph.Graph{
		graph.RandomTree(48, rng),
		graph.Gnp(48, 0.1, rng),
		graph.Gnp(48, 0.3, rng),
	}
	for _, g := range graphs {
		d := g.Degeneracy()
		for _, k := range []int{d - 1, d, d + 2} {
			if k < 1 {
				continue
			}
			res, err := subgraph.Reconstruct(env.Engine, g, k, 16, 7)
			if err != nil {
				return err
			}
			wantOK := k >= d
			if res.OK != wantOK {
				return fmt.Errorf("experiments: reconstruction at k=%d succeeded=%v, degeneracy=%d", k, res.OK, d)
			}
			if res.OK && !res.G.Equal(g) {
				return fmt.Errorf("experiments: reconstruction differs from input")
			}
			fmt.Fprintf(w, "%14s %6d %6d %10v %8d\n", g, d, k, res.OK, res.Stats.Rounds)
		}
	}
	return nil
}

// E6Degeneracy regenerates Claim 6 on real H-free graphs: measured
// degeneracy against the 4·ex(n,H)/n bound.
func E6Degeneracy(w io.Writer, quick bool, env Env) error {
	header(w, "E6", "Claim 6 — degeneracy of H-free graphs vs 4·ex(n,H)/n")
	rng := rand.New(rand.NewSource(7))
	type row struct {
		fam turan.Family
		g   *graph.Graph
		src string
	}
	er5, err := turan.PolarityGraph(5)
	if err != nil {
		return err
	}
	er7, err := turan.PolarityGraph(7)
	if err != nil {
		return err
	}
	rows := []row{
		{turan.CliqueFamily(3), graph.CompleteBipartite(16, 16), "K_{16,16}"},
		{turan.CliqueFamily(4), turan.TuranGraph(36, 3), "T(36,3)"},
		{turan.CycleFamily(5), graph.CompleteBipartite(14, 14), "K_{14,14}"},
		{turan.CycleFamily(4), er5, "ER_5"},
		{turan.CycleFamily(4), er7, "ER_7"},
		{turan.BicliqueFamily(2, 2), er5, "ER_5"},
		{turan.TreeFamily("P5", graph.Path(5)), turan.GreedyHFree(40, graph.Path(5), 2000, rng), "greedy"},
	}
	if quick {
		rows = rows[:4]
	}
	fmt.Fprintf(w, "%8s %12s %6s %10s %10s %8s\n", "H", "graph", "n", "degen", "bound", "ok")
	for _, r := range rows {
		n := r.g.N()
		if graph.ContainsSubgraph(r.g, r.fam.H) {
			return fmt.Errorf("experiments: %s test graph contains %s", r.src, r.fam.Name)
		}
		d := r.g.Degeneracy()
		bound := r.fam.DegeneracyBound(n)
		fmt.Fprintf(w, "%8s %12s %6d %10d %10d %8v\n", r.fam.Name, r.src, n, d, bound, d <= bound)
		if d > bound {
			return fmt.Errorf("experiments: Claim 6 violated for %s", r.fam.Name)
		}
	}
	return nil
}

// E7DetectKnownTuran regenerates Theorem 7: measured rounds against the
// ex(n,H)/n·log(n)/b prediction across families with very different Turán
// numbers (constant for trees, √n for C4, n for odd cycles).
func E7DetectKnownTuran(w io.Writer, quick bool, env Env) error {
	header(w, "E7", "Theorem 7 — detection rounds vs ex(n,H)/n · log(n)/b (bandwidth 16)")
	rng := rand.New(rand.NewSource(8))
	ns := []int{32, 64, 128}
	if quick {
		ns = []int{32, 64}
	}
	fams := []turan.Family{
		turan.TreeFamily("P4", graph.Path(4)),
		turan.CycleFamily(4),
		turan.CycleFamily(5),
		turan.CliqueFamily(4),
	}
	fmt.Fprintf(w, "%6s %6s %8s %10s %10s %12s %10s\n",
		"H", "n", "found", "k=4ex/n", "rounds", "pred rounds", "ratio")
	for _, fam := range fams {
		for _, n := range ns {
			g := graph.Gnp(n, 1.5/float64(n), rng)
			graph.PlantCopy(g, fam.H, rng)
			res, err := subgraph.DetectKnownTuran(env.Engine, g, fam, 16, 21)
			if err != nil {
				return err
			}
			truth := graph.ContainsSubgraph(g, fam.H)
			if res.Found != truth {
				return fmt.Errorf("experiments: Theorem 7 wrong for %s at n=%d", fam.Name, n)
			}
			pred := float64(subgraph.MessageBits(n, res.KUsed)) / 16
			ratio := float64(res.Stats.Rounds) / pred
			fmt.Fprintf(w, "%6s %6d %8v %10d %10d %12.1f %10.2f\n",
				fam.Name, n, res.Found, res.KUsed, res.Stats.Rounds, pred, ratio)
		}
	}
	fmt.Fprintf(w, "(rounds = ceil(msgbits/b): trees stay O(log n/b); C4 grows ~√n; C5/K4 grow ~n)\n")
	return nil
}

// E8SampledDegeneracy regenerates Lemma 8: the degeneracy of the sampled
// G_j tracks k·2^{-j} while the expectation stays above c·log n.
func E8SampledDegeneracy(w io.Writer, quick bool, env Env) error {
	header(w, "E8", "Lemma 8 — degeneracy of G_j vs k·2^{-j} (G = K_n)")
	rng := rand.New(rand.NewSource(9))
	n := 128
	trials := 8
	if quick {
		n, trials = 64, 4
	}
	g := graph.Complete(n)
	k := g.Degeneracy()
	maxJ := 3
	fmt.Fprintf(w, "%4s %10s %12s %12s %8s\n", "j", "k·2^{-j}", "mean K_j", "range", "ratio")
	for j := 0; j <= maxJ; j++ {
		min, max, sum := 1<<30, 0, 0
		for t := 0; t < trials; t++ {
			xs := subgraph.DrawXs(n, rng)
			kj := subgraph.SampleEdgeSubgraph(g, xs, j).Degeneracy()
			sum += kj
			if kj < min {
				min = kj
			}
			if kj > max {
				max = kj
			}
		}
		mean := float64(sum) / float64(trials)
		exp := float64(k) / float64(int(1)<<uint(j))
		fmt.Fprintf(w, "%4d %10.1f %12.1f %5d-%-6d %8.2f\n", j, exp, mean, min, max, mean/exp)
	}
	fmt.Fprintf(w, "(the ratio stays near 1, inside the Lemma's [0.9, 1.1] asymptotically)\n")
	return nil
}

// E9AdaptiveDetect regenerates Theorem 9: correct answers with ex(n,H)
// unknown, and the number of A-invocations (guesses) the search needs.
func E9AdaptiveDetect(w io.Writer, quick bool, env Env) error {
	header(w, "E9", "Theorem 9 — adaptive detection, unknown Turán number (bandwidth 16)")
	rng := rand.New(rand.NewSource(10))
	trials := 10
	if quick {
		trials = 4
	}
	patterns := []struct {
		name string
		h    *graph.Graph
	}{
		{"C4", graph.Cycle(4)},
		{"K3", graph.Complete(3)},
		{"P5", graph.Path(5)},
	}
	fmt.Fprintf(w, "%6s %6s %8s %8s %8s %10s %10s\n",
		"H", "n", "truth", "answer", "k used", "guesses", "rounds")
	correct := 0
	total := 0
	for t := 0; t < trials; t++ {
		p := patterns[t%len(patterns)]
		n := 24 + 8*(t%3)
		g := graph.Gnp(n, []float64{0.04, 0.15, 0.4}[t%3], rng)
		truth := graph.ContainsSubgraph(g, p.h)
		res, err := subgraph.DetectAdaptive(env.Engine, g, p.h, 16, int64(t))
		if err != nil {
			return err
		}
		total++
		if res.Found == truth {
			correct++
		}
		fmt.Fprintf(w, "%6s %6d %8v %8v %8d %10d %10d\n",
			p.name, n, truth, res.Found, res.KUsed, res.Guesses, res.Stats.Rounds)
	}
	fmt.Fprintf(w, "correct: %d/%d (Theorem 9 is exact on 'no', w.h.p. on 'yes')\n", correct, total)
	if correct != total {
		return fmt.Errorf("experiments: adaptive detection erred %d/%d", total-correct, total)
	}
	return nil
}
