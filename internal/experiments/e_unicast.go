package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/circsim"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matmul"
	"repro/internal/routing"
	"repro/internal/triangles"
)

// E1CircuitSimulation regenerates Theorem 2's shape: rounds grow linearly
// with circuit depth and stay flat as the circuit (and input) grows at
// fixed depth; per-link traffic respects the O(b+s) budget.
func E1CircuitSimulation(w io.Writer, quick bool, env Env) error {
	header(w, "E1", "Theorem 2 — rounds vs depth (n=8 players, bandwidth 64)")
	rng := rand.New(rand.NewSource(1))
	depths := []int{2, 4, 6, 8, 12}
	if quick {
		depths = []int{2, 4, 6}
	}
	fmt.Fprintf(w, "%8s %8s %8s %10s %8s %10s\n", "depth", "gates", "wires", "rounds", "r/D", "maxLink")
	for _, d := range depths {
		c, err := circuit.RandomCC(64, 16, d-1, 5, 6, rng)
		if err != nil {
			return err
		}
		in := randomBits(64, rng)
		res, err := circsim.EvalOnClique(env.Engine, c, 8, 64, in, nil, 1)
		if err != nil {
			return err
		}
		if err := checkCircuit(c, in, res, env.Batch); err != nil {
			return err
		}
		fmt.Fprintf(w, "%8d %8d %8d %10d %8.2f %10d\n",
			c.Depth(), c.NumGates(), c.Wires(), res.Stats.Rounds,
			float64(res.Stats.Rounds)/float64(c.Depth()), res.Stats.MaxLinkBits)
	}

	fmt.Fprintf(w, "\nfixed depth 4, growing size (rounds must stay near-flat):\n")
	fmt.Fprintf(w, "%8s %8s %8s %10s\n", "inputs", "wires", "s", "rounds")
	sizes := []int{32, 64, 128, 256}
	if quick {
		sizes = []int{32, 64}
	}
	for _, sz := range sizes {
		c, err := circuit.RandomCC(sz, sz/2, 3, 5, 6, rng)
		if err != nil {
			return err
		}
		in := randomBits(sz, rng)
		res, err := circsim.EvalOnClique(env.Engine, c, 8, 64, in, nil, 2)
		if err != nil {
			return err
		}
		if err := checkCircuit(c, in, res, env.Batch); err != nil {
			return err
		}
		fmt.Fprintf(w, "%8d %8d %8d %10d\n", sz, c.Wires(), res.Plan.S, res.Stats.Rounds)
	}
	return nil
}

func checkCircuit(c *circuit.Circuit, in []bool, res *circsim.RunResult, batch bool) error {
	want, err := evalReference(c, in, batch)
	if err != nil {
		return err
	}
	for i := range want {
		if res.Output[i] != want[i] {
			return fmt.Errorf("experiments: clique output %d differs from direct evaluation", i)
		}
	}
	return nil
}

// E2Routing regenerates the Lenzen [28] guarantee: the all-to-all
// balanced demand routes in a round count independent of n.
func E2Routing(w io.Writer, quick bool, env Env) error {
	header(w, "E2", "Lenzen routing — all-to-all demand, rounds vs n (bandwidth 64)")
	ns := []int{8, 16, 32, 64}
	if quick {
		ns = []int{8, 16}
	}
	fmt.Fprintf(w, "%6s %10s %14s %14s %12s\n", "n", "messages", "det rounds", "valiant rounds", "maxLink")
	for _, n := range ns {
		det, err := routeAllToAll(env.Engine, n, false)
		if err != nil {
			return err
		}
		val, err := routeAllToAll(env.Engine, n, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%6d %10d %14d %14d %12d\n",
			n, n*(n-1), det.Rounds, val.Rounds, det.MaxLinkBits)
	}
	return nil
}

func routeAllToAll(env core.Env, n int, valiant bool) (*core.Stats, error) {
	rt := routing.NewRouter(n)
	cfg := core.Config{N: n, Bandwidth: 64, Model: core.Unicast, Seed: 3}
	res, err := core.RunProcs(env.Apply(cfg), func(p *core.Proc) error {
		var out []routing.Msg
		for d := 0; d < n; d++ {
			if d == p.ID() {
				continue
			}
			payload := newPayload(uint64(p.ID()*n+d), 24)
			out = append(out, routing.Msg{Src: p.ID(), Dst: d, Payload: payload})
		}
		var (
			got []routing.Msg
			err error
		)
		if valiant {
			got, err = rt.RouteValiant(p, out, 24)
		} else {
			got, err = rt.Route(p, out, 24)
		}
		if err != nil {
			return err
		}
		p.SetOutput(len(got))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, o := range res.Outputs {
		if o.(int) != n-1 {
			return nil, fmt.Errorf("experiments: node %d received %d messages, want %d", i, o, n-1)
		}
	}
	return &res.Stats, nil
}

// E3MatmulTriangles regenerates the Section 2.1 story: Strassen circuits
// have asymptotically fewer wires per n² than schoolbook, and the wire
// density s drives the simulated triangle-detection round count.
func E3MatmulTriangles(w io.Writer, quick bool, env Env) error {
	header(w, "E3", "Section 2.1 — matmul circuit families and triangle detection")
	ns := []int{8, 16, 32, 64}
	if quick {
		ns = []int{8, 16, 32}
	}
	fmt.Fprintf(w, "%6s %14s %14s %12s %12s %14s\n",
		"n", "school wires", "strassen wires", "school s", "strassen s", "ratio s/s")
	for _, n := range ns {
		sb, err := matmul.MulCircuit(n, matmul.Schoolbook, 0)
		if err != nil {
			return err
		}
		st, err := matmul.MulCircuit(n, matmul.Strassen, 4)
		if err != nil {
			return err
		}
		sSB := float64(sb.Wires()) / float64(n*n)
		sST := float64(st.Wires()) / float64(n*n)
		fmt.Fprintf(w, "%6d %14d %14d %12.1f %12.1f %14.2f\n",
			n, sb.Wires(), st.Wires(), sSB, sST, sST/sSB)
	}
	fmt.Fprintf(w, "(schoolbook s = 3n exactly; Strassen s grows as n^{0.81}: the ratio falls with n)\n")

	fmt.Fprintf(w, "\ntriangle detection via A·(DA) on the clique (trials 6, bandwidth 64):\n")
	fmt.Fprintf(w, "%6s %12s %14s %12s %10s\n", "n", "algorithm", "rounds", "maxLink", "found")
	rng := rand.New(rand.NewSource(4))
	detN := []int{8, 16}
	if !quick {
		detN = append(detN, 32)
	}
	for _, n := range detN {
		g := graph.Gnp(n, 0.3, rng)
		want := g.HasTriangle()
		for _, alg := range []matmul.Algorithm{matmul.Schoolbook, matmul.Strassen} {
			res, err := matmul.DetectTrianglesOnClique(env.Engine, g, alg, 4, 6, 64, 9)
			if err != nil {
				return err
			}
			if res.Found != want {
				return fmt.Errorf("experiments: matmul detection wrong on n=%d", n)
			}
			fmt.Fprintf(w, "%6d %12v %14d %12d %10v\n",
				n, alg, res.Run.Stats.Rounds, res.Run.Stats.MaxLinkBits, res.Found)
		}
		if env.Batch {
			// -batch: cross-check with the bitsliced local detector (64
			// Shamir trials in one EvalBatch pass).
			got, err := matmul.DetectTrianglesBatch(g, matmul.Schoolbook, 0, 64, 1, rng)
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("experiments: bitsliced detection wrong on n=%d", n)
			}
			fmt.Fprintf(w, "%6d %12s %14s %12s %10v\n", n, "bitsliced", "(local)", "-", got)
		}
	}
	return nil
}

// E4DLPTriangles regenerates the [8] upper bounds: deterministic rounds
// growing like n^{1/3} (at fixed bandwidth), and randomized traffic
// falling as the promised triangle count grows.
func E4DLPTriangles(w io.Writer, quick bool, env Env) error {
	header(w, "E4", "[8] — deterministic n^{1/3} scaling and randomized T-scaling")
	rng := rand.New(rand.NewSource(5))
	ns := []int{27, 64, 125}
	if quick {
		ns = []int{27, 64}
	}
	fmt.Fprintf(w, "%6s %8s %10s %12s %16s\n", "n", "n^{1/3}", "rounds", "totalBits", "bits/n^{4/3}")
	for _, n := range ns {
		g := graph.Gnp(n, 0.2, rng)
		res, err := triangles.DLPDeterministic(env.Engine, g, 64, 11)
		if err != nil {
			return err
		}
		if res.Found != g.HasTriangle() {
			return fmt.Errorf("experiments: DLP deterministic wrong at n=%d", n)
		}
		cube := math.Cbrt(float64(n))
		fmt.Fprintf(w, "%6d %8.2f %10d %12d %16.1f\n",
			n, cube, res.Stats.Rounds, res.Stats.TotalBits,
			float64(res.Stats.TotalBits)/math.Pow(float64(n), 4.0/3.0))
	}

	fmt.Fprintf(w, "\nrandomized with promise T (n=64, dense graph, bandwidth 64):\n")
	fmt.Fprintf(w, "%8s %10s %12s %10s\n", "T", "rounds", "totalBits", "found")
	g := graph.Gnp(64, 0.5, rng)
	tcount := g.CountTriangles()
	ts := []int{1, 8, 64, tcount}
	if quick {
		ts = []int{1, tcount}
	}
	for _, T := range ts {
		res, err := triangles.DLPRandomized(env.Engine, g, 64, T, 6, 13)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8d %10d %12d %10v\n", T, res.Stats.Rounds, res.Stats.TotalBits, res.Found)
	}
	fmt.Fprintf(w, "(graph has %d triangles; total traffic falls as T grows — the n^{1/3}/T^{2/3} shape)\n", tcount)
	return nil
}
