package experiments

import (
	"fmt"
	"io"

	"repro/internal/barrier"
)

// E13Barrier quantifies Section 2's punchline: the circuit lower bounds
// that clique round bounds would have to beat are barely superlinear, so
// even tiny round bounds cross the frontier.
func E13Barrier(w io.Writer, quick bool, env Env) error {
	header(w, "E13", "Section 2 barrier — how weak the known circuit bounds are")

	fmt.Fprintf(w, "the λ hierarchy of [6] (CC[m] wire bounds are n·λ_{d-1}(n) at depth d):\n")
	fmt.Fprintf(w, "%12s %10s %10s %10s %10s %8s\n", "n", "λ1=lg", "λ2=lg*", "λ3=lg**", "λ4", "λ⁻¹")
	ns := []int64{1 << 10, 1 << 20, 1 << 40, 1 << 60}
	if quick {
		ns = ns[:2]
	}
	for _, n := range ns {
		var vals [4]int64
		for d := 1; d <= 4; d++ {
			v, err := barrier.Lambda(d, n)
			if err != nil {
				return err
			}
			vals[d-1] = v
		}
		inv, err := barrier.LambdaInverse(n)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%12d %10d %10d %10d %10d %8d\n",
			n, vals[0], vals[1], vals[2], vals[3], inv)
	}
	fmt.Fprintf(w, "(a clique bound of Ω(λ⁻¹(n)) ≈ 4 rounds at constant bandwidth beats [6])\n")

	fmt.Fprintf(w, "\nthreshold circuits [21,42]: wires ≥ n^{1+c·K^{-d}} (c=1, K=3); trivial depth:\n")
	fmt.Fprintf(w, "%12s %14s %14s %14s\n", "n", "bound d=2", "bound d=4", "trivial at d")
	for _, n := range ns {
		d2 := barrier.IPSWireBound(n, 2, 1, 3)
		d4 := barrier.IPSWireBound(n, 4, 1, 3)
		td := barrier.IPSTrivialDepth(n, 1, 3, 2)
		fmt.Fprintf(w, "%12d %14.3g %14.3g %14d\n", n, d2, d4, td)
	}
	fmt.Fprintf(w, "(trivial depth grows like log log n: an Ω(log log n)-round clique bound at\n")
	fmt.Fprintf(w, " bandwidth O(log n) would beat the threshold-circuit frontier)\n")

	fmt.Fprintf(w, "\nTheorem 4 contrapositive, plumbed: a 100-round bound for CLIQUE-UCAST(2^15, O(1+64))\n")
	impl := barrier.CliqueToCircuit{N: 1 << 15, Rounds: 100, SepBits: 1, WireS: 64, SimConst: 5}
	beats4, err := impl.BeatsCC(4)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "would rule out depth ≤ %.0f circuits with %d wires (beats [6] at depth 4: %v)\n",
		impl.ImpliedDepth(), impl.ImpliedWires(), beats4)
	return nil
}
