// Cliquebench regenerates the quantitative content of every theorem and
// claim of "On the Power of the Congested Clique Model" (Drucker, Kuhn,
// Oshman; PODC 2014). Run all experiments (E1–E18 plus the EA1 ablations) or a single one:
//
//	cliquebench             # everything, full parameters
//	cliquebench -exp E7     # one experiment
//	cliquebench -quick      # reduced parameter sweeps
//	cliquebench -list       # show the experiment index
//
// See EXPERIMENTS.md for the paper-vs-measured record. The differential
// scenario matrix has its own binary, cmd/scenariorun.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment ID to run (E1..E18, EA1) or 'all'")
		quick = flag.Bool("quick", false, "reduced parameter sweeps")
		list  = flag.Bool("list", false, "list experiments and exit")
		par   = flag.Int("parallelism", 0, "engine workers per round: 0 = GOMAXPROCS, 1 = sequential")
		batch = flag.Bool("batch", false, "use the 64-lane bitsliced engine for local reference evaluation")
	)
	flag.Parse()
	env := experiments.Env{Engine: core.Env{Parallelism: max(*par, 0)}, Batch: *batch}

	if *list {
		for _, e := range experiments.All {
			fmt.Printf("%-5s %s\n", e.ID, e.Claim)
		}
		return
	}
	if *exp != "all" {
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
			os.Exit(1)
		}
		run(e, *quick, env)
		return
	}
	for _, e := range experiments.All {
		run(e, *quick, env)
	}
}

func run(e experiments.Experiment, quick bool, env experiments.Env) {
	if err := e.Run(os.Stdout, quick, env); err != nil {
		fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
		os.Exit(1)
	}
}
