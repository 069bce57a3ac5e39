// Package experiments regenerates the quantitative content of every
// theorem and claim in the paper (the paper has no numbered tables or
// figures; its evaluation is its theorems). Each experiment prints a
// table whose shape the corresponding theorem predicts; EXPERIMENTS.md
// records paper-claim vs. measured for each. The cmd/cliquebench binary
// runs them from the command line and bench_test.go wraps each in a
// testing.B benchmark.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// Experiment is one reproducible unit: a theorem/claim mapped to a table
// generator.
type Experiment struct {
	ID    string
	Claim string // the paper statement being regenerated
	Run   func(w io.Writer, quick bool, env Env) error
}

// Env configures a run of the experiments: the engine environment every
// protocol run starts from (cliquebench's -parallelism flag), and
// whether the local reference checks of E1 and E3 use the 64-lane
// bitsliced engine (-batch). The zero value is the default engine with
// scalar references.
type Env struct {
	Engine core.Env
	Batch  bool
}

// All lists the experiments in paper order.
var All = []Experiment{
	{"E1", "Theorem 2: b-separable circuits of depth D simulate in O(D) rounds", E1CircuitSimulation},
	{"E2", "Lenzen routing [28]: balanced demands route in O(1) rounds", E2Routing},
	{"E3", "Section 2.1: matmul circuit wires drive triangle-detection rounds", E3MatmulTriangles},
	{"E4", "[8]: deterministic n^{1/3} and randomized n^{1/3}/T^{2/3} triangle detection", E4DLPTriangles},
	{"E5", "Becker et al. [2]: one-round reconstruction with O(k log n)-bit messages", E5Reconstruction},
	{"E6", "Claim 6: H-free graphs have degeneracy at most 4·ex(n,H)/n", E6Degeneracy},
	{"E7", "Theorem 7: H-detection in O(ex(n,H)/n · log(n)/b) rounds", E7DetectKnownTuran},
	{"E8", "Lemma 8: sampled degeneracy concentrates around k·2^{-j}", E8SampledDegeneracy},
	{"E9", "Theorem 9: adaptive detection with unknown Turán numbers", E9AdaptiveDetect},
	{"E10", "Lemmas 13/14/18/21 + Theorems 15/19/22: lower-bound graphs and reductions", E10LowerBoundGraphs},
	{"E11", "Claim 23 + Theorem 24: RS graphs and the NOF reduction", E11NOFTriangles},
	{"E12", "Section 1: the non-explicit (n - O(log n))/b counting bound", E12CountingBound},
	{"E13", "Section 2 barrier: the circuit bounds clique lower bounds must beat", E13Barrier},
	{"E14", "evaluation-engine ablation: scalar vs dense vs bitsliced (DESIGN.md §7)", E14EvalEngines},
	{"E15", "semiring MM ablation: naive row-broadcast vs cube partition (DESIGN.md §9)", E15SemiringMM},
	{"E16", "ℓ0-sketch connectivity: sketch Borůvka vs broadcast baseline (DESIGN.md §10)", E16SketchConnectivity},
	{"E17", "fault-injection adversary: deterministic faults, hardened recovery, zero silent corruption (DESIGN.md §11)", E17FaultInjection},
	{"E18", "round tracing: zero-interference observer, Stats reconciliation, per-phase profiles (DESIGN.md §14)", E18RoundTracing},
	{"EA1", "ablations over the reproduction's design choices (DESIGN.md §4)", EA1Ablations},
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// header prints a standard experiment banner.
func header(w io.Writer, e string, claim string) {
	fmt.Fprintf(w, "\n=== %s — %s ===\n", e, claim)
}
