// Benchmarks: one per experiment (see DESIGN.md §3 and EXPERIMENTS.md).
// Each benchmark drives the same code path as the corresponding
// cmd/cliquebench experiment; b.N iterations re-run the core protocol so
// `go test -bench=. -benchmem` both regenerates every table and reports
// the simulator's own cost.
package main

import (
	"io"
	"math/rand"
	"testing"

	"repro/internal/cc"
	"repro/internal/circsim"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/counting"
	"repro/internal/experiments"
	"repro/internal/f2"
	"repro/internal/graph"
	"repro/internal/lowerbound"
	"repro/internal/matmul"
	"repro/internal/rsgraph"
	"repro/internal/subgraph"
	"repro/internal/triangles"
	"repro/internal/turan"
)

// runExperiment executes a full experiment table once per iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, true, experiments.Env{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1CircuitSimulation(b *testing.B) { runExperiment(b, "E1") }
func BenchmarkE2Routing(b *testing.B)           { runExperiment(b, "E2") }
func BenchmarkE3MatmulTriangles(b *testing.B)   { runExperiment(b, "E3") }
func BenchmarkE4DLPTriangles(b *testing.B)      { runExperiment(b, "E4") }
func BenchmarkE5Reconstruction(b *testing.B)    { runExperiment(b, "E5") }
func BenchmarkE6Degeneracy(b *testing.B)        { runExperiment(b, "E6") }
func BenchmarkE7DetectKnownTuran(b *testing.B)  { runExperiment(b, "E7") }
func BenchmarkE8SampledDegeneracy(b *testing.B) { runExperiment(b, "E8") }
func BenchmarkE9AdaptiveDetect(b *testing.B)    { runExperiment(b, "E9") }
func BenchmarkE10LowerBoundGraphs(b *testing.B) { runExperiment(b, "E10") }
func BenchmarkE11NOFTriangles(b *testing.B)     { runExperiment(b, "E11") }
func BenchmarkE12CountingBound(b *testing.B)    { runExperiment(b, "E12") }
func BenchmarkE13Barrier(b *testing.B)          { runExperiment(b, "E13") }
func BenchmarkE15SemiringMM(b *testing.B)       { runExperiment(b, "E15") }
func BenchmarkE16SketchCC(b *testing.B)         { runExperiment(b, "E16") }
func BenchmarkE17FaultInjection(b *testing.B)   { runExperiment(b, "E17") }
func BenchmarkEA1Ablations(b *testing.B)        { runExperiment(b, "EA1") }

// Focused micro-benchmarks on the primitive operations behind the tables.

func BenchmarkTheorem2ParitySim(b *testing.B) {
	c, err := circuit.ParityXorTree(64, 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	in := make([]bool, 64)
	for i := range in {
		in[i] = rng.Intn(2) == 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := circsim.EvalOnClique(core.Env{}, c, 8, 64, in, nil, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBeckerReconstruction(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := graph.Gnp(64, 0.1, rng)
	k := g.Degeneracy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := subgraph.Reconstruct(core.Env{}, g, k, 16, 3)
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK {
			b.Fatal("reconstruction failed")
		}
	}
}

func BenchmarkDLPDeterministic64(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Gnp(64, 0.2, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := triangles.DLPDeterministic(core.Env{}, g, 64, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBroadcastDetect64(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := graph.Gnp(64, 0.2, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := triangles.BroadcastDetect(core.Env{}, g, 16, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// strassen16Trial builds the one-trial Strassen-16 triangle circuit the
// evaluation-engine benchmarks run on (the Section 2.1 hot shape).
func strassen16Trial(b *testing.B) (*circuit.Circuit, []bool, []uint64) {
	b.Helper()
	c, err := matmul.TriangleTrialCircuit(16, matmul.Strassen, 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	in := make([]bool, c.NumInputs())
	lanes := make([]uint64, c.NumInputs())
	for i := range in {
		in[i] = rng.Intn(2) == 1
		lanes[i] = rng.Uint64()
	}
	return c, in, lanes
}

// BenchmarkCircuitEvalScalar64x is the pre-plan baseline: 64 sequential
// scalar evaluations (one per would-be lane).
func BenchmarkCircuitEvalScalar64x(b *testing.B) {
	c, in, _ := strassen16Trial(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < 64; t++ {
			if _, err := c.EvalScalar(in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCircuitEvalDense64x is 64 sequential dense-plan evaluations.
func BenchmarkCircuitEvalDense64x(b *testing.B) {
	c, in, _ := strassen16Trial(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 0; t < 64; t++ {
			if _, err := c.Eval(in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCircuitEvalBatch64 evaluates the same 64 assignments in one
// bitsliced pass — the acceptance bar is ≥ 20x BenchmarkCircuitEvalScalar64x.
func BenchmarkCircuitEvalBatch64(b *testing.B) {
	c, _, lanes := strassen16Trial(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EvalBatch(lanes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShamirBatchDetect16 runs the full batched local detector (64
// random-diagonal trials in one pass).
func BenchmarkShamirBatchDetect16(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	g := graph.Gnp(16, 0.3, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matmul.DetectTrianglesBatch(g, matmul.Strassen, 4, 64, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatmulTriangleStrassen16(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := graph.Gnp(16, 0.3, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matmul.DetectTrianglesOnClique(core.Env{}, g, matmul.Strassen, 4, 6, 64, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTheorem7DetectC4(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	fam := turan.CycleFamily(4)
	g := graph.Gnp(64, 0.05, rng)
	graph.PlantCopy(g, fam.H, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := subgraph.DetectKnownTuran(core.Env{}, g, fam, 16, 9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdaptiveDetect(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Gnp(32, 0.2, rng)
	h := graph.Cycle(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := subgraph.DetectAdaptive(core.Env{}, g, h, 16, 11); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLowerBoundVerifyK4(b *testing.B) {
	lb, err := lowerbound.CliqueLowerBound(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lb.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSGraphConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := rsgraph.NewTripartite(64)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs.Triangles) == 0 {
			b.Fatal("no triangles")
		}
	}
}

func BenchmarkCountingBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := counting.MaxUncomputableRounds(128, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMulOnClique8(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x, y := f2.Random(8, rng), f2.Random(8, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matmul.MulOnClique(core.Env{}, x, y, matmul.Schoolbook, 0, 64, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkC4Congest(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g := graph.Gnp(36, 0.15, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := subgraph.DetectC4Congest(core.Env{}, g, 16, 12, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactCCDisj3(b *testing.B) {
	f, err := cc.DisjMatrix(3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cc.ExactCC(f); err != nil {
			b.Fatal(err)
		}
	}
}
