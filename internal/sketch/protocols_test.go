package sketch

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
)

// testGraphs is the family sweep the protocol tests run over: sparse,
// dense, genuinely disconnected, edgeless and path-like inputs.
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	gs := map[string]*graph.Graph{
		"gnp-sparse":  graph.Gnp(18, 0.08, rng),
		"gnp-dense":   graph.Gnp(16, 0.5, rng),
		"path":        graph.Path(15),
		"edgeless":    graph.New(10),
		"star+iso":    graph.WithIsolated(graph.Star(8), 14),
		"components3": graph.ComponentsGnp(21, 3, 0.4, rng),
	}
	return gs
}

func sameLabels(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestConnectedComponentsMatchesReferences(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, agg := range []Aggregation{DirectAgg, LenzenAgg} {
			res, err := ConnectedComponents(core.Env{}, g, agg, 32, 5)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, agg, err)
			}
			uf := UnionFindComponents(g)
			bfs := BFSComponents(g)
			if !sameLabels(uf, bfs) {
				t.Fatalf("%s: the two reference engines disagree", name)
			}
			if !sameLabels(res.Leader, uf) {
				t.Fatalf("%s/%v: sketch labels %v != reference %v", name, agg, res.Leader, uf)
			}
			if res.Phases > Copies(g.N(), 1) {
				t.Fatalf("%s/%v: %d phases exceeds the stack bound %d", name, agg, res.Phases, Copies(g.N(), 1))
			}
			if err := ValidateForest(g, res); err != nil {
				t.Fatalf("%s/%v: %v", name, agg, err)
			}
			if want := g.N() - res.Components; len(res.Forest) != want {
				t.Fatalf("%s/%v: forest has %d edges, want n - components = %d", name, agg, len(res.Forest), want)
			}
		}
	}
}

func TestSpanningForestCertificates(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.ComponentsGnp(24, 3, 0.35, rng)
	res, err := SpanningForest(core.Env{}, g, LenzenAgg, 32, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 3 {
		t.Fatalf("found %d components, generator builds 3", res.Components)
	}
	for _, e := range res.Forest {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("certificate {%d,%d} is not an edge", e[0], e[1])
		}
	}
}

func TestMSTMatchesKruskal(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const maxW = 3
	for trial := 0; trial < 4; trial++ {
		g := graph.Gnp(14+trial*3, 0.3, rng)
		wg := graph.WeightedFromSeed(g, int64(100+trial), maxW)
		for _, agg := range []Aggregation{DirectAgg, LenzenAgg} {
			res, err := MST(core.Env{}, wg, maxW, agg, 32, int64(7+trial))
			if err != nil {
				t.Fatalf("trial %d/%v: %v", trial, agg, err)
			}
			kr := KruskalMSF(wg)
			bo := BoruvkaMSF(wg)
			if kr.TotalWeight != bo.TotalWeight {
				t.Fatalf("trial %d: reference MSF engines disagree (%d vs %d)", trial, kr.TotalWeight, bo.TotalWeight)
			}
			if res.TotalWeight != kr.TotalWeight {
				t.Fatalf("trial %d/%v: sketch MSF weight %d, Kruskal %d", trial, agg, res.TotalWeight, kr.TotalWeight)
			}
			if len(res.Forest) != len(kr.Forest) {
				t.Fatalf("trial %d/%v: forest size %d, Kruskal %d", trial, agg, len(res.Forest), len(kr.Forest))
			}
			for i, e := range res.Forest {
				if got, want := wg.Weight(e[0], e[1]), res.Weights[i]; got != want {
					t.Fatalf("trial %d/%v: certificate {%d,%d} claims weight %d, graph says %d",
						trial, agg, e[0], e[1], want, got)
				}
			}
		}
	}
}

func TestMSTRejectsOutOfRangeWeights(t *testing.T) {
	g := graph.Path(4)
	wg := graph.WeightedFromSeed(g, 1, 10)
	if _, err := MST(core.Env{}, wg, 3, DirectAgg, 32, 1); err == nil {
		t.Fatal("MST accepted weights above maxClass")
	}
}

func TestBroadcastBoruvkaBaseline(t *testing.T) {
	for name, g := range testGraphs(t) {
		res, err := BroadcastBoruvka(core.Env{}, g, 32, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameLabels(res.Leader, UnionFindComponents(g)) {
			t.Fatalf("%s: baseline labels differ from the reference", name)
		}
		if err := ValidateForest(g, res); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestProtocolEngineOracle pins the parallel round engine against the
// sequential oracle on the sketch protocols: outputs and full Stats must
// be bit-identical (the scenario matrix's differential contract).
func TestProtocolEngineOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := graph.ComponentsGnp(20, 2, 0.3, rng)
	wg := graph.WeightedFromSeed(g, 55, 3)

	type run func(env core.Env) (*CCResult, error)
	cases := map[string]run{
		"cc-direct":  func(env core.Env) (*CCResult, error) { return ConnectedComponents(env, g, DirectAgg, 24, 3) },
		"cc-lenzen":  func(env core.Env) (*CCResult, error) { return ConnectedComponents(env, g, LenzenAgg, 24, 3) },
		"mst-lenzen": func(env core.Env) (*CCResult, error) { return MST(env, wg, 3, LenzenAgg, 24, 3) },
		"baseline":   func(env core.Env) (*CCResult, error) { return BroadcastBoruvka(env, g, 24, 3) },
	}
	for name, f := range cases {
		seq, err := f(core.Env{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s seq: %v", name, err)
		}
		par, err := f(core.Env{Parallelism: 4})
		if err != nil {
			t.Fatalf("%s par: %v", name, err)
		}
		if fmt.Sprintf("%+v", seq) != fmt.Sprintf("%+v", par) {
			t.Fatalf("%s: sequential and parallel engines disagree:\n  seq: %+v\n  par: %+v", name, seq, par)
		}
	}
}

func TestTrivialSizes(t *testing.T) {
	for _, n := range []int{0, 1} {
		res, err := ConnectedComponents(core.Env{}, graph.New(n), DirectAgg, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Components != n || len(res.Forest) != 0 {
			t.Fatalf("n=%d: got %d components", n, res.Components)
		}
	}
}

// raceDetector is set under -race (race_test.go), where sync.Pool drops
// a quarter of its Puts and pooled allocation counts mean nothing.
var raceDetector bool

// TestAllocRegressionSketchRun is the allocation gate of the sketch
// protocols' message path: objects allocated per run of
// ConnectedComponents (DirectAgg) and of SpanningForest and MST
// (LenzenAgg) on a 24-player, two-component instance, at the sequential
// width and under the worker pool, and per run of the framed
// aggregations (ConnectedComponents with DirectFramedAgg and
// LenzenFramedAgg) on a clean channel and under drop=0.01,corrupt=0.005
// (CI's fault slice and perfbench's fleet-faults spec), where this
// seed's runs end detected. Every budget sits about 25% above the
// reading with exchange results that belong to the Proc, frames checked
// in place and the body's message scratch reused across phases: 1.3k,
// 1.8k and 2.1k–2.5k (the pooled stacks' hit rate varies under the
// worker pool) for the plain runs, 3.1k and 3.2k clean and 3.0k and
// 3.6k faulted for the framed ones. Before that the same runs read
// 2.2k, 2.3k, 3.1k, 27.6k, 29.0k, 18.9k and 22.4k (every multi-round
// result a pool buffer the caller dropped, and every frame, record and
// stream a fresh buffer); the plain runs read 5.9k, 11.9k and 36.9k
// before the pooled stacks and the per-Proc exchange state, and message
// arenas that stopped recycling under a fault plan put the framed runs
// at 27.5k, 31.2k, 25.7k and 36.9k.
// Matches the CI alloc-regression pattern (-run AllocRegression). Under
// the race detector sync.Pool drops a quarter of its Puts (the stacks
// and the routers' frames are pooled), so the gate skips there.
func TestAllocRegressionSketchRun(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	g := graph.ComponentsGnp(24, 2, 0.25, rand.New(rand.NewSource(24)))
	wg := graph.WeightedFromSeed(g, 24, 4)
	faults := fault.Spec{Drop: 0.01, Corrupt: 0.005}.Factory()
	for _, tc := range []struct {
		name   string
		budget float64
		faults func(seed int64) core.FaultInjector // nil: a clean channel
		run    func(env core.Env) (*CCResult, error)
	}{
		{"cc-direct", 1650, nil, func(env core.Env) (*CCResult, error) { return ConnectedComponents(env, g, DirectAgg, 32, 5) }},
		{"forest-lenzen", 2250, nil, func(env core.Env) (*CCResult, error) { return SpanningForest(env, g, LenzenAgg, 32, 5) }},
		{"mst-lenzen", 3100, nil, func(env core.Env) (*CCResult, error) { return MST(env, wg, 4, LenzenAgg, 32, 5) }},
		{"cc-direct-framed", 3850, nil, func(env core.Env) (*CCResult, error) {
			return ConnectedComponents(env, g, DirectFramedAgg, 32, 5)
		}},
		{"cc-lenzen-framed", 4100, nil, func(env core.Env) (*CCResult, error) {
			return ConnectedComponents(env, g, LenzenFramedAgg, 32, 5)
		}},
		{"cc-direct-framed-faulted", 3700, faults, func(env core.Env) (*CCResult, error) {
			return ConnectedComponents(env, g, DirectFramedAgg, 32, 5)
		}},
		{"cc-lenzen-framed-faulted", 4550, faults, func(env core.Env) (*CCResult, error) {
			return ConnectedComponents(env, g, LenzenFramedAgg, 32, 5)
		}},
	} {
		for _, par := range []int{1, 4} {
			env := core.Env{Parallelism: par, Faults: tc.faults}
			// A faulted run must end detected, as it does on this seed:
			// a run that ended elsewhere would count other work.
			run := func() {
				if _, err := tc.run(env); (err != nil) != (tc.faults != nil) {
					t.Fatalf("%s p=%d: err = %v, want an error exactly under faults", tc.name, par, err)
				}
			}
			run() // warm the pools
			allocs := testing.AllocsPerRun(10, run)
			t.Logf("%s p=%d: %.0f objects per run (budget %.0f)", tc.name, par, allocs, tc.budget)
			if allocs > tc.budget {
				t.Errorf("%s p=%d: %.0f objects per run, budget %.0f", tc.name, par, allocs, tc.budget)
			}
		}
	}
}
