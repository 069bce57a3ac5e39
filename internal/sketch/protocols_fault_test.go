package sketch

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
)

// withFaults is the engine environment carrying spec's adversary —
// exactly how the scenario harness hands it to an engine leg.
func withFaults(spec fault.Spec) core.Env {
	return core.Env{Faults: spec.Factory()}
}

// TestFramedAggMatchesUnframedCleanChannel: on a lossless channel the
// framed aggregations compute exactly the unframed results (the frames
// change the wire format and round counts, never the merge semantics).
func TestFramedAggMatchesUnframedCleanChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := graph.ComponentsGnp(20, 2, 0.3, rng)
	for _, pair := range [][2]Aggregation{
		{DirectAgg, DirectFramedAgg},
		{LenzenAgg, LenzenFramedAgg},
	} {
		plain, err := ConnectedComponents(core.Env{}, g, pair[0], 64, 7)
		if err != nil {
			t.Fatalf("%v: %v", pair[0], err)
		}
		framed, err := ConnectedComponents(core.Env{}, g, pair[1], 64, 7)
		if err != nil {
			t.Fatalf("%v: %v", pair[1], err)
		}
		if !reflect.DeepEqual(plain.Leader, framed.Leader) ||
			plain.Components != framed.Components ||
			!reflect.DeepEqual(plain.Forest, framed.Forest) {
			t.Errorf("%v and %v disagree on a clean channel", pair[0], pair[1])
		}
		if framed.Stats.TotalBits <= plain.Stats.TotalBits {
			t.Errorf("%v spent %d bits, not more than %v's %d (frame overhead missing?)",
				pair[1], framed.Stats.TotalBits, pair[0], plain.Stats.TotalBits)
		}
	}
}

// TestFramedAggSurvivesFaults is the recovery claim: under drop and
// corruption rates the framed aggregations either produce the exact
// fault-free result (spare copies absorbed the losses) or fail with an
// explicit error — never a silently wrong answer. At these rates the
// large majority of seeds must recover, or the slack isn't doing its
// job.
func TestFramedAggSurvivesFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	g := graph.ComponentsGnp(18, 2, 0.35, rng)
	want, err := ConnectedComponents(core.Env{}, g, DirectFramedAgg, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		spec fault.Spec
		agg  Aggregation
	}{
		{"direct-drop", fault.Spec{Drop: 0.01}, DirectFramedAgg},
		{"direct-corrupt", fault.Spec{Corrupt: 0.01}, DirectFramedAgg},
		{"lenzen-drop", fault.Spec{Drop: 0.01}, LenzenFramedAgg},
		{"lenzen-corrupt", fault.Spec{Corrupt: 0.01}, LenzenFramedAgg},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recovered, detected := 0, 0
			for seed := int64(0); seed < 12; seed++ {
				res, err := ConnectedComponents(withFaults(tc.spec), g, tc.agg, 64, seed)
				if err != nil {
					detected++
					continue
				}
				if !reflect.DeepEqual(res.Leader, want.Leader) {
					t.Fatalf("seed %d: SILENT divergence: wrong labeling accepted", seed)
				}
				recovered++
			}
			t.Logf("%s: %d recovered, %d detected", tc.name, recovered, detected)
			if recovered < 8 {
				t.Errorf("only %d/12 seeds recovered at %v — slack copies not absorbing losses", recovered, tc.spec)
			}
		})
	}
}

// TestFramedAggStallsOnPoison pins the poison mechanics directly: at a
// high drop rate the protocol must never return a wrong labeling; every
// run either recovers exactly or errors (stack exhausted / validation /
// divergence all count as detected).
func TestFramedAggStallsOnPoison(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := graph.Gnp(14, 0.3, rng)
	want, err := ConnectedComponents(core.Env{}, g, DirectFramedAgg, 48, 5)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		res, err := ConnectedComponents(withFaults(fault.Spec{Drop: 0.10}), g, DirectFramedAgg, 48, seed)
		if err != nil {
			continue // detected: acceptable under heavy loss
		}
		if !reflect.DeepEqual(res.Leader, want.Leader) {
			t.Fatalf("seed %d: silent divergence at drop=0.10", seed)
		}
	}
}

// TestFramedAggDeterministicUnderFaults: a faulted framed run replays
// identically across engine parallelism — the whole point of applying
// fault decisions at sequential delivery time.
func TestFramedAggDeterministicUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := graph.ComponentsGnp(16, 2, 0.3, rng)
	run := func(par int) (*CCResult, error) {
		env := withFaults(fault.Spec{Drop: 0.02, Corrupt: 0.02})
		env.Parallelism = par
		return ConnectedComponents(env, g, LenzenFramedAgg, 64, 3)
	}
	seqRes, seqErr := run(1)
	parRes, parErr := run(4)
	if (seqErr == nil) != (parErr == nil) {
		t.Fatalf("outcome differs across parallelism: seq=%v par=%v", seqErr, parErr)
	}
	if seqErr != nil {
		return
	}
	if !reflect.DeepEqual(seqRes.Leader, parRes.Leader) ||
		!reflect.DeepEqual(seqRes.Stats, parRes.Stats) ||
		!reflect.DeepEqual(seqRes.Forest, parRes.Forest) {
		t.Error("faulted framed run is not parallelism-invariant")
	}
}

// TestAggregationStrings pins the new variants' names (the scenario
// matrix and E17 print them).
func TestAggregationStrings(t *testing.T) {
	for agg, want := range map[Aggregation]string{
		DirectAgg:       "direct",
		LenzenAgg:       "lenzen",
		DirectFramedAgg: "direct-framed",
		LenzenFramedAgg: "lenzen-framed",
		Aggregation(99): "Aggregation(99)",
	} {
		if got := agg.String(); got != want {
			t.Errorf("Aggregation(%d).String() = %q, want %q", int(agg), got, want)
		}
	}
}

// TestFramedMSTUnderFaults extends the safety claim to the weighted
// ladder: MST over the framed path either matches the fault-free MST
// weight or errors.
func TestFramedMSTUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := graph.Gnp(14, 0.35, rng)
	wg := graph.WeightedFromSeed(g, 77, 4)
	want, err := MST(core.Env{}, wg, 4, DirectFramedAgg, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		res, err := MST(withFaults(fault.Spec{Drop: 0.01}), wg, 4, DirectFramedAgg, 64, seed)
		if err != nil {
			continue
		}
		if res.TotalWeight != want.TotalWeight {
			t.Fatalf("seed %d: silent MST weight divergence: %d vs %d", seed, res.TotalWeight, want.TotalWeight)
		}
	}
}
