package sketch

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bits"
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

// TestMergeShipRecordGuards feeds hand-built ship records to the framed
// aggregations' merge, one guard per case (DESIGN.md §11): a frame that
// passed its CRC can still carry a tag the winner must not accept, and a
// clean record can still fail to parse. Rejected records must leave every
// sampler, poison flag and seen mark untouched.
func TestMergeShipRecordGuards(t *testing.T) {
	const classes, copies, universe = 3, 3, 64
	clsW := bits.UintWidth(uint64(classes - 1))
	qW := bits.UintWidth(uint64(copies - 1))
	newStacks := func(items ...uint64) []*Stack {
		stacks := make([]*Stack, classes)
		for w := range stacks {
			stacks[w] = NewStack(universe, DefaultFpBits, copies, 11, uint64(w))
			for _, it := range items {
				stacks[w].Toggle(it)
			}
		}
		return stacks
	}
	loser := newStacks(3, 17, 40)
	record := func(w, q int, pois bool) *bits.Buffer {
		rec := bits.New(0)
		rec.WriteUint(uint64(w), clsW)
		rec.WriteUint(uint64(q), qW)
		rec.WriteBool(pois)
		if !pois {
			loser[w%classes].Samplers[q%copies].Encode(rec)
		}
		return rec
	}
	truncated := func(rec *bits.Buffer, drop int) *bits.Buffer {
		short, err := rec.Slice(0, rec.Len()-drop)
		if err != nil {
			t.Fatal(err)
		}
		return short
	}
	// The stream window DirectFramedAgg expects at one position, and the
	// block LenzenFramedAgg accepts from one loser after phase 1.
	window := func() shipTags { return shipTags{w0: 1, w1: 2, q0: 2, q1: 3} }
	block := func() shipTags {
		return shipTags{w0: 1, w1: classes, q0: 1, q1: copies, seen: make([]bool, (classes-1)*(copies-1))}
	}

	const (
		rejected = iota
		merged
		poisonedOnly // a poison marker: the sampler is left as it was
		garbled      // a merge that failed midway: poisoned, sampler undefined
	)
	for _, tc := range []struct {
		name   string
		rec    *bits.Buffer
		want   shipTags
		w, q   int  // the copy the record names
		dup    bool // the block has already seen (w, q)
		effect int
	}{
		{"clean record in its window", record(1, 2, false), window(), 1, 2, false, merged},
		{"clean record in the block", record(2, 1, false), block(), 2, 1, false, merged},
		{"valid record in the wrong window", record(2, 1, false), window(), 2, 1, false, rejected},
		{"class below the block", record(0, 2, false), block(), 0, 2, false, rejected},
		{"class above the block", record(3, 2, false), block(), 3, 2, false, rejected},
		{"copy below the block", record(2, 0, false), block(), 2, 0, false, rejected},
		{"copy above the block", record(2, 3, false), block(), 2, 3, false, rejected},
		{"duplicate", record(2, 2, false), block(), 2, 2, true, rejected},
		{"poison marker", record(1, 2, true), window(), 1, 2, false, poisonedOnly},
		{"truncated sampler bits", truncated(record(1, 2, false), 5), window(), 1, 2, false, garbled},
		{"truncated header", truncated(record(1, 2, true), 1), window(), 1, 2, false, rejected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stacks := newStacks(5, 17)
			wantStacks := newStacks(5, 17)
			poisoned := newPoisoned(classes, copies)
			if tc.dup {
				*tc.want.at(tc.w, tc.q) = true
			}
			seenBefore := fmt.Sprint(tc.want.seen)

			ok := mergeShipRecord(bits.NewReader(tc.rec), stacks, poisoned, clsW, qW, tc.want)
			if ok != (tc.effect != rejected) {
				t.Fatalf("accepted = %v, want %v", ok, tc.effect != rejected)
			}
			if tc.effect == merged {
				wantStacks[tc.w].Samplers[tc.q].Merge(&loser[tc.w].Samplers[tc.q])
			}
			for w := range stacks {
				for q := range stacks[w].Samplers {
					named := w == tc.w && q == tc.q
					if !(tc.effect == garbled && named) && !stacks[w].Samplers[q].Equal(&wantStacks[w].Samplers[q]) {
						t.Errorf("sampler (class %d, copy %d) differs from the expected state", w, q)
					}
					wantPois := named && (tc.effect == poisonedOnly || tc.effect == garbled)
					if poisoned[w][q] != wantPois {
						t.Errorf("poisoned (class %d, copy %d) = %v, want %v", w, q, poisoned[w][q], wantPois)
					}
				}
			}
			if tc.want.seen != nil {
				if tc.effect == rejected {
					if got := fmt.Sprint(tc.want.seen); got != seenBefore {
						t.Errorf("seen changed by a rejected record: %s, was %s", got, seenBefore)
					}
				} else if !*tc.want.at(tc.w, tc.q) {
					t.Errorf("accepted tag (%d, %d) not marked seen", tc.w, tc.q)
				}
			}
		})
	}
}

// shipDrops drops every message longer than 16 bits. At n = 24 and
// b = 32 a status broadcast is 11 bits, so only ship traffic is lost:
// the first phase that merges fails in the winner's ship check while the
// other nodes are parked in the ship's exchange.
type shipDrops struct{}

func (shipDrops) OnMessage(_, _, _, nbits int) core.FaultAction {
	return core.FaultAction{Drop: nbits > 16}
}

func (shipDrops) CrashRound(int) int { return -1 }

// TestFailedShipReturnsStacks: a run that fails mid-ship returns every
// node's sketch stacks to the pool — the failing node's through its
// error return, the parked nodes' through the unwinding — at the
// sequential width and under the worker pool.
func TestFailedShipReturnsStacks(t *testing.T) {
	g := graph.ComponentsGnp(24, 2, 0.25, rand.New(rand.NewSource(24)))
	env := core.Env{Faults: func(int64) core.FaultInjector { return shipDrops{} }}
	for _, agg := range []Aggregation{DirectAgg, LenzenAgg} {
		for _, par := range []int{1, 4} {
			env.Parallelism = par
			before := stacksOut.Load()
			_, err := ConnectedComponents(env, g, agg, 32, 5)
			if err == nil || !strings.Contains(err.Error(), "winner") {
				t.Fatalf("%v p=%d: err = %v, want a winner's ship-check failure", agg, par, err)
			}
			if d := stacksOut.Load() - before; d != 0 {
				t.Errorf("%v p=%d: %d stacks not returned after a failed ship", agg, par, d)
			}
		}
	}
}
