package scenario

import (
	"fmt"
	"hash/fnv"

	"repro/internal/graph"
	"repro/internal/sketch"
)

// mstWeightMax bounds the weight classes of the sketch MST protocol:
// every family's graphs get deterministic weights in [1, mstWeightMax]
// (one sketch stack per class, so the class count is deliberately small).
const mstWeightMax = 3

// legComponents picks the local connectivity reference of a leg: the
// union-find engine on the oracle leg, the word-parallel bitset BFS on
// engine legs — two independent implementations cross-checked through
// every cell.
func legComponents(g *graph.Graph, leg Leg) []int {
	if leg.Oracle {
		return sketch.UnionFindComponents(g)
	}
	return sketch.BFSComponents(g)
}

// labelsDigest canonically folds the component labeling alone — the
// quantity that is invariant under fault recovery (extra phases and
// alternative certificates are not).
func labelsDigest(res *sketch.CCResult) string {
	h := fnv.New64a()
	for _, l := range res.Leader {
		fmt.Fprintf(h, "%d;", l)
	}
	return fmt.Sprintf("labels=%016x", h.Sum64())
}

// ccDigest canonically folds a labeling and forest for the cell output.
func ccDigest(res *sketch.CCResult) string {
	h := fnv.New64a()
	for i, e := range res.Forest {
		fmt.Fprintf(h, "%d-%d", e[0], e[1])
		if res.Weights != nil {
			fmt.Fprintf(h, "w%d", res.Weights[i])
		}
		fmt.Fprint(h, ";")
	}
	return fmt.Sprintf("%s forest=%016x", labelsDigest(res), h.Sum64())
}

// sketchAgg picks a sketch protocol's aggregation for the leg: the
// framed, poison-tracking variant on faulted cells, the plain one
// otherwise. Both compute identical results on a clean channel, so the
// oracle leg of a faulted cell (clean + framed) still defines truth.
func sketchAgg(plain, framed sketch.Aggregation, leg Leg) sketch.Aggregation {
	if leg.Faulty {
		return framed
	}
	return plain
}

// checkCC is the certificate validation shared by every sketch cell:
// labeling against the leg's independent local reference, forest
// certificates strictly validated against the graph (real edges,
// acyclic, spanning exactly the claimed labeling).
func checkCC(name string, g *graph.Graph, res *sketch.CCResult, leg Leg) error {
	want := legComponents(g, leg)
	for v, l := range res.Leader {
		if l != want[v] {
			return fmt.Errorf("%s: vertex %d labeled %d, local reference says %d", name, v, l, want[v])
		}
	}
	if err := sketch.ValidateForest(g, res); err != nil {
		return err
	}
	return nil
}

// runConnectivity runs sketch-Borůvka connected components (direct
// stack aggregation) and checks the labeling against the leg's local
// reference engine.
func runConnectivity(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
	res, err := sketch.ConnectedComponents(leg.Env, g, sketchAgg(sketch.DirectAgg, sketch.DirectFramedAgg, leg), bandwidth, seed)
	if err != nil {
		return nil, err
	}
	if err := checkCC("connectivity", g, res, leg); err != nil {
		return nil, err
	}
	out := fmt.Sprintf("comps=%d phases=%d %s", res.Components, res.Phases, ccDigest(res))
	if leg.Faulty {
		// Recovery may burn extra phases and certify a different (still
		// validated) forest; the fault-stable output is the labeling.
		out = fmt.Sprintf("comps=%d %s", res.Components, labelsDigest(res))
	}
	return &LegResult{Output: out, Stats: res.Stats}, nil
}

// runSpanForest runs the Lenzen-routed aggregation variant (merged
// component sketches concentrate at leaders through the router) and
// validates the spanning-forest certificates strictly.
func runSpanForest(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
	res, err := sketch.SpanningForest(leg.Env, g, sketchAgg(sketch.LenzenAgg, sketch.LenzenFramedAgg, leg), bandwidth, seed)
	if err != nil {
		return nil, err
	}
	if err := checkCC("spanforest", g, res, leg); err != nil {
		return nil, err
	}
	if len(res.Forest) != g.N()-res.Components {
		return nil, fmt.Errorf("spanforest: %d certificates for %d components on %d vertices",
			len(res.Forest), res.Components, g.N())
	}
	out := fmt.Sprintf("comps=%d phases=%d edges=%d %s", res.Components, res.Phases, len(res.Forest), ccDigest(res))
	if leg.Faulty {
		out = fmt.Sprintf("comps=%d edges=%d %s", res.Components, len(res.Forest), labelsDigest(res))
	}
	return &LegResult{Output: out, Stats: res.Stats}, nil
}

// runSketchMST attaches deterministic weights in [1, mstWeightMax] to
// the cell's graph (exactly as the semiring protocols do) and computes a
// minimum spanning forest by weight-class sketch filtering, checked
// against a leg-chosen exact reference: Kruskal on the oracle leg, local
// non-sketch Borůvka on engine legs.
func runSketchMST(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
	wg := graph.WeightedFromSeed(g, seed, mstWeightMax)
	res, err := sketch.MST(leg.Env, wg, mstWeightMax, sketchAgg(sketch.LenzenAgg, sketch.LenzenFramedAgg, leg), bandwidth, seed)
	if err != nil {
		return nil, err
	}
	if err := sketch.ValidateForest(g, res); err != nil {
		return nil, err
	}
	var want *sketch.MSFResult
	if leg.Oracle {
		want = sketch.KruskalMSF(wg)
	} else {
		want = sketch.BoruvkaMSF(wg)
	}
	if res.TotalWeight != want.TotalWeight {
		return nil, fmt.Errorf("sketchmst: clique MSF weighs %d, local reference %d", res.TotalWeight, want.TotalWeight)
	}
	if len(res.Forest) != len(want.Forest) {
		return nil, fmt.Errorf("sketchmst: forest has %d edges, local reference %d", len(res.Forest), len(want.Forest))
	}
	for i, e := range res.Forest {
		if got := wg.Weight(e[0], e[1]); got != res.Weights[i] {
			return nil, fmt.Errorf("sketchmst: certificate {%d,%d} claims weight %d, graph says %d",
				e[0], e[1], res.Weights[i], got)
		}
	}
	out := fmt.Sprintf("weight=%d edges=%d phases=%d %s", res.TotalWeight, len(res.Forest), res.Phases, ccDigest(res))
	if leg.Faulty {
		// Every minimum spanning forest has the same total weight and
		// edge count, but a recovered run may certify a different one.
		out = fmt.Sprintf("weight=%d edges=%d %s", res.TotalWeight, len(res.Forest), labelsDigest(res))
	}
	return &LegResult{Output: out, Stats: res.Stats}, nil
}
