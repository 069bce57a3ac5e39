package scenario

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/bits"
	"repro/internal/circsim"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matmul"
	"repro/internal/routing"
	"repro/internal/subgraph"
	"repro/internal/triangles"
	"repro/internal/turan"
)

// DefaultProtocols is the standing protocol set: the trivial broadcast
// triangle detector, the Theorem 7 H-detector, Lenzen routing, the
// Theorem 2 circuit simulation, Becker et al. reconstruction, the three
// semiring MM workloads (APSP, k-hop distance product, matrix-power
// counting — DESIGN.md §9), and the three linear-sketch workloads
// (connectivity, spanning forest, weight-class MST — DESIGN.md §10).
func DefaultProtocols() []Protocol {
	return []Protocol{
		{
			Name: "triangle",
			Desc: "CLIQUE-BCAST full-exchange triangle detection vs local ground truth",
			Run:  runTriangle,
		},
		{
			Name: "hdetect",
			Desc: "Theorem 7 C4-detection vs exhaustive subgraph search",
			Run:  runHDetect,
		},
		{
			Name: "routing",
			Desc: "Lenzen routing of the graph's edge demand (all-to-all on K_n)",
			Run:  runRouting,
		},
		{
			Name: "circuit",
			Desc: "Theorem 2 simulation of a parity/majority/mod circuit over the edge bits",
			Run:  runCircuit,
		},
		{
			Name: "reconstruct",
			Desc: "Becker et al. k-degenerate reconstruction, k = degeneracy(G)",
			Run:  runReconstruct,
		},
		{
			Name: "apsp",
			Desc: "APSP by repeated min-plus squaring (row-broadcast MM) vs Floyd–Warshall",
			Run:  runAPSP,
		},
		{
			Name: "khop",
			Desc: "3-hop distance product (cube-partition MM, Lenzen-routed) vs Bellman–Ford",
			Run:  runKHop,
		},
		{
			Name: "matpower",
			Desc: "Boolean/counting matrix powers: reachability, tr(A³)/6 triangles, A² C4 counts",
			Run:  runMatrixPower,
		},
		{
			Name: "connectivity",
			Desc: "ℓ0-sketch Borůvka connected components (direct aggregation) vs union-find/BFS",
			Run:  runConnectivity,
		},
		{
			Name: "spanforest",
			Desc: "spanning-forest certificates via Lenzen-routed sketch aggregation",
			Run:  runSpanForest,
		},
		{
			Name: "sketchmst",
			Desc: "minimum spanning forest by weight-class sketch filtering vs Kruskal/Borůvka",
			Run:  runSketchMST,
		},
	}
}

// ProtocolByName resolves a protocol from the default set.
func ProtocolByName(name string) (Protocol, bool) {
	for _, p := range DefaultProtocols() {
		if p.Name == name {
			return p, true
		}
	}
	return Protocol{}, false
}

// runTriangle runs the trivial CLIQUE-BCAST detector on the simulated
// network and cross-checks it against a local ground truth computed by a
// leg-specific engine: the scalar neighborhood scan on the oracle leg,
// the triangle-count path on the plain engine leg, and the 64-lane
// bitsliced Shamir detector (one-sided error 2^-64) on batch legs.
func runTriangle(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
	res, err := triangles.BroadcastDetect(leg.Env, g, bandwidth, seed)
	if err != nil {
		return nil, err
	}
	var truth bool
	switch {
	case leg.Batch:
		truth, err = matmul.DetectTrianglesBatch(g, matmul.Schoolbook, 2, 64, rand.New(rand.NewSource(seed^0x7a1a7)))
		if err != nil {
			return nil, err
		}
	case leg.Oracle:
		truth = g.HasTriangle()
	default:
		truth = g.CountTriangles() > 0
	}
	if res.Found != truth {
		return nil, fmt.Errorf("triangle: protocol says %v, local truth says %v", res.Found, truth)
	}
	return &LegResult{
		Output: fmt.Sprintf("found=%v", res.Found),
		Stats:  res.Stats,
	}, nil
}

// runHDetect runs the Theorem 7 detector for C4 and checks the answer
// against an exhaustive local embedding search.
func runHDetect(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
	fam := turan.CycleFamily(4)
	res, err := subgraph.DetectKnownTuran(leg.Env, g, fam, bandwidth, seed)
	if err != nil {
		return nil, err
	}
	truth := graph.ContainsSubgraph(g, fam.H)
	if res.Found != truth {
		return nil, fmt.Errorf("hdetect: protocol says %v, exhaustive search says %v", res.Found, truth)
	}
	return &LegResult{
		Output: fmt.Sprintf("found=%v k=%d reconstructed=%v", res.Found, res.KUsed, res.Reconstructed),
		Stats:  res.Stats,
	}, nil
}

// demandPayload is the deterministic payload carried on the demand edge
// u -> v (a splitmix64 of the cell seed and the pair), so a receiver can
// recompute exactly what every sender must have shipped.
func demandPayload(seed int64, u, v, width int) uint64 {
	z := bits.Mix64(uint64(seed) + 0x9e3779b97f4a7c15*uint64(u+1) + 0x517cc1b727220a95*uint64(v+1))
	return z & (1<<uint(width) - 1)
}

// routePayloadBits is the fixed payload width of the routing workload.
const routePayloadBits = 24

// runRouting routes one message per directed edge of g (all-to-all when g
// is complete — the worst-case Lenzen demand) through Router.Route, and
// every node verifies the payload bits it receives against the
// deterministic expectation before digesting them in canonical order. On
// faulted cells each payload travels inside a checksummed wire frame
// (routing.EncodeFrame), so corrupted deliveries fail frame validation —
// an explicit detected error — before the payload expectation is even
// consulted; lost messages surface through the receive-count check.
func runRouting(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
	n := g.N()
	rt := routing.NewRouter(n)
	maxPayload := routePayloadBits
	if leg.Faulty {
		maxPayload = routing.FrameBits(routePayloadBits)
	}
	cfg := core.Config{N: n, Bandwidth: bandwidth, Model: core.Unicast, Seed: seed, Env: leg.Env}
	res, err := core.RunProcs(cfg, func(p *core.Proc) error {
		me := p.ID()
		nbrs := g.Neighbors(me)
		out := make([]routing.Msg, 0, len(nbrs))
		var raw, payload bits.Buffer // the unframed payload, written or decoded
		for _, v := range nbrs {
			pl := bits.New(maxPayload)
			if leg.Faulty {
				raw.Reset()
				raw.WriteUint(demandPayload(seed, me, v, routePayloadBits), routePayloadBits)
				if err := routing.EncodeFrame(pl, &raw); err != nil {
					return err
				}
			} else {
				pl.WriteUint(demandPayload(seed, me, v, routePayloadBits), routePayloadBits)
			}
			out = append(out, routing.Msg{Src: me, Dst: v, Payload: pl})
		}
		in, err := rt.Route(p, out, maxPayload)
		if err != nil {
			return err
		}
		if len(in) != len(nbrs) {
			return fmt.Errorf("routing: node %d received %d messages, want %d", me, len(in), len(nbrs))
		}
		var sb strings.Builder
		for _, m := range in {
			if !g.HasEdge(m.Src, me) {
				return fmt.Errorf("routing: node %d got message from non-neighbor %d", me, m.Src)
			}
			src := m.Payload
			if leg.Faulty {
				if err := routing.DecodeFrame(&payload, m.Payload); err != nil {
					return fmt.Errorf("routing: node %d: frame from %d: %w", me, m.Src, err)
				}
				src = &payload
			}
			got, err := bits.NewReader(src).ReadUint(routePayloadBits)
			if err != nil {
				return err
			}
			if want := demandPayload(seed, m.Src, me, routePayloadBits); got != want {
				return fmt.Errorf("routing: node %d payload from %d = %#x, want %#x", me, m.Src, got, want)
			}
			fmt.Fprintf(&sb, "%d:%x;", m.Src, got)
		}
		p.SetOutput(sb.String())
		return nil
	})
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	for i, o := range res.Outputs {
		fmt.Fprintf(&sb, "[%d %s]", i, o.(string))
	}
	return &LegResult{Output: sb.String(), Stats: res.Stats}, nil
}

// edgeBitsCircuit builds the protocol circuit over the m = n(n-1)/2 edge
// bits of an n-vertex graph: a fan-in-4 XOR tree (edge parity), a
// majority threshold, and a MOD-3 counter — one output per gate family
// the bitsliced engine special-cases.
func edgeBitsCircuit(n int) (*circuit.Circuit, error) {
	m := n * (n - 1) / 2
	b := circuit.NewBuilder()
	ins := make([]int, m)
	for i := range ins {
		ins[i] = b.Input()
	}
	level := ins
	for len(level) > 1 {
		next := make([]int, 0, (len(level)+3)/4)
		for i := 0; i < len(level); i += 4 {
			end := i + 4
			if end > len(level) {
				end = len(level)
			}
			if end-i == 1 {
				next = append(next, level[i])
				continue
			}
			next = append(next, b.Gate(circuit.Xor, 0, level[i:end]...))
		}
		level = next
	}
	b.Output(level[0])
	b.Output(b.Gate(circuit.Threshold, m/2+1, ins...))
	b.Output(b.Gate(circuit.Mod, 3, ins...))
	return b.Build()
}

// edgeBits flattens g's upper triangle row-major into circuit inputs.
func edgeBits(g *graph.Graph) []bool {
	n := g.N()
	in := make([]bool, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			in = append(in, g.HasEdge(u, v))
		}
	}
	return in
}

// runCircuit evaluates the edge-bits circuit with the Theorem 2 clique
// simulation and cross-checks the simulated outputs against a local
// reference evaluation chosen by the leg: gate-at-a-time EvalScalar on
// the oracle leg, the dense compiled plan on the plain engine leg, and a
// replicated-lane EvalBatch pass on batch legs.
func runCircuit(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
	n := g.N()
	c, err := edgeBitsCircuit(n)
	if err != nil {
		return nil, err
	}
	input := edgeBits(g)
	run, err := circsim.EvalOnClique(leg.Env, c, n, bandwidth, input, nil, seed)
	if err != nil {
		return nil, err
	}
	var want []bool
	switch {
	case leg.Oracle:
		want, err = c.EvalScalar(input)
	case leg.Batch:
		var out []uint64
		out, err = c.EvalBatch(circuit.ReplicateLanes(input))
		if err == nil {
			want = make([]bool, len(out))
			for i, w := range out {
				want[i] = w&1 != 0
			}
		}
	default:
		want, err = c.Eval(input)
	}
	if err != nil {
		return nil, err
	}
	if len(want) != len(run.Output) {
		return nil, fmt.Errorf("circuit: %d simulated outputs vs %d local", len(run.Output), len(want))
	}
	digest := make([]byte, len(run.Output))
	for i, v := range run.Output {
		if v != want[i] {
			return nil, fmt.Errorf("circuit: output %d: simulated %v, local reference %v", i, v, want[i])
		}
		digest[i] = '0'
		if v {
			digest[i] = '1'
		}
	}
	return &LegResult{
		Output: fmt.Sprintf("out=%s depth=%d sep=%d", digest, run.Plan.Depth(), run.Plan.SeparabilityWidth()),
		Stats:  run.Stats,
	}, nil
}

// runReconstruct reconstructs g with k = degeneracy(G) (the tight Becker
// et al. parameter) and requires the reconstruction to equal g exactly.
func runReconstruct(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
	k := g.Degeneracy()
	if k < 1 {
		k = 1
	}
	res, err := subgraph.Reconstruct(leg.Env, g, k, bandwidth, seed)
	if err != nil {
		return nil, err
	}
	if !res.OK {
		return nil, fmt.Errorf("reconstruct: failed at k=degeneracy=%d", k)
	}
	if !res.G.Equal(g) {
		return nil, fmt.Errorf("reconstruct: graph mismatch at k=%d", k)
	}
	return &LegResult{
		Output: fmt.Sprintf("ok=%v k=%d m=%d msgbits=%d", res.OK, k, res.G.M(), res.MsgBits),
		Stats:  res.Stats,
	}, nil
}
