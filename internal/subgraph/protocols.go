package subgraph

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/turan"
)

// RunA executes one invocation of algorithm A(G', k) as a sub-protocol on
// the broadcast clique: neighbors is this node's adjacency list in G'
// (which may be a sampled subgraph of the input). It returns the
// reconstructed graph on success, or ok=false when degeneracy(G') > k.
// All nodes must call RunA in the same round with the same k; all nodes
// receive identical outcomes.
func RunA(p *core.Proc, neighbors []int, n, k int) (*graph.Graph, bool, error) {
	if k > n-1 {
		k = n - 1 // every n-vertex graph is (n-1)-degenerate
	}
	if k < 1 {
		k = 1
	}
	prime := fieldFor(n)
	degW := bits.UintWidth(uint64(n - 1))
	sumW := bits.UintWidth(prime - 1)

	ann := Announce(neighbors, k, prime)
	payload := bits.New(degW + k*sumW)
	payload.WriteUint(uint64(ann.Degree), degW)
	for _, s := range ann.Sums {
		payload.WriteUint(s, sumW)
	}
	rounds := core.ChunkRounds(degW+k*sumW, p.Bandwidth())
	all, err := core.ExchangeBroadcasts(p, payload, rounds)
	if err != nil {
		return nil, false, err
	}
	anns := make([]Announcement, n)
	for v, buf := range all {
		r := bits.NewReader(buf)
		d, err := r.ReadUint(degW)
		if err != nil {
			return nil, false, fmt.Errorf("subgraph: bad announcement from %d: %w", v, err)
		}
		sums := make([]uint64, k)
		for j := range sums {
			sums[j], err = r.ReadUint(sumW)
			if err != nil {
				return nil, false, fmt.Errorf("subgraph: short announcement from %d: %w", v, err)
			}
		}
		anns[v] = Announcement{Degree: int(d), Sums: sums}
	}
	g, ok := Decode(anns, k, prime)
	return g, ok, nil
}

// ReconstructResult reports one standalone reconstruction run.
type ReconstructResult struct {
	OK      bool
	G       *graph.Graph
	Stats   core.Stats
	MsgBits int // broadcast size per node, O(k log n)
}

// Reconstruct runs algorithm A(G,k) standalone on CLIQUE-BCAST(n,b).
func Reconstruct(env core.Env, g *graph.Graph, k, bandwidth int, seed int64) (*ReconstructResult, error) {
	n := g.N()
	views := graph.Distribute(g)
	cfg := core.Config{N: n, Bandwidth: bandwidth, Model: core.Broadcast, Seed: seed, Env: env}
	res, err := core.RunProcs(cfg, func(p *core.Proc) error {
		recon, ok, err := RunA(p, views[p.ID()].Neighbors(), n, k)
		if err != nil {
			return err
		}
		p.SetOutput([2]interface{}{ok, recon})
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &ReconstructResult{Stats: res.Stats, MsgBits: MessageBits(n, min(max(k, 1), n-1))}
	first := res.Outputs[0].([2]interface{})
	out.OK = first[0].(bool)
	if out.OK {
		out.G = first[1].(*graph.Graph)
	}
	for i, o := range res.Outputs {
		pair := o.([2]interface{})
		if pair[0].(bool) != out.OK {
			return nil, fmt.Errorf("subgraph: node %d disagrees on success", i)
		}
		if out.OK && !pair[1].(*graph.Graph).Equal(out.G) {
			return nil, fmt.Errorf("subgraph: node %d reconstructed a different graph", i)
		}
	}
	return out, nil
}

// DetectResult reports one subgraph-detection run.
type DetectResult struct {
	Found         bool
	Witness       graph.Embedding // nil when found via the degeneracy argument
	Stats         core.Stats
	Guesses       int  // Theorem 9: number of A invocations
	KUsed         int  // degeneracy parameter that settled the answer
	Reconstructed bool // answer came from a full reconstruction of G
}

// DetectKnownTuran implements Theorem 7: H-subgraph detection on
// CLIQUE-BCAST(n,b) in O(ex(n,H)/n · log(n)/b) rounds, given a Turán
// family with a known ex(n,H) upper bound. If reconstruction with
// k = 4·ex(n,H)/n succeeds, the (common) reconstructed graph is searched
// directly; if it fails, Claim 6 already certifies that G contains H.
func DetectKnownTuran(env core.Env, g *graph.Graph, fam turan.Family, bandwidth int, seed int64) (*DetectResult, error) {
	return DetectKnownTuranCut(env, g, fam, bandwidth, seed, nil)
}

// DetectKnownTuranCut is DetectKnownTuran with optional cut accounting:
// when cutSide is non-nil, Stats.CutBits reports the communication
// crossing the (Alice, Bob) partition — the quantity the Lemma 13
// reduction converts into a set-disjointness transcript.
func DetectKnownTuranCut(env core.Env, g *graph.Graph, fam turan.Family, bandwidth int, seed int64, cutSide []bool) (*DetectResult, error) {
	n := g.N()
	k := fam.DegeneracyBound(n)
	views := graph.Distribute(g)
	cfg := core.Config{N: n, Bandwidth: bandwidth, Model: core.Broadcast, Seed: seed, CutSide: cutSide, Env: env}
	res, err := core.RunProcs(cfg, func(p *core.Proc) error {
		recon, ok, err := RunA(p, views[p.ID()].Neighbors(), n, k)
		if err != nil {
			return err
		}
		if !ok {
			// Degeneracy exceeds 4·ex(n,H)/n: by Claim 6, G contains H.
			p.SetOutput(outcome{found: true})
			return nil
		}
		emb, found := graph.FindSubgraphIso(recon, fam.H)
		p.SetOutput(outcome{found: found, witness: emb, recon: true})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return gatherDetect(res, k, 1)
}

type outcome struct {
	found   bool
	witness graph.Embedding
	recon   bool
}

func gatherDetect(res *core.Result, k, guesses int) (*DetectResult, error) {
	first := res.Outputs[0].(outcome)
	for i, o := range res.Outputs {
		oc := o.(outcome)
		if oc.found != first.found {
			return nil, fmt.Errorf("subgraph: node %d disagrees on detection", i)
		}
	}
	return &DetectResult{
		Found:         first.found,
		Witness:       first.witness,
		Stats:         res.Stats,
		Guesses:       guesses,
		KUsed:         k,
		Reconstructed: first.recon,
	}, nil
}

// DetectAdaptive implements Theorem 9: H-subgraph detection without
// knowing ex(n,H). Every node draws X_v uniform in {0..N-1} (N the largest
// power of two ≤ n) and broadcasts it; G_j keeps the edges with
// X_u ≡ X_v (mod 2^j). Degeneracy guesses k_i = 2^i grow until either
// some successfully reconstructed G_j exhibits a copy of H (w.h.p. found
// when G contains H, by Lemma 8 + Claim 6), or G_0 = G itself is
// reconstructed and settles the answer exactly.
func DetectAdaptive(env core.Env, g, h *graph.Graph, bandwidth int, seed int64) (*DetectResult, error) {
	n := g.N()
	views := graph.Distribute(g)
	ell := 0
	for 1<<(ell+1) <= n {
		ell++
	}
	bigN := 1 << ell
	xw := bits.UintWidth(uint64(bigN - 1))

	cfg := core.Config{N: n, Bandwidth: bandwidth, Model: core.Broadcast, Seed: seed, Env: env}
	res, err := core.RunProcs(cfg, func(p *core.Proc) error {
		// Phase 1: broadcast X_v.
		x := uint64(p.Rand().Intn(bigN))
		payload := bits.New(xw)
		payload.WriteUint(x, xw)
		all, err := core.ExchangeBroadcasts(p, payload, core.ChunkRounds(xw, p.Bandwidth()))
		if err != nil {
			return err
		}
		xs := make([]uint64, n)
		for v, buf := range all {
			xs[v], err = bits.NewReader(buf).ReadUint(xw)
			if err != nil {
				return fmt.Errorf("subgraph: bad X from %d: %w", v, err)
			}
		}
		// Sampled neighbor lists: E_j keeps {u,v} iff X_u ≡ X_v mod 2^j.
		neighborsIn := func(j int) []int {
			var out []int
			mask := uint64(1)<<uint(j) - 1
			for _, u := range views[p.ID()].Neighbors() {
				if xs[u]&mask == xs[p.ID()]&mask {
					out = append(out, u)
				}
			}
			return out
		}
		guesses := 0
		for i := 1; ; i++ {
			ki := 1 << i
			for j := 0; j <= ell; j++ {
				recon, ok, err := RunA(p, neighborsIn(j), n, ki)
				if err != nil {
					return err
				}
				guesses++
				if !ok {
					continue
				}
				if emb, found := graph.FindSubgraphIso(recon, h); found {
					p.SetOutput(adaptiveOutcome{outcome{true, emb, j == 0}, guesses, ki})
					return nil
				}
				if j == 0 {
					// The whole graph is known and H-free: exact "no".
					p.SetOutput(adaptiveOutcome{outcome{false, nil, true}, guesses, ki})
					return nil
				}
				// A subsampled G_j is H-free — not conclusive; keep going
				// (pseudocode repair, DESIGN.md §4.4).
			}
			if ki >= n {
				return fmt.Errorf("subgraph: adaptive loop failed to settle (impossible: A(G,n-1) always succeeds)")
			}
		}
	})
	if err != nil {
		return nil, err
	}
	first := res.Outputs[0].(adaptiveOutcome)
	for i, o := range res.Outputs {
		oc := o.(adaptiveOutcome)
		if oc.found != first.found {
			return nil, fmt.Errorf("subgraph: node %d disagrees on detection", i)
		}
	}
	return &DetectResult{
		Found:         first.found,
		Witness:       first.witness,
		Stats:         res.Stats,
		Guesses:       first.guesses,
		KUsed:         first.k,
		Reconstructed: first.recon,
	}, nil
}

type adaptiveOutcome struct {
	outcome
	guesses int
	k       int
}
