package sketch

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// BroadcastBoruvka is the non-sketch Borůvka baseline E16 ablates the
// sketch protocols against: in every phase each player broadcasts its
// raw n-bit adjacency row (chunked at the bandwidth), every player
// reassembles the full graph, and components merge along their
// minimum-id outgoing edges. The baseline models memory-bounded players
// that keep only the component labeling between phases — without a
// linear sketch there is no compact mergeable summary of a component's
// incidence, so the raw rows cross the wire again each phase. Per phase
// it moves n·(n-1)·n bits where the sketch ladder moves O(n · polylog n);
// E16 measures the rounds·bits gap.
func BroadcastBoruvka(env core.Env, g *graph.Graph, bandwidth int, seed int64) (*CCResult, error) {
	n := g.N()
	if n < 2 {
		return trivialCC(n), nil
	}
	rounds := core.ChunkRounds(n, bandwidth)
	cfg := core.Config{N: n, Bandwidth: bandwidth, Model: core.Unicast, Seed: seed}
	res, err := core.RunProcs(env.Apply(cfg), func(p *core.Proc) error {
		me := p.ID()
		comp := make([]int, n)
		for v := range comp {
			comp[v] = v
		}
		var forest [][2]int
		phases := 0
		for {
			phases++
			row := core.EncodeAdjacencyRow(g.AdjRow(me), n)
			got, err := core.ExchangeBroadcasts(p, row, rounds)
			if err != nil {
				return err
			}
			// Reassemble the graph and pick every component's minimum-id
			// outgoing edge — deterministic, so all players agree.
			adj := make([][]uint64, n)
			for v := 0; v < n; v++ {
				adj[v], err = core.DecodeAdjacencyRow(got[v], n)
				if err != nil {
					return fmt.Errorf("sketch: baseline row from %d: %w", v, err)
				}
			}
			best := map[int]uint64{}
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if adj[u][v/64]&(1<<uint(v%64)) == 0 || comp[u] == comp[v] {
						continue
					}
					id := EdgeID(n, u, v)
					for _, c := range [2]int{comp[u], comp[v]} {
						if b, ok := best[c]; !ok || id < b {
							best[c] = id
						}
					}
				}
			}
			if len(best) == 0 {
				break
			}
			// Merges go through the same random-mate gate as the sketch
			// ladder (mergeCoin): a tail component adopts its edge only
			// into a head, so both protocols contract on the same
			// Θ(log n) schedule and the ablation compares like with like.
			uf := &unionFind{parent: append([]int(nil), comp...)}
			merged := false
			firstProposer := -1
			for l := 0; l < n; l++ {
				if comp[l] != l {
					continue
				}
				id, ok := best[l]
				if !ok {
					continue
				}
				if firstProposer < 0 {
					firstProposer = l
				}
				u, v := EdgeEndpoints(n, id)
				target := comp[u]
				if target == l {
					target = comp[v]
				}
				if mergeCoin(seed, phases-1, l) || !mergeCoin(seed, phases-1, target) {
					continue
				}
				if uf.union(u, v) {
					merged = true
					forest = append(forest, [2]int{u, v})
				}
			}
			// Same progress fallback as the sketch ladder: an all-blocked
			// phase applies the lowest-id proposal unconditionally.
			if !merged && firstProposer >= 0 {
				u, v := EdgeEndpoints(n, best[firstProposer])
				if uf.union(u, v) {
					forest = append(forest, [2]int{u, v})
				}
			}
			for v := 0; v < n; v++ {
				comp[v] = uf.find(v)
			}
		}
		out := nodeOut{leader: comp[me], phases: phases, digest: ccDigest(comp, forest, nil)}
		if me == 0 {
			out.full = &ccFull{comp: comp, forest: forest}
		}
		p.SetOutput(out)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return assembleCC(n, res)
}
