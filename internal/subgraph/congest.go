package subgraph

import (
	"fmt"
	"sort"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/graph"
)

// DetectC4Congest detects 4-cycles in the CONGEST-UCAST model, where
// nodes communicate only over the edges of the input graph itself. Every
// node streams its (capped) neighbor list to each neighbor; a node v that
// knows N(u) and N(w) for two of its neighbors u, w detects the 4-cycle
// u–v–w–x whenever N(u) ∩ N(w) contains some x ∉ {v}. Every C4 is seen
// this way from each of its vertices.
//
// The full version of the paper asserts an O(√n·log n/b) CONGEST
// algorithm without giving the construction (see DESIGN.md §6). This
// implementation is exact (zero error) with per-edge traffic O(Δ_cap·log
// n) where Δ_cap = min(maxDegree, cap): with cap = 2⌈√n⌉ it matches the
// √n·log n/b budget and is complete on graphs of max degree ≤ cap; nodes
// of larger degree truncate their lists to the cap lowest-ID neighbors,
// which can miss 4-cycles through two truncated lists (the detector is
// then one-sided: a reported C4 is always real). Pass cap = 0 for the
// uncapped exact algorithm at O(Δ·log n/b) rounds.
func DetectC4Congest(env core.Env, g *graph.Graph, bandwidth, cap int, seed int64) (*DetectResult, error) {
	n := g.N()
	views := graph.Distribute(g)
	if cap <= 0 {
		cap = n
	}
	// Everyone must agree on the per-edge payload budget: degrees are not
	// global knowledge, but n is, and lists are capped at min(cap, n).
	idW := bits.UintWidth(uint64(n - 1))
	cntW := bits.UintWidth(uint64(n))
	maxLen := cap
	if maxLen > n {
		maxLen = n
	}
	rounds := core.ChunkRounds(cntW+maxLen*idW, bandwidth)

	cfg := core.Config{N: n, Bandwidth: bandwidth, Model: core.Congest, Topology: g, Seed: seed}
	res, err := core.RunProcs(env.Apply(cfg), func(p *core.Proc) error {
		me := p.ID()
		nbrs := views[me].Neighbors()
		send := nbrs
		if len(send) > cap {
			send = send[:cap] // lowest-ID truncation, deterministic
		}
		payload := bits.New(cntW + len(send)*idW)
		payload.WriteUint(uint64(len(send)), cntW)
		for _, u := range send {
			payload.WriteUint(uint64(u), idW)
		}
		got, err := core.ExchangeBroadcasts(p, payload, rounds)
		if err != nil {
			return err
		}
		// Decode neighbor lists.
		lists := make(map[int][]int, len(nbrs))
		for src, buf := range got {
			if buf == nil || src == me {
				continue
			}
			rd := bits.NewReader(buf)
			cnt, err := rd.ReadUint(cntW)
			if err != nil {
				return fmt.Errorf("subgraph: bad list header from %d: %w", src, err)
			}
			list := make([]int, cnt)
			for i := range list {
				v, err := rd.ReadUint(idW)
				if err != nil {
					return fmt.Errorf("subgraph: short list from %d: %w", src, err)
				}
				list[i] = int(v)
			}
			lists[src] = list
		}
		// Look for u, w ∈ N(me) with a common neighbor x ∉ {me}.
		found := false
		var witness graph.Embedding
	search:
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				u, w := nbrs[i], nbrs[j]
				lu, lw := lists[u], lists[w]
				if lu == nil || lw == nil {
					continue
				}
				common := intersectSorted(lu, lw)
				for _, x := range common {
					if x != me && x != u && x != w {
						found = true
						witness = graph.Embedding{u, me, w, x}
						break search
					}
				}
			}
		}
		p.SetOutput(outcome{found: found, witness: witness})
		return nil
	})
	if err != nil {
		return nil, err
	}
	// In CONGEST there is no cheap global agreement; report the OR of the
	// local verdicts (some node knows), as the model's detection problems
	// are stated.
	out := &DetectResult{Stats: res.Stats, KUsed: cap}
	for _, o := range res.Outputs {
		oc := o.(outcome)
		if oc.found {
			out.Found = true
			if out.Witness == nil {
				out.Witness = oc.witness
			}
		}
	}
	return out, nil
}

// intersectSorted intersects two ascending int slices.
func intersectSorted(a, b []int) []int {
	if !sort.IntsAreSorted(a) {
		sort.Ints(a)
	}
	if !sort.IntsAreSorted(b) {
		sort.Ints(b)
	}
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
