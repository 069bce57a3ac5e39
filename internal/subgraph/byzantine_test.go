package subgraph

import (
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/graph"
)

// TestByzantineAnnouncerDetectedConsistently injects a lying node into
// the Becker et al. protocol: node 0 broadcasts random garbage instead of
// its true degree/power sums. Because every node decodes the same
// blackboard, all honest nodes must reach the same outcome — and with
// overwhelming probability that outcome is a detected failure rather than
// a silent wrong graph.
func TestByzantineAnnouncerDetectedConsistently(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	failures := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		g := graph.Gnp(20, 0.2, rng)
		k := g.Degeneracy()
		if k < 1 {
			k = 1
		}
		views := graph.Distribute(g)
		n := g.N()
		prime := fieldFor(n)
		degW := bits.UintWidth(uint64(n - 1))
		sumW := bits.UintWidth(prime - 1)
		lieSeed := rng.Int63()

		cfg := core.Config{N: n, Bandwidth: 16, Model: core.Broadcast, Seed: int64(trial)}
		res, err := core.RunProcs(cfg, func(p *core.Proc) error {
			var payload *bits.Buffer
			if p.ID() == 0 {
				// The liar: a syntactically valid but false announcement.
				lr := rand.New(rand.NewSource(lieSeed))
				payload = bits.New(degW + k*sumW)
				payload.WriteUint(uint64(lr.Intn(n)), degW)
				for j := 0; j < k; j++ {
					payload.WriteUint(lr.Uint64()%prime, sumW)
				}
			} else {
				ann := Announce(views[p.ID()].Neighbors(), k, prime)
				payload = bits.New(degW + k*sumW)
				payload.WriteUint(uint64(ann.Degree), degW)
				for _, s := range ann.Sums {
					payload.WriteUint(s, sumW)
				}
			}
			rounds := core.ChunkRounds(degW+k*sumW, p.Bandwidth())
			all, err := core.ExchangeBroadcasts(p, payload, rounds)
			if err != nil {
				return err
			}
			anns := make([]Announcement, n)
			for v, buf := range all {
				r := bits.NewReader(buf)
				d, err := r.ReadUint(degW)
				if err != nil {
					return err
				}
				sums := make([]uint64, k)
				for j := range sums {
					sums[j], err = r.ReadUint(sumW)
					if err != nil {
						return err
					}
				}
				anns[v] = Announcement{Degree: int(d), Sums: sums}
			}
			_, ok := Decode(anns, k, prime)
			p.SetOutput(ok)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		first := res.Outputs[0].(bool)
		for i, o := range res.Outputs {
			if o.(bool) != first {
				t.Fatalf("trial %d: node %d decoded outcome %v, node 0 %v — blackboard consistency broken",
					trial, i, o, first)
			}
		}
		if !first {
			failures++
		}
	}
	if failures < trials-1 {
		t.Errorf("garbage announcements went undetected in %d/%d trials", trials-failures, trials)
	}
}
