package routing

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/bits"
	"repro/internal/core"
)

// payloadFor builds a recognizable payload identifying (src, dst, k).
func payloadFor(src, dst, k, width int) *bits.Buffer {
	b := bits.New(3 * width)
	b.WriteUint(uint64(src), width)
	b.WriteUint(uint64(dst), width)
	b.WriteUint(uint64(k), width)
	return b
}

// runDemand routes `demand[src]` (lists of (dst,k) pairs) with the given
// router method and returns, per node, the sorted string forms of received
// messages.
func runDemand(t *testing.T, n, bandwidth int, demand [][][2]int, valiant bool) ([][]string, *core.Stats) {
	t.Helper()
	const width = 12
	rt := NewRouter(n)
	cfg := core.Config{N: n, Bandwidth: bandwidth, Model: core.Unicast, Seed: 5}
	res, err := core.RunProcs(cfg, func(p *core.Proc) error {
		var out []Msg
		for _, d := range demand[p.ID()] {
			out = append(out, Msg{
				Src:     p.ID(),
				Dst:     d[0],
				Payload: payloadFor(p.ID(), d[0], d[1], width),
			})
		}
		var (
			got []Msg
			err error
		)
		if valiant {
			got, err = rt.RouteValiant(p, out, 3*width)
		} else {
			got, err = rt.Route(p, out, 3*width)
		}
		if err != nil {
			return err
		}
		var lines []string
		for _, m := range got {
			r := bits.NewReader(m.Payload)
			src, _ := r.ReadUint(width)
			dst, _ := r.ReadUint(width)
			k, _ := r.ReadUint(width)
			if int(src) != m.Src || int(dst) != m.Dst || int(dst) != p.ID() {
				return fmt.Errorf("node %d got corrupted message src=%d/%d dst=%d/%d",
					p.ID(), src, m.Src, dst, m.Dst)
			}
			lines = append(lines, fmt.Sprintf("%d->%d#%d", src, dst, k))
		}
		sort.Strings(lines)
		p.SetOutput(lines)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	outs := make([][]string, n)
	for i, o := range res.Outputs {
		if o != nil {
			outs[i] = o.([]string)
		}
	}
	return outs, &res.Stats
}

// expect computes, per node, the sorted expected message strings.
func expect(n int, demand [][][2]int) [][]string {
	outs := make([][]string, n)
	for src := range demand {
		for _, d := range demand[src] {
			outs[d[0]] = append(outs[d[0]], fmt.Sprintf("%d->%d#%d", src, d[0], d[1]))
		}
	}
	for i := range outs {
		sort.Strings(outs[i])
	}
	return outs
}

func checkDelivery(t *testing.T, got, want [][]string) {
	t.Helper()
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("node %d received %d messages, want %d: %v vs %v",
				i, len(got[i]), len(want[i]), got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("node %d msg %d = %q, want %q", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestRoutePermutation(t *testing.T) {
	const n = 8
	demand := make([][][2]int, n)
	for i := 0; i < n; i++ {
		demand[i] = [][2]int{{(i + 1) % n, 0}}
	}
	got, stats := runDemand(t, n, 64, demand, false)
	checkDelivery(t, got, expect(n, demand))
	// 1 class -> 1 subround per phase, 1 chunk each, plus the barrier.
	if stats.Rounds > 3 {
		t.Errorf("permutation routing took %d rounds, want <= 3", stats.Rounds)
	}
}

func TestRouteAllToAll(t *testing.T) {
	const n = 10
	demand := make([][][2]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			demand[i] = append(demand[i], [2]int{j, i*n + j})
		}
	}
	got, stats := runDemand(t, n, 64, demand, false)
	checkDelivery(t, got, expect(n, demand))
	// C <= 2n-1 -> <= 2 subrounds/phase -> <= 4 data rounds + barrier.
	if stats.Rounds > 5 {
		t.Errorf("all-to-all routing took %d rounds, want <= 5", stats.Rounds)
	}
	if stats.MaxLinkBits > 64 {
		t.Errorf("link load %d exceeds bandwidth", stats.MaxLinkBits)
	}
}

func TestRouteHotspot(t *testing.T) {
	// Node 0 sends 3 messages to each node; node 1 receives from everyone.
	const n = 6
	demand := make([][][2]int, n)
	for j := 1; j < n; j++ {
		demand[0] = append(demand[0], [2]int{j, 100 + j}, [2]int{j, 200 + j}, [2]int{j, 300 + j})
	}
	for i := 2; i < n; i++ {
		demand[i] = append(demand[i], [2]int{1, 400 + i})
	}
	got, _ := runDemand(t, n, 64, demand, false)
	checkDelivery(t, got, expect(n, demand))
}

func TestRouteEmptyDemand(t *testing.T) {
	const n = 4
	demand := make([][][2]int, n)
	got, _ := runDemand(t, n, 32, demand, false)
	for i := range got {
		if len(got[i]) != 0 {
			t.Errorf("node %d received phantom messages %v", i, got[i])
		}
	}
}

func TestRouteSelfMessages(t *testing.T) {
	const n = 3
	demand := make([][][2]int, n)
	for i := 0; i < n; i++ {
		demand[i] = [][2]int{{i, 7}}
	}
	got, stats := runDemand(t, n, 32, demand, false)
	checkDelivery(t, got, expect(n, demand))
	if stats.TotalBits != 0 {
		t.Errorf("self messages used %d network bits", stats.TotalBits)
	}
}

func TestRouteNarrowBandwidthChunks(t *testing.T) {
	// Bandwidth smaller than one message forces chunking.
	const n = 5
	demand := make([][][2]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				demand[i] = append(demand[i], [2]int{j, i + j})
			}
		}
	}
	got, stats := runDemand(t, n, 7, demand, false)
	checkDelivery(t, got, expect(n, demand))
	if stats.MaxLinkBits > 7 {
		t.Errorf("link load %d exceeds bandwidth 7", stats.MaxLinkBits)
	}
}

func TestRouteValiantAllToAll(t *testing.T) {
	const n = 9
	demand := make([][][2]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				demand[i] = append(demand[i], [2]int{j, i*n + j})
			}
		}
	}
	got, stats := runDemand(t, n, 64, demand, true)
	checkDelivery(t, got, expect(n, demand))
	if stats.MaxLinkBits > 64 {
		t.Errorf("link load %d exceeds bandwidth", stats.MaxLinkBits)
	}
}

func TestRouteValiantRandomDemands(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 5; trial++ {
		n := 4 + rng.Intn(6)
		demand := make([][][2]int, n)
		for i := 0; i < n; i++ {
			for k := 0; k < rng.Intn(n); k++ {
				demand[i] = append(demand[i], [2]int{rng.Intn(n), k})
			}
		}
		got, _ := runDemand(t, n, 48, demand, true)
		checkDelivery(t, got, expect(n, demand))
	}
}

func TestRouteRandomDemandsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(8)
		demand := make([][][2]int, n)
		for i := 0; i < n; i++ {
			for k := 0; k < rng.Intn(2*n); k++ {
				demand[i] = append(demand[i], [2]int{rng.Intn(n), trial*100 + k})
			}
		}
		got, _ := runDemand(t, n, 40, demand, false)
		checkDelivery(t, got, expect(n, demand))
	}
}

func TestRouteSequentialEpochs(t *testing.T) {
	const n = 4
	rt := NewRouter(n)
	cfg := core.Config{N: n, Bandwidth: 64, Model: core.Unicast}
	res, err := core.RunProcs(cfg, func(p *core.Proc) error {
		total := 0
		for epoch := 0; epoch < 3; epoch++ {
			out := []Msg{{
				Src:     p.ID(),
				Dst:     (p.ID() + 1 + epoch) % n,
				Payload: payloadFor(p.ID(), (p.ID()+1+epoch)%n, epoch, 12),
			}}
			if out[0].Dst == p.ID() {
				out = nil
			}
			got, err := rt.Route(p, out, 36)
			if err != nil {
				return err
			}
			total += len(got)
		}
		p.SetOutput(total)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, o := range res.Outputs {
		sum += o.(int)
	}
	// Each epoch delivers one message per node except self-skips: epochs
	// where (i+1+epoch)%n == i never happen for epoch<3, n=4 except epoch=3.
	if sum != 3*n {
		t.Errorf("total delivered = %d, want %d", sum, 3*n)
	}
}

// TestRouteErrors runs every rejected submission through both routers
// (Router.check). An out-of-range destination must fail at the node that
// submitted it, in the submission round, before anything is relayed.
func TestRouteErrors(t *testing.T) {
	const n = 3
	ucast := core.Config{N: n, Bandwidth: 16, Model: core.Unicast}
	bcast := core.Config{N: n, Bandwidth: 16, Model: core.Broadcast}
	cases := []struct {
		name string
		cfg  core.Config
		out  func(id int) []Msg
		want error  // matched with errors.Is, when set
		text string // a substring of the run's error, when set
	}{
		{
			name: "wrong source", cfg: ucast, want: ErrWrongSource,
			out: func(id int) []Msg { return []Msg{{Src: (id + 1) % n, Dst: 0, Payload: bits.New(0)}} },
		},
		{
			name: "payload too long", cfg: ucast, want: ErrPayloadTooLong,
			out: func(id int) []Msg {
				long := bits.New(20)
				long.WriteUint(0, 20)
				return []Msg{{Src: id, Dst: 0, Payload: long}}
			},
		},
		{
			name: "broadcast model", cfg: bcast, want: ErrModel,
			out: func(int) []Msg { return nil },
		},
		{
			name: "destination out of range", cfg: ucast,
			text: "node 1 failed in round 0: routing: destination 3 out of range",
			out: func(id int) []Msg {
				if id != 1 {
					return nil
				}
				return []Msg{{Src: id, Dst: n, Payload: bits.New(0)}}
			},
		},
	}
	for _, c := range cases {
		for _, valiant := range []bool{false, true} {
			rt := NewRouter(n)
			_, err := core.RunProcs(c.cfg, func(p *core.Proc) error {
				route := rt.Route
				if valiant {
					route = rt.RouteValiant
				}
				_, err := route(p, c.out(p.ID()), 8)
				return err
			})
			if c.want != nil && !errors.Is(err, c.want) {
				t.Errorf("%s (valiant=%v): err = %v, want %v", c.name, valiant, err, c.want)
			}
			if c.text != "" && (err == nil || !strings.Contains(err.Error(), c.text)) {
				t.Errorf("%s (valiant=%v): err = %v, want it to contain %q", c.name, valiant, err, c.text)
			}
		}
	}
}

func TestGreedyColoringValidAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(10)
		e := &epoch{n: n}
		deg := make([]int, 2*n) // src degrees then dst degrees
		for i := 0; i < rng.Intn(4*n); i++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			if src == dst {
				continue
			}
			e.msgs = append(e.msgs, Msg{Src: src, Dst: dst, Payload: bits.New(0)})
			deg[src]++
			deg[n+dst]++
		}
		maxDeg := 1
		for _, d := range deg {
			if d > maxDeg {
				maxDeg = d
			}
		}
		e.computeSchedule()
		if e.classes > 2*maxDeg-1 {
			t.Errorf("coloring used %d classes, bound is %d", e.classes, 2*maxDeg-1)
		}
		type key struct{ who, class int }
		seen := make(map[key]bool)
		for i, m := range e.msgs {
			c := e.color[i]
			if c < 0 {
				continue
			}
			if seen[key{m.Src, c}] {
				t.Fatalf("source %d has two messages in class %d", m.Src, c)
			}
			if seen[key{n + m.Dst, c}] {
				t.Fatalf("dest %d has two messages in class %d", m.Dst, c)
			}
			seen[key{m.Src, c}] = true
			seen[key{n + m.Dst, c}] = true
		}
	}
}

func TestRouteConstantRoundsAcrossN(t *testing.T) {
	// The Lenzen guarantee: balanced demands route in O(1) rounds
	// independent of n. Verify the round count does not grow with n.
	var rounds []int
	for _, n := range []int{4, 8, 16, 32} {
		demand := make([][][2]int, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					demand[i] = append(demand[i], [2]int{j, 0})
				}
			}
		}
		_, stats := runDemand(t, n, 64, demand, false)
		rounds = append(rounds, stats.Rounds)
	}
	for i := 1; i < len(rounds); i++ {
		if rounds[i] > rounds[0]+1 {
			t.Errorf("rounds grew with n: %v", rounds)
		}
	}
}

// TestRouteResultContract pins the result rule both routers share: every
// received payload equals what its source submitted, is sealed (a write
// panics) and reads the same after an intervening exchange, until the
// node's next call; a self-addressed message returns the submitted
// buffer itself. Two epochs per router make the second call reuse the
// node's relay state, at Parallelism 1 and 4: pool workers run the
// exchanges' Rounds callbacks over that state, so CI repeats this test
// under the race detector.
func TestRouteResultContract(t *testing.T) {
	const n, width = 6, 12
	for _, valiant := range []bool{false, true} {
		for _, par := range []int{1, 4} {
			rt := NewRouter(n)
			cfg := core.Config{N: n, Bandwidth: 16, Model: core.Unicast, Seed: 9, Env: core.Env{Parallelism: par}}
			_, err := core.RunProcs(cfg, func(p *core.Proc) error {
				me := p.ID()
				route := rt.Route
				if valiant {
					route = rt.RouteValiant
				}
				for epoch := 0; epoch < 2; epoch++ {
					out := make([]Msg, n)
					for d := range out {
						out[d] = Msg{Src: me, Dst: d, Payload: payloadFor(me, d, epoch, width)}
					}
					got, err := route(p, out, 3*width)
					if err != nil {
						return err
					}
					if len(got) != n {
						return fmt.Errorf("node %d epoch %d: %d messages, want %d", me, epoch, len(got), n)
					}
					for _, m := range got {
						if !m.Payload.Equal(payloadFor(m.Src, me, epoch, width)) {
							return fmt.Errorf("node %d epoch %d: payload from %d differs from the submitted one", me, epoch, m.Src)
						}
						if m.Src == me {
							if m.Payload != out[me].Payload {
								return fmt.Errorf("node %d epoch %d: self-addressed payload is not the submitted buffer", me, epoch)
							}
						} else if !writePanics(m.Payload) {
							return fmt.Errorf("node %d epoch %d: payload from %d took a write", me, epoch, m.Src)
						}
					}
					// A three-round exchange reuses the buffers hop copied
					// the payloads out of; the results must not move.
					var own bits.Buffer
					own.WriteUint(uint64(me), 40)
					if _, err := core.ExchangeBroadcasts(p, &own, 3); err != nil {
						return err
					}
					for _, m := range got {
						if !m.Payload.Equal(payloadFor(m.Src, me, epoch, width)) {
							return fmt.Errorf("node %d epoch %d: payload from %d changed across an exchange", me, epoch, m.Src)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("valiant=%v p=%d: %v", valiant, par, err)
			}
		}
	}
}

// writePanics reports whether appending a bit to b panics.
func writePanics(b *bits.Buffer) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	b.WriteBit(1)
	return false
}
