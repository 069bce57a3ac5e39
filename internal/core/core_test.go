package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bits"
	"repro/internal/graph"
)

func idMsg(id, n int) *bits.Buffer {
	b := bits.New(8)
	b.WriteUint(uint64(id), bits.UintWidth(uint64(n-1)))
	return b
}

func TestBroadcastAllToAll(t *testing.T) {
	const n = 8
	cfg := Config{N: n, Bandwidth: 8, Model: Broadcast}
	res, err := RunProcs(cfg, func(p *Proc) error {
		if err := p.Broadcast(idMsg(p.ID(), n)); err != nil {
			return err
		}
		in := p.Next()
		got := make([]int, 0, n-1)
		for src, msg := range in {
			if msg == nil {
				continue
			}
			v, err := bits.NewReader(msg).ReadUint(bits.UintWidth(n - 1))
			if err != nil {
				return err
			}
			if int(v) != src {
				t.Errorf("node %d: message from %d decodes to %d", p.ID(), src, v)
			}
			got = append(got, src)
		}
		p.SetOutput(len(got))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range res.Outputs {
		if out.(int) != n-1 {
			t.Errorf("node %d received %d broadcasts, want %d", i, out, n-1)
		}
	}
	if res.Stats.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.Stats.Rounds)
	}
	if res.Stats.TotalBits != int64(n*bits.UintWidth(n-1)) {
		t.Errorf("total bits = %d", res.Stats.TotalBits)
	}
}

func TestUnicastRingToken(t *testing.T) {
	const n, laps = 5, 3
	cfg := Config{N: n, Bandwidth: 8, Model: Unicast}
	res, err := RunProcs(cfg, func(p *Proc) error {
		hops := 0
		if p.ID() == 0 {
			msg := bits.New(8)
			msg.WriteUint(0, 8)
			if err := p.Send(1, msg); err != nil {
				return err
			}
			hops = 1
		}
		for {
			in := p.Next()
			prev := (p.ID() + n - 1) % n
			msg := in[prev]
			if msg == nil {
				if p.Round() >= laps*n {
					p.SetOutput(hops)
					return nil
				}
				continue
			}
			v, _ := bits.NewReader(msg).ReadUint(8)
			if int(v) >= laps*n-1 {
				p.SetOutput(hops)
				return nil
			}
			out := bits.New(8)
			out.WriteUint(v+1, 8)
			if err := p.Send((p.ID()+1)%n, out); err != nil {
				return err
			}
			hops++
			_ = hops
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The token is transmitted with values 0..laps*n-1, one hop per round.
	if res.Stats.Rounds != laps*n {
		t.Errorf("rounds = %d, want %d", res.Stats.Rounds, laps*n)
	}
}

func TestBandwidthEnforced(t *testing.T) {
	cfg := Config{N: 2, Bandwidth: 4, Model: Broadcast}
	_, err := RunProcs(cfg, func(p *Proc) error {
		msg := bits.New(5)
		msg.WriteUint(31, 5)
		return p.Broadcast(msg)
	})
	if !errors.Is(err, ErrBandwidth) {
		t.Errorf("err = %v, want ErrBandwidth", err)
	}
}

func TestNoUnicastInBroadcastModel(t *testing.T) {
	cfg := Config{N: 3, Bandwidth: 8, Model: Broadcast}
	_, err := RunProcs(cfg, func(p *Proc) error {
		return p.Send(1, idMsg(p.ID(), 3))
	})
	if !errors.Is(err, ErrBadModel) {
		t.Errorf("err = %v, want ErrBadModel", err)
	}
}

func TestCongestTopologyEnforced(t *testing.T) {
	topo := graph.Path(3) // 0-1-2
	cfg := Config{N: 3, Bandwidth: 8, Model: Congest, Topology: topo}
	_, err := RunProcs(cfg, func(p *Proc) error {
		if p.ID() == 0 {
			return p.Send(2, idMsg(0, 3)) // not a neighbor
		}
		return nil
	})
	if !errors.Is(err, ErrNotNeighbor) {
		t.Errorf("err = %v, want ErrNotNeighbor", err)
	}

	res, err := RunProcs(cfg, func(p *Proc) error {
		if p.ID() == 0 {
			if err := p.Send(1, idMsg(0, 3)); err != nil {
				return err
			}
		}
		if p.ID() == 1 {
			in := p.Next()
			p.SetOutput(in[0] != nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[1] != true {
		t.Error("neighbor message not delivered in CONGEST")
	}
}

func TestDoubleSendRejected(t *testing.T) {
	cfg := Config{N: 2, Bandwidth: 8, Model: Unicast}
	_, err := RunProcs(cfg, func(p *Proc) error {
		if p.ID() == 0 {
			if err := p.Send(1, idMsg(0, 2)); err != nil {
				return err
			}
			return p.Send(1, idMsg(0, 2))
		}
		return nil
	})
	if !errors.Is(err, ErrDoubleSend) {
		t.Errorf("err = %v, want ErrDoubleSend", err)
	}
}

// byteMsg is an 8-bit message carrying v.
func byteMsg(v uint64) *bits.Buffer {
	b := bits.New(8)
	b.WriteUint(v, 8)
	return b
}

// TestStagingRules pins what a node may stage in one round: one
// Broadcast or a set of Sends on distinct links. In UCAST and CONGEST
// any second message beside a Broadcast fails with ErrDoubleSend, and a
// body that ignores the rejection still delivers the first message, and
// only it, to its recipients.
func TestStagingRules(t *testing.T) {
	models := []Config{
		{N: 4, Bandwidth: 8, Model: Unicast},
		{N: 4, Bandwidth: 8, Model: Congest, Topology: graph.Cycle(4)},
	}
	type op func(p *Proc, msg *bits.Buffer) error
	bcast := func(p *Proc, msg *bits.Buffer) error { return p.Broadcast(msg) }
	send := func(p *Proc, msg *bits.Buffer) error { return p.Send(1, msg) }
	cases := []struct {
		name          string
		first, second op
		firstBcast    bool
	}{
		{"Broadcast-Send", bcast, send, true},
		{"Send-Broadcast", send, bcast, false},
		{"Broadcast-Broadcast", bcast, bcast, true},
	}
	for _, base := range models {
		for _, tc := range cases {
			for _, par := range []int{1, 4} {
				cfg := base
				cfg.Parallelism = par
				name := fmt.Sprintf("%v/%s/p=%d", cfg.Model, tc.name, par)
				var second error
				res, err := RunProcs(cfg, func(p *Proc) error {
					if p.ID() == 0 {
						if err := tc.first(p, byteMsg(0xA5)); err != nil {
							return err
						}
						second = tc.second(p, byteMsg(0x5A))
					}
					in := p.Next()
					if in[0] != nil {
						v, err := bits.NewReader(in[0]).ReadUint(8)
						if err != nil {
							return err
						}
						p.SetOutput(v)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !errors.Is(second, ErrDoubleSend) {
					t.Errorf("%s: second message err = %v, want ErrDoubleSend", name, second)
				}
				// Node 1 neighbors node 0 in both models; a Broadcast
				// also reaches node 3, and in UCAST node 2.
				want := map[int]bool{1: true}
				if tc.firstBcast {
					want[3] = true
					if cfg.Model == Unicast {
						want[2] = true
					}
				}
				for i := 1; i < cfg.N; i++ {
					got, ok := res.Outputs[i].(uint64)
					if want[i] != ok || ok && got != 0xA5 {
						t.Errorf("%s: node %d received %v, want the first message: %v", name, i, res.Outputs[i], want[i])
					}
				}
				if wantBits := int64(8 * len(want)); res.Stats.TotalBits != wantBits || res.Stats.Rounds != 1 {
					t.Errorf("%s: metered %d bits in %d rounds, want %d bits in 1", name, res.Stats.TotalBits, res.Stats.Rounds, wantBits)
				}
			}
		}
	}
}

// TestBroadcastWithoutRecipients pins the metering edges of a broadcast
// that reaches nobody: an isolated CONGEST node's and a UCAST broadcast
// at N = 1 meter nothing, while a BCAST broadcast at N = 1 is still one
// blackboard write. A second broadcast in the round fails in every case.
func TestBroadcastWithoutRecipients(t *testing.T) {
	isolated := graph.New(3)
	isolated.AddEdge(0, 1)
	cases := []struct {
		name                 string
		cfg                  Config
		node                 int
		wantBits, wantRounds int64
	}{
		{"congest-isolated", Config{N: 3, Bandwidth: 8, Model: Congest, Topology: isolated}, 2, 0, 0},
		{"ucast-N=1", Config{N: 1, Bandwidth: 8, Model: Unicast}, 0, 0, 0},
		{"bcast-N=1", Config{N: 1, Bandwidth: 8, Model: Broadcast}, 0, 8, 1},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 4} {
			cfg := tc.cfg
			cfg.Parallelism = par
			var second error
			res, err := RunProcs(cfg, func(p *Proc) error {
				if p.ID() == tc.node {
					if err := p.Broadcast(byteMsg(1)); err != nil {
						return err
					}
					second = p.Broadcast(byteMsg(2))
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s/p=%d: %v", tc.name, par, err)
			}
			if res.Stats.TotalBits != tc.wantBits || int64(res.Stats.Rounds) != tc.wantRounds {
				t.Errorf("%s/p=%d: metered %d bits in %d rounds, want %d in %d",
					tc.name, par, res.Stats.TotalBits, res.Stats.Rounds, tc.wantBits, tc.wantRounds)
			}
			if !errors.Is(second, ErrDoubleSend) {
				t.Errorf("%s/p=%d: second broadcast err = %v, want ErrDoubleSend", tc.name, par, second)
			}
		}
	}
}

func TestSelfAndRangeChecks(t *testing.T) {
	cfg := Config{N: 2, Bandwidth: 8, Model: Unicast}
	_, err := RunProcs(cfg, func(p *Proc) error {
		return p.Send(p.ID(), idMsg(0, 2))
	})
	if !errors.Is(err, ErrSelfMessage) {
		t.Errorf("self send err = %v", err)
	}
	_, err = RunProcs(cfg, func(p *Proc) error {
		return p.Send(99, idMsg(0, 2))
	})
	if !errors.Is(err, ErrUnknownNode) {
		t.Errorf("range err = %v", err)
	}
}

func TestCutBitsUnicast(t *testing.T) {
	// Nodes 0,1 on side A; 2,3 on side B. Each A node sends 5 bits to each
	// B node and to its A partner; only A->B should count: 2*2*5 = 20.
	cfg := Config{
		N: 4, Bandwidth: 8, Model: Unicast,
		CutSide: []bool{true, true, false, false},
	}
	res, err := RunProcs(cfg, func(p *Proc) error {
		if p.ID() < 2 {
			msg := bits.New(5)
			msg.WriteUint(7, 5)
			for dst := 0; dst < 4; dst++ {
				if dst == p.ID() {
					continue
				}
				if err := p.Send(dst, msg); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CutBits != 20 {
		t.Errorf("CutBits = %d, want 20", res.Stats.CutBits)
	}
}

func TestCutBitsBroadcastCountsOnce(t *testing.T) {
	cfg := Config{
		N: 4, Bandwidth: 8, Model: Broadcast,
		CutSide: []bool{true, false, false, false},
	}
	res, err := RunProcs(cfg, func(p *Proc) error {
		msg := bits.New(3)
		msg.WriteUint(5, 3)
		return p.Broadcast(msg)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each of the 4 broadcasts crosses the cut exactly once on a blackboard.
	if res.Stats.CutBits != 12 {
		t.Errorf("CutBits = %d, want 12", res.Stats.CutBits)
	}
}

func TestMaxRoundsGuard(t *testing.T) {
	cfg := Config{N: 2, Bandwidth: 8, Model: Broadcast, MaxRounds: 10}
	_, err := RunProcs(cfg, func(p *Proc) error {
		for {
			p.Next() // never terminates
		}
	})
	if !errors.Is(err, ErrRoundLimit) {
		t.Errorf("err = %v, want ErrRoundLimit", err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []interface{} {
		cfg := Config{N: 6, Bandwidth: 16, Model: Broadcast, Seed: 99}
		res, err := RunProcs(cfg, func(p *Proc) error {
			v := p.Rand().Intn(1 << 10)
			msg := bits.New(10)
			msg.WriteUint(uint64(v), 10)
			if err := p.Broadcast(msg); err != nil {
				return err
			}
			in := p.Next()
			sum := uint64(v)
			for _, m := range in {
				if m != nil {
					x, _ := bits.NewReader(m).ReadUint(10)
					sum += x
				}
			}
			p.SetOutput(sum)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d output differs across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
	// All nodes agree on the sum.
	for i := 1; i < len(a); i++ {
		if a[i] != a[0] {
			t.Fatalf("nodes disagree on sum: %v", a)
		}
	}
}

func TestExchangeBroadcasts(t *testing.T) {
	const n = 5
	// Node i's payload is i+1 copies of its 4-bit ID -> lengths differ.
	payloadOf := func(id int) *bits.Buffer {
		b := bits.New(0)
		for k := 0; k <= id; k++ {
			b.WriteUint(uint64(id), 4)
		}
		return b
	}
	rounds := ChunkRounds(4*n, 3) // max payload 20 bits, b=3 -> 7 rounds
	cfg := Config{N: n, Bandwidth: 3, Model: Broadcast}
	res, err := RunProcs(cfg, func(p *Proc) error {
		got, err := ExchangeBroadcasts(p, payloadOf(p.ID()), rounds)
		if err != nil {
			return err
		}
		ok := true
		for src, buf := range got {
			if !buf.Equal(payloadOf(src)) {
				ok = false
			}
		}
		p.SetOutput(ok)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range res.Outputs {
		if out != true {
			t.Errorf("node %d failed to reassemble payloads", i)
		}
	}
	if res.Stats.Rounds != rounds {
		t.Errorf("rounds = %d, want %d", res.Stats.Rounds, rounds)
	}
	if res.Stats.MaxLinkBits > 3 {
		t.Errorf("MaxLinkBits = %d exceeds bandwidth", res.Stats.MaxLinkBits)
	}
}

// dropPlan drops every message on the links it names.
type dropPlan func(src, dst int) bool

func (d dropPlan) OnMessage(round, src, dst, nbits int) FaultAction {
	return FaultAction{Drop: d(src, dst)}
}
func (dropPlan) CrashRound(int) int { return -1 }

// TestAllReduce checks core.AllReduce's fold and its cost: every node
// returns the fold of all values, and each leg sends one width-bit value
// per link to or from node 0 in ChunkRounds(width, b) rounds, with b
// below and above width.
func TestAllReduce(t *testing.T) {
	ops := []struct {
		name  string
		width int
		op    func(acc, x uint64) uint64
		val   func(id int) uint64
	}{
		{"max", 32, func(acc, x uint64) uint64 { return max(acc, x) }, func(id int) uint64 { return uint64(1000 + id*37%11) }},
		{"or", 12, func(acc, x uint64) uint64 { return acc | x }, func(id int) uint64 { return 1 << (id % 12) }},
	}
	for _, o := range ops {
		for _, n := range []int{1, 2, 7} {
			want := o.val(0)
			for id := 1; id < n; id++ {
				want = o.op(want, o.val(id))
			}
			for _, b := range []int{5, 64} {
				for _, par := range []int{1, 4} {
					name := fmt.Sprintf("%s/N=%d/b=%d/p=%d", o.name, n, b, par)
					cfg := Config{N: n, Bandwidth: b, Model: Unicast, Env: Env{Parallelism: par}}
					res, err := RunProcs(cfg, func(p *Proc) error {
						v, err := AllReduce(p, o.val(p.ID()), o.width, o.op)
						p.SetOutput(v)
						return err
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for i, out := range res.Outputs {
						if out != want {
							t.Errorf("%s: node %d returned %v, want %d", name, i, out, want)
						}
					}
					wantRounds, wantBits := 0, int64(0)
					if n > 1 {
						wantRounds, wantBits = 2*ChunkRounds(o.width, b), int64(2*(n-1)*o.width)
					}
					if res.Stats.Rounds != wantRounds || res.Stats.TotalBits != wantBits {
						t.Errorf("%s: %d rounds, %d bits; want %d rounds, %d bits",
							name, res.Stats.Rounds, res.Stats.TotalBits, wantRounds, wantBits)
					}
				}
			}
		}
	}
}

// TestAllReduceUnderFaults pins AllReduce's two fault rules: node 0
// folds only the values that reached it, and a node the result never
// reaches fails.
func TestAllReduceUnderFaults(t *testing.T) {
	maxOp := func(acc, x uint64) uint64 { return max(acc, x) }
	for _, b := range []int{8, 64} {
		cfg := Config{N: 7, Bandwidth: b, Model: Unicast}
		cfg.Faults = func(int64) FaultInjector { return dropPlan(func(src, dst int) bool { return dst == 0 }) }
		res, err := RunProcs(cfg, func(p *Proc) error {
			v, err := AllReduce(p, uint64(p.ID()+10), 32, maxOp)
			p.SetOutput(v)
			return err
		})
		if err != nil {
			t.Fatalf("b=%d, nothing reaches node 0: %v", b, err)
		}
		for i, out := range res.Outputs {
			if out != uint64(10) {
				t.Errorf("b=%d, nothing reaches node 0: node %d returned %v, want node 0's own 10", b, i, out)
			}
		}

		cfg.Faults = func(int64) FaultInjector { return dropPlan(func(src, dst int) bool { return src == 0 && dst == 3 }) }
		_, err = RunProcs(cfg, func(p *Proc) error {
			_, err := AllReduce(p, uint64(p.ID()), 32, maxOp)
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "node 3 missed the AllReduce result") {
			t.Errorf("b=%d, result dropped to node 3: err = %v, want node 3 to fail", b, err)
		}
	}
}

// TestExchangeUnicastRejectsOversizedPayload pins ExchangeUnicast's size
// check: a payload longer than rounds*b fails the call before anything is
// staged, as in ExchangeBroadcasts, instead of arriving cut to its first
// rounds*b bits.
func TestExchangeUnicastRejectsOversizedPayload(t *testing.T) {
	cfg := Config{N: 3, Bandwidth: 8, Model: Unicast}
	res, err := RunProcs(cfg, func(p *Proc) error {
		perDst := make([]*bits.Buffer, p.N())
		if p.ID() == 0 {
			perDst[1] = bits.New(20)
			perDst[1].ZeroExtend(20)
		}
		got, err := ExchangeUnicast(p, perDst, 1)
		if err != nil {
			return err
		}
		p.SetOutput(got[0].Len())
		return nil
	})
	if err == nil {
		t.Fatalf("20-bit payload over 1 round of 8 bits accepted; node 1 received %v bits", res.Outputs[1])
	}
	if !strings.Contains(err.Error(), "node 0 failed in round 0: core: payload of 20 bits exceeds 1 rounds * 8 bits") {
		t.Errorf("err = %v, want node 0's payload rejected in round 0", err)
	}
}

func TestAdjacencyRowCodec(t *testing.T) {
	g := graph.Cycle(70) // spans two words
	views := graph.Distribute(g)
	for _, lv := range views {
		buf := EncodeAdjacencyRow(lv.Row(), g.N())
		row, err := DecodeAdjacencyRow(buf, g.N())
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range lv.Row() {
			if row[i] != w {
				t.Fatalf("row mismatch for node %d", lv.Me())
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 0, Bandwidth: 1, Model: Unicast},
		{N: 2, Bandwidth: 0, Model: Unicast},
		{N: 2, Bandwidth: 1, Model: Congest},
		{N: 2, Bandwidth: 1, Model: Model(42)},
		{N: 2, Bandwidth: 1, Model: Unicast, CutSide: []bool{true}},
	}
	for i, cfg := range bad {
		if _, err := RunProcs(cfg, func(p *Proc) error { return nil }); !errors.Is(err, ErrBadConfig) {
			t.Errorf("config %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

// TestEnvBuildsEachRun pins how a run gets its engine environment:
// RunProcs calls each factory once, with Config.Seed; a nil factory and
// a factory returning nil both mean a clean channel and an untraced run;
// and the trace header records the resolved pool width and whether a
// plan is active.
func TestEnvBuildsEachRun(t *testing.T) {
	const seed = 17
	run := func(env Env) (*Result, bool) {
		cfg := Config{N: 6, Bandwidth: 32, Model: Unicast, Seed: seed, Env: env}
		var traced bool
		res, err := RunProcs(cfg, func(p *Proc) error {
			if p.ID() == 0 {
				traced = p.Traced()
			}
			return gossipBody(3, 2)(p)
		})
		if err != nil {
			t.Fatalf("par=%d: %v", env.Parallelism, err)
		}
		return res, traced
	}
	for _, par := range []int{1, 4} {
		for _, faulty := range []bool{false, true} {
			var faultSeeds, sinkSeeds []int64
			s := &testSink{}
			res, traced := run(Env{
				Parallelism: par,
				Faults: func(seed int64) FaultInjector {
					faultSeeds = append(faultSeeds, seed)
					if faulty {
						return idlePlan{}
					}
					return nil
				},
				Sink: func(seed int64) Sink {
					sinkSeeds = append(sinkSeeds, seed)
					return s
				},
			})
			if len(faultSeeds) != 1 || faultSeeds[0] != seed || len(sinkSeeds) != 1 || sinkSeeds[0] != seed {
				t.Fatalf("par=%d faulty=%v: factories called with %v and %v, want [%d] each", par, faulty, faultSeeds, sinkSeeds, seed)
			}
			if (res.Faults != nil) != faulty || s.meta.Faulty != faulty {
				t.Errorf("par=%d faulty=%v: Result.Faults = %v, RunMeta.Faulty = %v", par, faulty, res.Faults, s.meta.Faulty)
			}
			if !traced || s.footer == nil {
				t.Errorf("par=%d faulty=%v: traced = %v, footer = %v, want a complete trace", par, faulty, traced, s.footer)
			}
			if s.meta.Parallelism != ResolveParallelism(par) || s.meta.Seed != seed {
				t.Errorf("par=%d: RunMeta = %+v, want Parallelism %d and Seed %d", par, s.meta, ResolveParallelism(par), seed)
			}
		}
		for name, env := range map[string]Env{
			"nil factories": {Parallelism: par},
			"nil results": {
				Parallelism: par,
				Faults:      func(int64) FaultInjector { return nil },
				Sink:        func(int64) Sink { return nil },
			},
		} {
			if res, traced := run(env); res.Faults != nil || traced {
				t.Errorf("par=%d %s: Result.Faults = %v, traced = %v, want a clean, untraced run", par, name, res.Faults, traced)
			}
		}
	}
}

func TestBroadcastSugarInUnicast(t *testing.T) {
	cfg := Config{N: 4, Bandwidth: 8, Model: Unicast}
	res, err := RunProcs(cfg, func(p *Proc) error {
		if p.ID() == 0 {
			if err := p.Broadcast(idMsg(0, 4)); err != nil {
				return err
			}
		}
		in := p.Next()
		p.SetOutput(p.ID() == 0 || in[0] != nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range res.Outputs {
		if out != true {
			t.Errorf("node %d missed unicast-broadcast", i)
		}
	}
}
