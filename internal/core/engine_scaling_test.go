package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bits"
	"repro/internal/graph"
)

// Tests for the multicore scaling pass (DESIGN.md §13) and the message
// buffers Send copies into (§3): reused message buffers, the delay-fault
// Rounds accounting fix, late fault copies, and the engine's steady-state
// allocation behavior.

// TestReusedMessageBufferMatchesOracle pins the copy at Send against
// both oracles: the bits.New variant of the same protocol (a sender
// reusing its buffer must not leak into Results) and the sequential
// engine (parallelism must not either), including broadcasts, whose
// broadcast buffer is filed N-1 times per round and refilled every
// other round.
func TestReusedMessageBufferMatchesOracle(t *testing.T) {
	const n = 48
	oracle := runGossipEquiv(t, n, 1) // bits.New, sequential
	for _, p := range []int{1, 0, 2, 8, 64} {
		cfg := Config{N: n, Bandwidth: 24, Model: Unicast, Seed: 42, Env: Env{Parallelism: p}}
		res, err := RunProcs(cfg, gossipEquivBody(true))
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		requireIdentical(t, oracle, res, fmt.Sprintf("reused gossip p=%d", p))
	}

	// Broadcast fan-out: one broadcast buffer filed N-1 times per round.
	run := func(par int, reuse bool) *Result {
		cfg := Config{N: 16, Bandwidth: 16, Model: Unicast, Seed: 8, Env: Env{Parallelism: par}}
		res, err := RunProcs(cfg, func(p *Proc) error {
			var sum uint64
			var reused bits.Buffer
			err := p.Rounds(6, func(r int) error {
				m := &reused
				if reuse {
					m.Reset()
				} else {
					m = bits.New(16)
				}
				m.WriteUint((uint64(p.ID())*977+uint64(r))&0xFFFF, 16)
				return p.Broadcast(m)
			}, func(_ int, in []*bits.Buffer) error {
				var rd bits.Reader
				for _, msg := range in {
					if msg == nil {
						continue
					}
					rd.Reset(msg)
					v, err := rd.ReadUint(16)
					if err != nil {
						return err
					}
					sum += v
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.SetOutput(sum)
			return nil
		})
		if err != nil {
			t.Fatalf("bcast par=%d reuse=%v: %v", par, reuse, err)
		}
		return res
	}
	bcastOracle := run(1, false)
	for _, p := range []int{1, 0, 4} {
		requireIdentical(t, bcastOracle, run(p, true), fmt.Sprintf("reused bcast p=%d", p))
	}
}

// delayPlan delays the round-0 message on link 0->1 by `delay` rounds
// and leaves everything else alone.
type delayPlan struct{ delay int }

func (p delayPlan) OnMessage(round, src, dst, nbits int) FaultAction {
	if round == 0 && src == 0 && dst == 1 {
		return FaultAction{Delay: p.delay}
	}
	return FaultAction{}
}
func (delayPlan) CrashRound(int) int { return -1 }

// idlePlan is a fault plan that never acts: it puts a run on the
// engine's fault path (and arms the stall detector) on a clean channel.
type idlePlan struct{}

func (idlePlan) OnMessage(round, src, dst, nbits int) FaultAction { return FaultAction{} }
func (idlePlan) CrashRound(int) int                               { return -1 }

// lateCopyPlan delays every message sent in a round ≡ 0 (mod 4) by three
// rounds and duplicates every one sent in a round ≡ 1 (mod 4) three
// rounds late; the rest it delivers on time.
type lateCopyPlan struct{}

func (lateCopyPlan) OnMessage(round, src, dst, nbits int) FaultAction {
	switch round % 4 {
	case 0:
		return FaultAction{Delay: 3}
	case 1:
		return FaultAction{Duplicate: true, DupDelay: 3}
	}
	return FaultAction{}
}
func (lateCopyPlan) CrashRound(int) int { return -1 }

// TestLateCopiesKeepTheirBits pins the clone of a late copy in
// engine.file: node 0 sends its round number to node 1 every round from
// one reused buffer, and the engine refills node 0's send buffer two
// rounds after staging it, while lateCopyPlan holds delayed and
// duplicated copies for three. Every message node 1 reads must be one the
// plan delivers in that round: the previous round's on-time message, or
// a late copy that still carries the bits it was sent with.
func TestLateCopiesKeepTheirBits(t *testing.T) {
	const rounds = 24
	for _, par := range []int{1, 4} {
		var delayed, duplicated int // late copies node 1 read
		cfg := Config{N: 2, Bandwidth: 16, Model: Unicast, Seed: 1, Env: Env{Parallelism: par, Faults: func(int64) FaultInjector { return lateCopyPlan{} }}}
		res, err := RunProcs(cfg, func(p *Proc) error {
			if p.ID() == 0 {
				// Send every round, the last send in the round the
				// body returns.
				var m bits.Buffer
				send := func(r int) error {
					m.Reset()
					m.WriteUint(uint64(r), 16)
					return p.Send(1, &m)
				}
				if err := p.Rounds(rounds-1, send, nil); err != nil {
					return err
				}
				return send(rounds - 1)
			}
			return p.Rounds(rounds+4, nil, func(r int, in []*bits.Buffer) error {
				if in[0] == nil {
					return nil
				}
				v, err := bits.NewReader(in[0]).ReadUint(16)
				if err != nil {
					return err
				}
				sent, filed := int(v), r
				a := lateCopyPlan{}.OnMessage(sent, 0, 1, 16)
				switch {
				case a.Delay == 0 && sent == filed:
				case a.Delay > 0 && sent+a.Delay == filed:
					delayed++
				case a.Duplicate && sent+a.DupDelay == filed:
					duplicated++
				default:
					return fmt.Errorf("round %d read the bits sent in round %d, which the plan does not deliver then", p.Round(), sent)
				}
				return nil
			})
		})
		if err != nil {
			t.Fatalf("p=%d: %v", par, err)
		}
		t.Logf("p=%d: %d delayed and %d duplicated copies read; %+v", par, delayed, duplicated, *res.Faults)
		if delayed == 0 || duplicated == 0 {
			t.Errorf("p=%d: read %d delayed and %d duplicated copies, want some of each", par, delayed, duplicated)
		}
	}
}

// TestDelayOnlyRoundCounted pins the Stats.Rounds accounting fix: a
// round in which the only traffic is a fault-delayed message landing in
// an inbox counts as a communication round, and the counters agree
// between the sequential oracle and the worker pool.
func TestDelayOnlyRoundCounted(t *testing.T) {
	run := func(par int) *Result {
		cfg := Config{
			N: 2, Bandwidth: 8, Model: Unicast, Seed: 1,
			Env: Env{Parallelism: par, Faults: func(int64) FaultInjector { return delayPlan{delay: 3} }},
		}
		res, err := RunProcs(cfg, func(p *Proc) error {
			if p.ID() == 0 {
				// Node 0 sends once in round 0, idles, halts at round 5.
				m := bits.New(8)
				m.WriteUint(0xA5, 8)
				if err := p.Send(1, m); err != nil {
					return err
				}
				return p.Rounds(5, nil, nil)
			}
			// Node 1 halts once the delayed message arrives.
			for p.Round() < 8 {
				if in := p.Next(); in[0] != nil {
					v, err := bits.NewReader(in[0]).ReadUint(8)
					if err != nil {
						return err
					}
					p.SetOutput(v)
					return nil
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		return res
	}
	oracle := run(1)
	// Round 0 sends (counted), rounds 1-2 are silent, round 3 delivers the
	// delayed message (counted since the fix; it was missed before).
	if oracle.Stats.Rounds != 2 {
		t.Errorf("Rounds = %d, want 2 (send round + delayed-delivery round)", oracle.Stats.Rounds)
	}
	if oracle.Faults == nil || oracle.Faults.Delays != 1 {
		t.Errorf("Faults = %+v, want exactly 1 delay", oracle.Faults)
	}
	if got := oracle.Outputs[1]; got != uint64(0xA5) {
		t.Errorf("node 1 output = %v, want 0xA5", got)
	}
	for _, par := range []int{2, 8} {
		got := run(par)
		requireIdentical(t, oracle, got, fmt.Sprintf("delay-fault p=%d", par))
		if *got.Faults != *oracle.Faults {
			t.Errorf("p=%d: Faults %+v != oracle %+v", par, got.Faults, oracle.Faults)
		}
	}
}

// TestAllocRegressionEngine pins the send-buffer claim: once warm, the
// round loop allocates nothing per round, so total allocations are
// (nearly) independent of how many rounds a protocol runs. It covers both
// ways a body spends its rounds: inside Rounds, whose callbacks the engine
// runs without resuming the body (the "Run" case), and at Next, whose
// per-round coroutine switch must not allocate either, at the sequential
// width and under the worker pool, whose per-round dispatch reuses the
// step function bound once per run.
// Matches the CI alloc-regression pattern (-run AllocRegression).
func TestAllocRegressionEngine(t *testing.T) {
	const fanout = 4
	ring := graph.Cycle(64)
	cases := []struct {
		name string
		run  func(par, rounds int) error
	}{
		{"Run/N=32", func(par, rounds int) error {
			cfg := Config{N: 32, Bandwidth: 32, Model: Unicast, Seed: 7, Env: Env{Parallelism: par}}
			_, err := RunProcs(cfg, gossipBody(rounds, fanout))
			return err
		}},
		{"RunProcs/N=24", func(par, rounds int) error {
			cfg := Config{N: 24, Bandwidth: 32, Model: Unicast, Seed: 7, Env: Env{Parallelism: par}}
			_, err := RunProcs(cfg, procGossipBody(rounds, fanout))
			return err
		}},
		// A CONGEST Broadcast stages to the node's topology neighbors,
		// listed once per run rather than on every call.
		{"RunProcs/Congest/N=64", func(par, rounds int) error {
			cfg := Config{N: 64, Bandwidth: 32, Model: Congest, Topology: ring, Seed: 7, Env: Env{Parallelism: par}}
			_, err := RunProcs(cfg, procBroadcastBody(rounds))
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("p=%d", par), func(t *testing.T) {
					run := func(rounds int) func() {
						return func() {
							if err := tc.run(par, rounds); err != nil {
								t.Fatal(err)
							}
						}
					}
					short := testing.AllocsPerRun(5, run(10))
					long := testing.AllocsPerRun(5, run(50))
					perRound := (long - short) / 40
					t.Logf("allocs: 10 rounds %.0f, 50 rounds %.0f (%.2f/extra round)", short, long, perRound)
					// Steady state adds ~0 allocs/round; the slack covers
					// the occasional slice regrowth. One closure per round
					// (the step function) reads 1.00, buffers grown one per
					// new link 11-25, and anything per message (the
					// copy-on-write engine paid ~4 allocs per message) far
					// more.
					if perRound > 0.5 {
						t.Errorf("engine allocates %.2f/round in steady state, want ~0 (send-buffer regression)", perRound)
					}
				})
			}
		})
	}
}

// TestAllocRegressionBroadcast pins the cost of a unicast-model
// broadcast: a staged broadcast is one buffer whatever the fan-out, and
// the list of filled inbox slots is sized once per run, so a run in
// which every node broadcasts each round allocates per node, not per
// link. Staging a broadcast as N-1 per-link entries regrew each node's
// list of staged destinations, and the filled-slot list grew by append
// to N(N-1) entries in every run: 1,438 objects per N=64 run at
// Parallelism 1 against 1,166 without either.
func TestAllocRegressionBroadcast(t *testing.T) {
	const n, rounds, budget = 64, 10, 1300
	body := func(p *Proc) error {
		var m bits.Buffer
		return p.Rounds(rounds, func(r int) error {
			m.Reset()
			m.WriteUint(uint64(p.ID()*31+r), 16)
			return p.Broadcast(&m)
		}, nil)
	}
	for _, par := range []int{1, 4} {
		cfg := Config{N: n, Bandwidth: 16, Model: Unicast, Seed: 3, Env: Env{Parallelism: par}}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := RunProcs(cfg, body); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("p=%d: %.0f objects per N=%d run of %d rounds (budget %d)", par, allocs, n, rounds, budget)
		if allocs > budget {
			t.Errorf("p=%d: %.0f objects per run, budget %d (broadcast staged per link, or the filled-slot list regrown?)", par, allocs, budget)
		}
	}
}

// benchNsPerOp times one engine configuration via testing.Benchmark.
func benchNsPerOp(cfg Config, body func(*Proc) error) float64 {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunProcs(cfg, body); err != nil {
				b.Fatal(err)
			}
		}
	})
	return float64(r.NsPerOp())
}

// TestPar1OverheadVsSeq guards the par1-vs-seq fixed overhead:
// Parallelism=0 on a 1-CPU box ("par1") resolves to one worker, which
// must take the sequential oracle's inline stepping path, with no pool
// built. It runs the gossip shape through the default-resolution path
// (GOMAXPROCS pinned to 1) and the Parallelism=1 config, and requires
// the two to allocate exactly the same objects per run: a pool costs
// its workers and channels (a Parallelism=2 run of this shape
// allocates 4 objects more than seq). Object counts do not depend on
// load, so the check is exact where a wall-clock ratio of the two
// identical paths was not.
func TestPar1OverheadVsSeq(t *testing.T) {
	const n, rounds, fanout = 256, 20, 8
	body := gossipBody(rounds, fanout)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := func(parallelism int) float64 {
		cfg := Config{N: n, Bandwidth: 32, Model: Unicast, Seed: 7, Env: Env{Parallelism: parallelism}}
		return pooledAllocsPerRun(5, func() {
			if _, err := RunProcs(cfg, body); err != nil {
				t.Fatal(err)
			}
		})
	}
	seq, par1 := allocs(1), allocs(0)
	t.Logf("objects per run: seq %.0f, par1 %.0f", seq, par1)
	if par1 != seq {
		t.Errorf("par1 allocates %.0f objects per run against seq's %.0f: Parallelism=0 at one CPU left the inline stepping path", par1, seq)
	}
}

// TestParallelSpeedupMulticore requires real multicore speedup from the
// resident pool on the broadcast-fanout shape. Only meaningful with >= 4
// CPUs (the CI scaling job); skipped elsewhere.
func TestParallelSpeedupMulticore(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark guard; skipped in -short")
	}
	if runtime.GOMAXPROCS(0) < 4 || runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs, have GOMAXPROCS=%d NumCPU=%d", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	const n, rounds = 256, 10
	body := bcastBody(rounds)
	seqCfg := Config{N: n, Bandwidth: 32, Model: Unicast, Seed: 11, Env: Env{Parallelism: 1}}
	par4Cfg := seqCfg
	par4Cfg.Parallelism = 4
	var bestSpeedup float64
	for attempt := 0; attempt < 3; attempt++ {
		seq := benchNsPerOp(seqCfg, body)
		par := benchNsPerOp(par4Cfg, body)
		speedup := seq / par
		if speedup > bestSpeedup {
			bestSpeedup = speedup
		}
		t.Logf("attempt %d: seq %.2fms, par4 %.2fms, speedup %.2fx", attempt, seq/1e6, par/1e6, speedup)
		if bestSpeedup >= 1.3 {
			return
		}
	}
	t.Fatalf("par4 speedup %.2fx on broadcast fan-out, want >= 1.3x", bestSpeedup)
}
