package core

import (
	"reflect"
	"testing"

	"repro/internal/bits"
	"repro/internal/graph"
)

// The engine contract: for any fixed Config.Seed, Outputs and Stats are
// bit-identical whatever Env.Parallelism is. These tests run
// representative protocols under the sequential oracle (Parallelism=1)
// and several worker-pool widths and require deep equality.

// gossipEquivBody is a unicast protocol with staggered halting: node i
// runs a fixed schedule of 4+i%7 rounds, sending to pseudorandom
// destinations and XOR-folding its inbox, so the live-list compaction and
// late-round delivery paths are all exercised. With reuse, every node
// builds its messages in one reused buffer instead of a bits.New per
// message; payloads and schedule are identical, so the two variants'
// Results must be bit-identical under every parallelism setting.
func gossipEquivBody(reuse bool) func(*Proc) error {
	return func(p *Proc) error {
		var acc uint64
		var reused bits.Buffer
		err := p.Rounds(4+p.ID()%7, func(r int) error {
			for k := 0; k < 3; k++ {
				dst := p.Rand().Intn(p.N())
				if dst == p.ID() || p.sentTo(dst) {
					continue
				}
				m := &reused
				if reuse {
					m.Reset()
				} else {
					m = bits.New(24)
				}
				m.WriteUint(uint64(p.ID()*131071+r*8191+k)&0xFFFFFF, 24)
				if err := p.Send(dst, m); err != nil {
					return err
				}
			}
			return nil
		}, func(_ int, in []*bits.Buffer) error {
			for _, msg := range in {
				if msg == nil {
					continue
				}
				v, err := bits.NewReader(msg).ReadUint(24)
				if err != nil {
					return err
				}
				acc ^= v
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.SetOutput(acc)
		return nil
	}
}

func runGossipEquiv(t *testing.T, n, parallelism int) *Result {
	t.Helper()
	cfg := Config{N: n, Bandwidth: 24, Model: Unicast, Seed: 42, Env: Env{Parallelism: parallelism}}
	res, err := RunProcs(cfg, gossipEquivBody(false))
	if err != nil {
		t.Fatalf("parallelism %d: %v", parallelism, err)
	}
	return res
}

func requireIdentical(t *testing.T, oracle, got *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(oracle.Outputs, got.Outputs) {
		t.Errorf("%s: Outputs differ from sequential oracle\noracle: %v\ngot:    %v",
			label, oracle.Outputs, got.Outputs)
	}
	if !reflect.DeepEqual(oracle.Stats, got.Stats) {
		t.Errorf("%s: Stats differ from sequential oracle\noracle: %+v\ngot:    %+v",
			label, oracle.Stats, got.Stats)
	}
}

func TestParallelGossipMatchesSequential(t *testing.T) {
	const n = 48
	oracle := runGossipEquiv(t, n, 1)
	for _, p := range []int{0, 2, 3, 8, 64} {
		requireIdentical(t, oracle, runGossipEquiv(t, n, p), "gossip")
	}
}

func TestParallelBroadcastMatchesSequential(t *testing.T) {
	// CLIQUE-BCAST via the Proc surface: every node broadcasts a digest of
	// what it heard, for a number of rounds that depends on its id.
	const n = 32
	run := func(parallelism int) *Result {
		cfg := Config{N: n, Bandwidth: 16, Model: Broadcast, Seed: 9, Env: Env{Parallelism: parallelism}}
		res, err := RunProcs(cfg, func(p *Proc) error {
			var acc uint64
			for r := 0; r <= p.ID()%5+2; r++ {
				m := bits.New(16)
				m.WriteUint((acc+uint64(p.ID())+uint64(r)*977)&0xFFFF, 16)
				if err := p.Broadcast(m); err != nil {
					return err
				}
				for src, msg := range p.Next() {
					if msg == nil {
						continue
					}
					v, err := bits.NewReader(msg).ReadUint(16)
					if err != nil {
						return err
					}
					acc += v * uint64(src+1)
				}
			}
			p.SetOutput(acc)
			return nil
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return res
	}
	oracle := run(1)
	for _, p := range []int{0, 2, 4, 32} {
		requireIdentical(t, oracle, run(p), "bcast")
	}
}

func TestParallelCongestCycleMatchesSequential(t *testing.T) {
	// CONGEST on a cycle: each node floods its id around the ring and
	// outputs the sum of everything seen, plus CutBits accounting.
	const n = 24
	topo := graph.Cycle(n)
	cut := make([]bool, n)
	for i := 0; i < n/2; i++ {
		cut[i] = true
	}
	run := func(parallelism int) *Result {
		cfg := Config{
			N: n, Bandwidth: 8, Model: Congest, Topology: topo,
			Seed: 5, CutSide: cut, Env: Env{Parallelism: parallelism},
		}
		res, err := RunProcs(cfg, func(p *Proc) error {
			sum := uint64(p.ID())
			for r := 0; r < n; r++ {
				m := bits.New(8)
				m.WriteUint(sum&0xFF, 8)
				if err := p.Broadcast(m); err != nil {
					return err
				}
				for src, msg := range p.Next() {
					if msg == nil {
						continue
					}
					v, err := bits.NewReader(msg).ReadUint(8)
					if err != nil {
						return err
					}
					sum += v<<1 + uint64(src)
				}
			}
			p.SetOutput(sum)
			return nil
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		return res
	}
	oracle := run(1)
	for _, p := range []int{0, 2, 5} {
		requireIdentical(t, oracle, run(p), "congest")
	}
}

// TestWorkerPoolRace drives the worker pool hard (many nodes, many
// rounds, forced parallelism) so `go test -race` exercises the concurrent
// stepping, frozen-view sharing and pool recycling paths.
func TestWorkerPoolRace(t *testing.T) {
	const n = 64
	cfg := Config{N: n, Bandwidth: 32, Model: Unicast, Seed: 3, Env: Env{Parallelism: 8}}
	res, err := RunProcs(cfg, gossipEquivBody(false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalBits == 0 {
		t.Fatal("no traffic")
	}
	// Also a body resumed at its barrier under forced parallelism: a
	// single-round ExchangeBroadcasts waits in Next, not in Rounds.
	cfg2 := Config{N: 32, Bandwidth: 32, Model: Unicast, Seed: 4, Env: Env{Parallelism: 8}}
	_, err = RunProcs(cfg2, func(p *Proc) error {
		payload := bits.New(64)
		payload.WriteUint(uint64(p.ID())*2654435761, 32)
		all, err := ExchangeBroadcasts(p, payload, ChunkRounds(payload.Len(), p.Bandwidth()))
		if err != nil {
			return err
		}
		var sum int
		for _, buf := range all {
			sum += buf.Len()
		}
		p.SetOutput(sum)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestZeroCopyIsolation pins the isolation of zero-copy delivery from the
// sender's buffer: recipients read the sender's sealed send buffer in
// place, and since Send/Broadcast copy into it, a sender reusing its own
// buffer after staging must not change what recipients observe.
func TestZeroCopyIsolation(t *testing.T) {
	const n = 4
	cfg := Config{N: n, Bandwidth: 8, Model: Unicast, Seed: 1, Env: Env{Parallelism: 2}}
	res, err := RunProcs(cfg, func(p *Proc) error {
		if p.ID() == 0 {
			m := bits.New(8)
			m.WriteUint(0x2A, 8)
			if err := p.Broadcast(m); err != nil {
				return err
			}
			m.Reset()
			m.WriteUint(0x00, 8) // reuse after staging
			p.Next()
			return nil
		}
		in := p.Next()
		v, err := bits.NewReader(in[0]).ReadUint(8)
		if err != nil {
			return err
		}
		p.SetOutput(v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if res.Outputs[i].(uint64) != 0x2A {
			t.Errorf("node %d observed %#x, want 0x2a", i, res.Outputs[i])
		}
	}
}

// TestReceivedBufferIsReadOnly pins the receiver-side contract: delivered
// buffers are their senders' sealed send buffers and writes to them
// panic.
func TestReceivedBufferIsReadOnly(t *testing.T) {
	cfg := Config{N: 2, Bandwidth: 8, Model: Unicast, Seed: 1, Env: Env{Parallelism: 1}}
	_, err := RunProcs(cfg, func(p *Proc) error {
		if p.ID() == 0 {
			m := bits.New(4)
			m.WriteUint(5, 4)
			if err := p.Send(1, m); err != nil {
				return err
			}
			p.Next()
			return nil
		}
		in := p.Next()
		defer func() {
			if recover() == nil {
				t.Error("write to received buffer did not panic")
			}
		}()
		in[0].WriteBit(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNegativeParallelismRejected(t *testing.T) {
	cfg := Config{N: 2, Bandwidth: 8, Model: Unicast, Env: Env{Parallelism: -1}}
	if _, err := RunProcs(cfg, gossipEquivBody(false)); err == nil {
		t.Fatal("Parallelism=-1 accepted, want ErrBadConfig")
	}
}
