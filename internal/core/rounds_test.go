package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/bits"
)

// Tests for Proc.Rounds, the engine-driven fixed schedule (DESIGN.md
// §16): it must be indistinguishable from the explicit Next loop it
// replaces — outputs, Stats, fault schedule, trace and error rounds —
// while its callbacks run on the goroutine that steps the node.

// roundsFunc is the shape of Proc.Rounds, so one body can run either
// implementation.
type roundsFunc func(p *Proc, rounds int, stage func(r int) error, recv func(r int, in []*bits.Buffer) error) error

// nextLoop is the explicit Next loop Proc.Rounds is specified to match.
func nextLoop(p *Proc, rounds int, stage func(r int) error, recv func(r int, in []*bits.Buffer) error) error {
	for r := 0; r < rounds; r++ {
		if stage != nil {
			if err := stage(r); err != nil {
				return err
			}
		}
		in := p.Next()
		if recv != nil {
			if err := recv(r, in); err != nil {
				return err
			}
		}
	}
	return nil
}

// hashFaultPlan drops, corrupts and delays a pseudorandom eighth of the
// messages each, and crash-stops node 5 at round 6.
type hashFaultPlan struct{}

func (hashFaultPlan) OnMessage(round, src, dst, nbits int) FaultAction {
	h := uint64(round+1)*0x9E3779B97F4A7C15 ^ uint64(src+1)*0xC2B2AE3D27D4EB4F ^ uint64(dst+1)*0x165667B19E3779F9
	h ^= h >> 29
	switch h % 8 {
	case 0:
		return FaultAction{Drop: true}
	case 1:
		return FaultAction{Corrupt: true, CorruptBit: int(h>>8) % 64}
	case 2:
		return FaultAction{Delay: 1 + int(h>>8)%3}
	}
	return FaultAction{}
}

func (hashFaultPlan) CrashRound(id int) int {
	if id == 5 {
		return 6
	}
	return -1
}

// scheduleBody runs a sequence of fixed schedules through `run`, with a
// data-dependent Next between them so nodes enter and leave their
// schedules in different steps. Schedules of length 0 and 1, nil
// callbacks and per-node lengths are all covered. Stage sends messages
// built in one reused buffer (a broadcast in the Broadcast model, two
// unicasts otherwise) and stamps a trace mark; recv folds every delivery
// into the output.
func scheduleBody(run roundsFunc) func(*Proc) error {
	return func(p *Proc) error {
		h := uint64(p.ID()) + 1
		var m bits.Buffer
		recv := func(r int, in []*bits.Buffer) error {
			for src, msg := range in {
				if msg == nil {
					continue
				}
				v, err := bits.NewReader(msg).ReadUint(min(msg.Len(), 16))
				if err != nil {
					return err
				}
				h = h*1099511628211 ^ (v | uint64(src)<<16 | uint64(r)<<32)
			}
			return nil
		}
		for phase, rounds := range []int{3, 0, 1, 4 + p.ID()%3, 2, 5} {
			stage := func(r int) error {
				if r == 0 {
					p.Annotatef("phase %d", phase)
				}
				if p.Model() == Broadcast {
					m.Reset()
					m.WriteUint((h^uint64(r))&0xFFFF, 16)
					return p.Broadcast(&m)
				}
				for k := 1; k <= 2; k++ {
					m.Reset()
					m.WriteUint((h+uint64(k*r))&0xFFFF, 16)
					if err := p.Send((p.ID()+k+r)%p.N(), &m); err != nil {
						return err
					}
				}
				return nil
			}
			st, rc := stage, recv
			switch phase {
			case 2:
				st = nil
			case 4:
				rc = nil
			}
			if err := run(p, rounds, st, rc); err != nil {
				return err
			}
			if h&1 == 1 {
				if err := recv(-1, p.Next()); err != nil {
					return err
				}
			}
		}
		p.SetOutput(h)
		return nil
	}
}

// TestProcRoundsMatchesNextLoop is Rounds' equivalence contract: the same
// body run through the explicit Next loop and through Rounds gives
// identical outputs, Stats, fault counts and deterministic trace fields,
// at Parallelism 1 and 4, in both clique models, on a clean channel and
// under a plan that drops, corrupts, delays and crashes.
func TestProcRoundsMatchesNextLoop(t *testing.T) {
	const n = 12
	for _, model := range []Model{Unicast, Broadcast} {
		for _, faulty := range []bool{false, true} {
			run := func(impl roundsFunc, par int) (*Result, *testSink) {
				s := &testSink{}
				cfg := Config{N: n, Bandwidth: 16, Model: model, Seed: 11, Parallelism: par, Sink: s}
				if faulty {
					cfg.FaultPlan = hashFaultPlan{}
				}
				res, err := RunProcs(cfg, scheduleBody(impl))
				if err != nil {
					t.Fatalf("%v faulty=%v p=%d: %v", model, faulty, par, err)
				}
				return res, s
			}
			oracle, oracleTrace := run(nextLoop, 1)
			if faulty && (oracle.Faults.Drops == 0 || oracle.Faults.Corruptions == 0 || oracle.Faults.Delays == 0 || oracle.Faults.Crashes != 1) {
				t.Fatalf("%v: fault plan too gentle: %+v", model, oracle.Faults)
			}
			for _, c := range []struct {
				name string
				impl roundsFunc
				par  int
			}{{"loop/p=4", nextLoop, 4}, {"rounds/p=1", (*Proc).Rounds, 1}, {"rounds/p=4", (*Proc).Rounds, 4}} {
				label := fmt.Sprintf("%v faulty=%v %s", model, faulty, c.name)
				res, trace := run(c.impl, c.par)
				requireIdentical(t, oracle, res, label)
				if !reflect.DeepEqual(oracle.Faults, res.Faults) {
					t.Errorf("%s: Faults %+v, loop %+v", label, res.Faults, oracle.Faults)
				}
				if !reflect.DeepEqual(scrubRounds(oracleTrace.rounds), scrubRounds(trace.rounds)) {
					t.Errorf("%s: deterministic trace fields differ from the Next loop's", label)
				}
			}
		}
	}
}

// failingBody runs four warm-up rounds, then a 4-round schedule through
// `run` in which node 3's stage (or recv) fails in round k.
func failingBody(run roundsFunc, inRecv bool, k int) func(*Proc) error {
	return func(p *Proc) error {
		for i := 0; i < 4; i++ {
			p.Next()
		}
		fail := func(r int) error {
			if p.ID() == 3 && r == k {
				return fmt.Errorf("boom in round %d of the schedule", r)
			}
			return nil
		}
		var m bits.Buffer
		stage := func(r int) error {
			m.Reset()
			m.WriteUint(uint64(r), 8)
			if err := p.Broadcast(&m); err != nil {
				return err
			}
			if !inRecv {
				return fail(r)
			}
			return nil
		}
		recv := func(r int, _ []*bits.Buffer) error {
			if inRecv {
				return fail(r)
			}
			return nil
		}
		return run(p, 4, stage, recv)
	}
}

// TestProcRoundsErrorRound pins error timing: a callback that fails in the
// k-th round of a schedule fails the node in the same engine round, with
// the same error, as the explicit Next loop.
func TestProcRoundsErrorRound(t *testing.T) {
	for _, inRecv := range []bool{false, true} {
		for _, k := range []int{0, 1, 3} {
			for _, par := range []int{1, 4} {
				cfg := Config{N: 6, Bandwidth: 8, Model: Unicast, Seed: 2, Parallelism: par}
				_, want := RunProcs(cfg, failingBody(nextLoop, inRecv, k))
				_, got := RunProcs(cfg, failingBody((*Proc).Rounds, inRecv, k))
				if want == nil || got == nil || got.Error() != want.Error() {
					t.Errorf("recv=%v k=%d p=%d: Rounds error %v, loop error %v", inRecv, k, par, got, want)
				}
				if got != nil && !strings.Contains(got.Error(), "node 3 failed") {
					t.Errorf("recv=%v k=%d p=%d: error %v does not name node 3", inRecv, k, par, got)
				}
			}
		}
	}
}

// TestProcRoundsCallbackPanic pins panic semantics: a panic in stage — in
// round 0, which runs in the body, or later, which runs in Step — or in
// recv fails the node with the "core: node body panic" error, value and
// stack, and nothing escapes to the caller.
func TestProcRoundsCallbackPanic(t *testing.T) {
	cases := []struct {
		name         string
		stage        func(r int)
		recv         func(r int)
		failingRound int
	}{
		{"stage-round-0", func(r int) { panic("boom in stage 0") }, nil, 4},
		{"stage-round-2", func(r int) {
			if r == 2 {
				panic("boom in stage 2")
			}
		}, nil, 6},
		{"recv-round-1", nil, func(r int) {
			if r == 1 {
				panic("boom in recv 1")
			}
		}, 6},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, par), func(t *testing.T) {
				cfg := Config{N: 8, Bandwidth: 8, Model: Unicast, Seed: 5, Parallelism: par}
				var err error
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("RunProcs re-raised %T: %v", r, r)
						}
					}()
					_, err = RunProcs(cfg, func(p *Proc) error {
						for i := 0; i < 4; i++ {
							p.Next()
						}
						return p.Rounds(5, func(r int) error {
							if p.ID() == 3 && tc.stage != nil {
								tc.stage(r)
							}
							return nil
						}, func(r int, _ []*bits.Buffer) error {
							if p.ID() == 3 && tc.recv != nil {
								tc.recv(r)
							}
							return nil
						})
					})
				}()
				if err == nil {
					t.Fatal("RunProcs returned nil, want node 3's panic error")
				}
				msg := err.Error()
				for _, want := range []string{
					fmt.Sprintf("core: node 3 failed in round %d", tc.failingRound),
					"core: node body panic: boom in ",
					"TestProcRoundsCallbackPanic", // the panicking callback's stack
				} {
					if !strings.Contains(msg, want) {
						t.Errorf("error lacks %q:\n%s", want, msg)
					}
				}
				var pe *PanicError
				if errors.As(err, &pe) {
					t.Errorf("error wraps a *PanicError; the panic escaped to the worker pool")
				}
			})
		}
	}
}

// TestProcRoundsRejectsBarrierInCallback pins the no-nesting rule: a
// callback that calls Next or Rounds fails its node with an error and
// never switches the coroutine from outside it.
func TestProcRoundsRejectsBarrierInCallback(t *testing.T) {
	cases := map[string]func(p *Proc) error{
		"Next-in-stage-0": func(p *Proc) error {
			return p.Rounds(3, func(int) error { p.Next(); return nil }, nil)
		},
		"Next-in-stage-1": func(p *Proc) error {
			return p.Rounds(3, func(r int) error {
				if r == 1 {
					p.Next()
				}
				return nil
			}, nil)
		},
		"Rounds-in-recv": func(p *Proc) error {
			return p.Rounds(3, nil, func(int, []*bits.Buffer) error { return p.Rounds(2, nil, nil) })
		},
	}
	for name, body := range cases {
		for _, par := range []int{1, 4} {
			cfg := Config{N: 4, Bandwidth: 8, Model: Unicast, Parallelism: par}
			_, err := RunProcs(cfg, body)
			if err == nil || !strings.Contains(err.Error(), "called from a Rounds callback") {
				t.Errorf("%s p=%d: err = %v, want the Rounds-callback error", name, par, err)
			}
		}
	}
}

// interleaveBody has each node alternate, three times over, a
// multi-round ExchangeBroadcasts, a plain Next round, an ExchangeUnicast
// and a single-round ExchangeBroadcasts, with per-node payload lengths,
// and folds everything it received into its output. In the round each
// exchange returns it holds the result to the rule of every received
// buffer (see checkResult); on a clean channel each entry must also be
// exactly what its source sent.
func interleaveBody(clean bool) func(p *Proc) error {
	return func(p *Proc) error {
		n, me := p.N(), p.ID()
		h := uint64(me) + 1
		fold := func(got []*bits.Buffer) {
			for src, b := range got {
				if b == nil {
					continue
				}
				for r := bits.NewReader(b); r.Remaining() > 0; {
					v, _ := r.ReadUint(min(r.Remaining(), 16))
					h = h*1099511628211 ^ (v | uint64(src)<<16)
				}
				h = h*1099511628211 ^ uint64(b.Len())
			}
		}
		payload := func(nbits, salt int) *bits.Buffer {
			b := bits.New(nbits)
			for i := 0; i < nbits; i++ {
				b.WriteBit(uint64((i*31 + salt) >> 2 & 1))
			}
			return b
		}
		// multiOf, uniOf and singleOf return what src sends in the k-th
		// exchange of each kind: a fixed function of (src, k), and for
		// the unicast of the destination too.
		multiOf := func(src, k int) *bits.Buffer { return payload(5+(src*7+k*3)%40, src+k) }
		uniOf := func(src, dst, k int) *bits.Buffer { return payload((src*3+dst*5+k)%48, src*n+dst) }
		singleOf := func(src, k int) *bits.Buffer { return payload(1+(src+k)%16, k) }
		// check holds one exchange's result to the rule until the node's
		// next round: kept snapshots the entries as returned, and work
		// stages this round's next message (or does nothing) before the
		// entries are read again.
		check := func(what string, got []*bits.Buffer, want func(src int) *bits.Buffer, work func() error) error {
			kept := make([]*bits.Buffer, len(got))
			for src, b := range got {
				if b != nil {
					kept[src] = b.Clone()
				}
				if !clean {
					continue
				}
				if w := want(src); (b == nil) != (w.Len() == 0) || b != nil && !b.Equal(w) {
					return fmt.Errorf("node %d: %s entry from %d reads %v, want %v", me, what, src, b, w)
				}
			}
			if err := checkResult(got); err != nil {
				return fmt.Errorf("node %d: %s: %w", me, what, err)
			}
			fold(got)
			if err := work(); err != nil {
				return err
			}
			for src := range got {
				if (got[src] == nil) != (kept[src] == nil) || got[src] != nil && !got[src].Equal(kept[src]) {
					return fmt.Errorf("node %d: %s entry from %d changed before the node's next round", me, what, src)
				}
			}
			return nil
		}
		for k := 0; k < 3; k++ {
			multi, err := ExchangeBroadcasts(p, multiOf(me, k), 3)
			if err != nil {
				return err
			}
			if err := check("multi-round broadcast", multi, func(src int) *bits.Buffer { return multiOf(src, k) }, func() error {
				var m bits.Buffer
				m.WriteUint(uint64(me*8+k), 16)
				return p.Send((me+1+k)%n, &m)
			}); err != nil {
				return err
			}
			fold(p.Next())

			perDst := make([]*bits.Buffer, n)
			for d := range perDst {
				if d != me {
					perDst[d] = uniOf(me, d, k)
				}
			}
			uni, err := ExchangeUnicast(p, perDst, 3)
			if err != nil {
				return err
			}
			if err := check("unicast", uni, func(src int) *bits.Buffer {
				if src == me {
					return nil
				}
				return uniOf(src, me, k)
			}, func() error { return nil }); err != nil {
				return err
			}

			single, err := ExchangeBroadcasts(p, singleOf(me, k), 1)
			if err != nil {
				return err
			}
			if err := check("single-round broadcast", single, func(src int) *bits.Buffer { return singleOf(src, k) }, func() error { return nil }); err != nil {
				return err
			}
		}
		p.SetOutput(h)
		return nil
	}
}

// checkResult checks what the rule promises of an exchange result in the
// round it is returned: writing any entry panics.
func checkResult(got []*bits.Buffer) error {
	for src, b := range got {
		if b != nil && !writePanics(b) {
			return fmt.Errorf("entry from %d took a write", src)
		}
	}
	return nil
}

// writePanics reports whether appending a bit to b panics.
func writePanics(b *bits.Buffer) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	b.WriteBit(1)
	return false
}

// TestExchangeInterleave pins the exchange results' contract: a node
// that interleaves ExchangeBroadcasts, ExchangeUnicast and Next gets,
// from each exchange, a result whose entries are exactly what their
// sources sent (on a clean channel), read the same until the node's
// next round and panic on a write; and its outputs, Stats and Faults at
// Parallelism 4 equal those at 1, on a clean channel and under a plan
// that drops, corrupts, delays and crashes. Pool workers drive the
// exchange state through Proc.Rounds, so CI repeats this test under the
// race detector.
func TestExchangeInterleave(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		run := func(par int) *Result {
			cfg := Config{N: 12, Bandwidth: 16, Model: Unicast, Seed: 11, Parallelism: par}
			if faulty {
				cfg.FaultPlan = hashFaultPlan{}
			}
			res, err := RunProcs(cfg, interleaveBody(!faulty))
			if err != nil {
				t.Fatalf("faulty=%v p=%d: %v", faulty, par, err)
			}
			return res
		}
		oracle := run(1)
		if faulty && (oracle.Faults.Drops == 0 || oracle.Faults.Corruptions == 0 || oracle.Faults.Delays == 0) {
			t.Fatalf("fault plan too gentle: %+v", oracle.Faults)
		}
		got := run(4)
		requireIdentical(t, oracle, got, fmt.Sprintf("faulty=%v p=4", faulty))
		if !reflect.DeepEqual(oracle.Faults, got.Faults) {
			t.Errorf("faulty=%v: Faults %+v at p=4, %+v at p=1", faulty, got.Faults, oracle.Faults)
		}
	}
}

// exchangeAllocs returns the objects one exchange call allocates per node
// at size n, beyond the set-up newCall does: the difference between runs
// of 40 and 10 calls, per extra call and node. newCall builds a node's
// call once, before the calls begin.
func exchangeAllocs(t *testing.T, n int, model Model, newCall func(p *Proc) func() error) float64 {
	run := func(calls int) func() {
		return func() {
			cfg := Config{N: n, Bandwidth: 16, Model: model, Seed: 1, Parallelism: 1}
			_, err := RunProcs(cfg, func(p *Proc) error {
				call := newCall(p)
				for i := 0; i < calls; i++ {
					if err := call(); err != nil {
						return fmt.Errorf("call %d: %w", i, err)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	short := testing.AllocsPerRun(5, run(10))
	long := testing.AllocsPerRun(5, run(40))
	return (long - short) / 30 / float64(n)
}

// broadcastCall is one ExchangeBroadcasts of an nbits-bit payload over
// ceil(nbits/16) rounds. What it received belongs to the Proc, which
// reuses it in the next call.
func broadcastCall(nbits int) func(p *Proc) func() error {
	return func(p *Proc) func() error {
		payload := bits.New(nbits)
		payload.ZeroExtend(nbits)
		rounds := ChunkRounds(nbits, p.Bandwidth())
		return func() error {
			got, err := ExchangeBroadcasts(p, payload, rounds)
			if err != nil {
				return err
			}
			if got[(p.ID()+1)%p.N()].Len() != nbits {
				return fmt.Errorf("short entry")
			}
			return nil
		}
	}
}

// unicastCall is one ExchangeUnicast of an nbits-bit payload to every
// other node over ceil(nbits/16) rounds.
func unicastCall(nbits int) func(p *Proc) func() error {
	return func(p *Proc) func() error {
		perDst := make([]*bits.Buffer, p.N())
		for d := range perDst {
			if d != p.ID() {
				perDst[d] = bits.New(nbits)
				perDst[d].ZeroExtend(nbits)
			}
		}
		rounds := ChunkRounds(nbits, p.Bandwidth())
		return func() error {
			got, err := ExchangeUnicast(p, perDst, rounds)
			if err != nil {
				return err
			}
			if got[(p.ID()+1)%p.N()].Len() != nbits {
				return fmt.Errorf("short entry")
			}
			return nil
		}
	}
}

// TestAllocRegressionExchange is the allocation gate of the exchange
// helpers. A single-round ExchangeBroadcasts hands back the delivered
// buffers themselves, so its per-node cost does not grow with n (a copy
// per source made it 21 objects at n=8 and 69 at n=32). A multi-round
// ExchangeBroadcasts and an ExchangeUnicast run on their Proc's exchange
// state, which reassembles each source into a buffer it reuses and
// copies the node's own payload into one more: a warm call allocates
// nothing, at every n and round count. (A per-call accumulator and two
// Rounds closures made them 5 and 3 objects; a clone of the own payload
// and pool buffers the caller released, 2 and 0.) A
// chunked ExchangeUnicast under a fault plan that never acts allocates
// nothing per extra round either: its chunks go through the same link
// buffers as on a clean channel (message arenas that stopped recycling
// under a fault plan cost 64 objects per extra round on that shape). A
// body that spends its rounds inside Rounds allocates nothing per extra
// round. Matches the CI alloc-regression pattern (-run AllocRegression).
// No case draws from a sync.Pool, so the gate holds under the race
// detector too.
func TestAllocRegressionExchange(t *testing.T) {
	small, large := exchangeAllocs(t, 8, Broadcast, broadcastCall(16)), exchangeAllocs(t, 32, Broadcast, broadcastCall(16))
	t.Logf("single-round ExchangeBroadcasts: %.2f objects per call per node at n=8, %.2f at n=32", small, large)
	if large-small > 0.5 || small-large > 0.5 {
		t.Errorf("per-node cost grows with n (%.2f at n=8, %.2f at n=32): a per-source copy is back", small, large)
	}
	for _, c := range []struct {
		name   string
		model  Model
		call   func(nbits int) func(p *Proc) func() error
		budget float64 // objects per call per node
	}{
		{"multi-round ExchangeBroadcasts", Broadcast, broadcastCall, 0.5},
		{"ExchangeUnicast", Unicast, unicastCall, 0.5},
	} {
		small, large := exchangeAllocs(t, 8, c.model, c.call(64)), exchangeAllocs(t, 32, c.model, c.call(64))
		long := exchangeAllocs(t, 8, c.model, c.call(256))
		perRound := (long - small) / 12
		t.Logf("%s: %.2f objects per call per node at n=8, %.2f at n=32; %.3f per extra round", c.name, small, large, perRound)
		if small > c.budget || large > c.budget {
			t.Errorf("%s: %.2f objects per call per node at n=8, %.2f at n=32, budget %.1f", c.name, small, large, c.budget)
		}
		if large-small > 0.5 || small-large > 0.5 {
			t.Errorf("%s: per-node cost grows with n (%.2f at n=8, %.2f at n=32)", c.name, small, large)
		}
		if perRound > 0.05 {
			t.Errorf("%s: %.3f objects per extra round per node, want ~0", c.name, perRound)
		}
	}
	short := pooledAllocsPerRun(5, faultedUnicastRun(t, 64))
	long := pooledAllocsPerRun(5, faultedUnicastRun(t, 320))
	perRound := (long - short) / 16
	t.Logf("faulted ExchangeUnicast: 4 rounds %.0f allocs, 20 rounds %.0f (%.2f/extra round)", short, long, perRound)
	if perRound > 0.05 {
		t.Errorf("faulted ExchangeUnicast allocates %.2f objects per extra round, want ~0", perRound)
	}
	for _, par := range []int{1, 4} {
		run := func(rounds int) func() {
			return func() {
				cfg := Config{N: 24, Bandwidth: 32, Model: Unicast, Seed: 7, Parallelism: par}
				if _, err := RunProcs(cfg, roundsRingBody(rounds)); err != nil {
					t.Fatal(err)
				}
			}
		}
		short := testing.AllocsPerRun(5, run(10))
		long := testing.AllocsPerRun(5, run(50))
		perRound := (long - short) / 40
		t.Logf("Rounds p=%d: 10 rounds %.0f allocs, 50 rounds %.0f (%.2f/extra round)", par, short, long, perRound)
		if perRound > 0.5 {
			t.Errorf("p=%d: a Rounds schedule allocates %.2f per extra round, want ~0", par, perRound)
		}
	}
}

// pooledAllocsPerRun is testing.AllocsPerRun isolated from the
// collector: two collections first settle what earlier tests left, and
// the collector stays off while it measures, so no collection lands
// inside the measurement. Sketch's stack slabs and circuit's evaluation
// storage are the module's only sync.Pools, and no core run draws from
// either.
func pooledAllocsPerRun(runs int, f func()) float64 {
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// faultedUnicastRun is one run of 16 nodes under idlePlan in which every
// node sends an nbits-bit payload to each of its next two nodes with one
// ExchangeUnicast, chunked at b = 16.
func faultedUnicastRun(t *testing.T, nbits int) func() {
	return func() {
		cfg := Config{N: 16, Bandwidth: 16, Model: Unicast, Seed: 1, Parallelism: 1, FaultPlan: idlePlan{}}
		_, err := RunProcs(cfg, func(p *Proc) error {
			perDst := make([]*bits.Buffer, p.N())
			for k := 1; k <= 2; k++ {
				d := (p.ID() + k) % p.N()
				perDst[d] = bits.New(nbits)
				perDst[d].ZeroExtend(nbits)
			}
			_, err := ExchangeUnicast(p, perDst, ChunkRounds(nbits, p.Bandwidth()))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// roundsRingBody spends `rounds` rounds inside one Rounds schedule: each
// round every node sends a message, built in one reused buffer, one hop
// further round the ring and XOR-folds its inbox.
func roundsRingBody(rounds int) func(*Proc) error {
	return func(p *Proc) error {
		var acc uint64
		var m bits.Buffer
		err := p.Rounds(rounds, func(r int) error {
			m.Reset()
			m.WriteUint(uint64(p.ID()+r), 32)
			return p.Send((p.ID()+1+r%(p.N()-1))%p.N(), &m)
		}, func(_ int, in []*bits.Buffer) error {
			for _, msg := range in {
				if msg == nil {
					continue
				}
				v, err := bits.NewReader(msg).ReadUint(32)
				if err != nil {
					return err
				}
				acc ^= v
			}
			return nil
		})
		p.SetOutput(acc)
		return err
	}
}
