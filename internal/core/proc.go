package core

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"

	"repro/internal/bits"
)

// Proc is a node's handle onto the network and the state of its body.
// Each node's body runs as an iter.Pull coroutine and the synchronous
// rounds of the model are rendered as blocking barrier calls. A body
// stages messages with Send/Broadcast and then calls Next, which ends the
// current round and returns the messages received at the start of the
// following round. Each round the engine resumes the body with a direct
// coroutine switch from the node's step, and Next switches straight
// back; no scheduler run queue or channel sits between them (DESIGN.md
// §16). A fixed schedule of rounds goes through Rounds instead, which the
// engine drives without resuming the body each round.
//
// With a round pool wider than one (Env.Parallelism != 1) the bodies of
// distinct nodes may run truly concurrently within a round, so any state
// a body shares with other bodies outside the model's messages must be
// read-only or synchronized (see routing.Router for the canonical
// pattern). Received buffers are sealed buffers of their senders, shared
// with other recipients: they are read-only (mutating one panics) and
// valid only until the body's next round, when their senders may refill
// them; read or copy them out before calling Next or Rounds again. The
// results of ExchangeBroadcasts and ExchangeUnicast follow the same
// rule, whether a result holds received buffers or the Proc's own.
//
// A body that panics fails its node with a "core: node body panic" error
// carrying the panic value and stack; the panic never reaches the engine.
// When a run ends while a body is still parked in Next or Rounds (another
// node failed, or the run hit MaxRounds or the stall detector), RunProcs
// unwinds that body before returning: Next panics with an internal
// sentinel, the body's deferred calls run, and the sentinel is swallowed;
// a body must not recover that panic and carry on. A body must not call
// runtime.Goexit (t.FailNow, t.Fatal and friends in tests): iter.Pull
// re-raises the Goexit on the goroutine that resumed the body, which is
// the engine's caller or a pool worker.
type Proc struct {
	id    int
	cfg   *Config
	rng   *rand.Rand // built by Rand on first use
	round int
	sent  []staged     // Sends staged this round, in send order
	dsts  []uint64     // N-bit set of the destinations in sent
	bcast *bits.Buffer // staged broadcast, in any model; excludes Sends

	// The node's own message buffers, which Send and Broadcast copy
	// into: per round parity, a row carved from one slab whose buffer k
	// carries the node's k-th Send of the round, and a broadcast buffer.
	// A message staged in round r is read by its recipients in round
	// r+1, so its buffer is free to refill in round r+2.
	rows   [2][]bits.Buffer
	bcasts [2]bits.Buffer
	nbrs   []int // topology neighbors, listed on the first CONGEST Broadcast

	output interface{}
	halted bool
	traced bool   // a trace sink is attached; Annotate is live
	marks  []Mark // phase markers stamped this record, swept by deliver

	// The body's coroutine, started on the node's first step: step
	// hands it the round's inbox in `in` and resumes it through next,
	// and Next suspends it again through yield. retErr is what the body
	// returned, or its panic.
	body   func(*Proc) error
	next   func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	in     []*bits.Buffer
	retErr error

	// The Rounds loop the body is parked in (rounds == 0: none). step
	// hands inbox r to recv and stages round r+1 without resuming the
	// body; err is the callback error that ended the loop early.
	rounds int
	r      int
	stage  func(r int) error
	recv   func(r int, in []*bits.Buffer) error
	err    error

	x *exchangeState // ExchangeBroadcasts/ExchangeUnicast state, built on first use
}

// staged is one Send of the round: its destination and the sealed send
// buffer the message was copied into.
type staged struct {
	dst int
	msg *bits.Buffer
}

// sentTo reports whether a Send to dst is staged this round.
func (p *Proc) sentTo(dst int) bool { return p.dsts[dst>>6]&(1<<(dst&63)) != 0 }

// Next commits the staged messages, waits for the round barrier, and
// returns the inbox of the next round (indexed by sender; nil entries mean
// no message). The first round of a body begins immediately on start; the
// first Next call therefore returns the messages sent by other nodes in
// round 0. If the run has ended instead, Next does not return: it unwinds
// the body (see Proc).
func (p *Proc) Next() []*bits.Buffer {
	p.checkNotInRounds()
	if !p.yield(struct{}{}) {
		panic(procStopped{})
	}
	return p.in
}

// Rounds runs a fixed schedule of `rounds` rounds. It behaves exactly
// like
//
//	for r := 0; r < rounds; r++ {
//		if err := stage(r); err != nil {
//			return err
//		}
//		if err := recv(r, p.Next()); err != nil {
//			return err
//		}
//	}
//	return nil
//
// but the engine drives rounds 1…rounds−1 itself: after stage(0) the
// body parks once, and each later step hands recv its inbox and calls
// stage for the next round without resuming the body. The body resumes
// in the step that hands over the last inbox, or in the step in which
// stage or recv fails, so an error fails the node in the same round as
// the loop would. A nil stage or recv does nothing; rounds <= 0 returns
// at once. Use Next instead when the next round depends on what arrived.
//
// stage and recv run on the goroutine that steps the node, which is a
// pool worker under the parallel engine; like a body, they may touch
// only this node's state. They must not call Next or Rounds: such a
// call fails the node. A panic in either fails the node with the same
// "core: node body panic" error a body panic gives.
func (p *Proc) Rounds(rounds int, stage func(r int) error, recv func(r int, in []*bits.Buffer) error) error {
	p.checkNotInRounds()
	if rounds <= 0 {
		return nil
	}
	p.rounds, p.r, p.stage, p.recv, p.err = rounds, 0, stage, recv, nil
	defer p.endRounds()
	if stage != nil {
		if err := stage(0); err != nil {
			return err
		}
	}
	if !p.yield(struct{}{}) {
		panic(procStopped{})
	}
	return p.err
}

// endRounds clears the Rounds loop state, so step stops driving it.
func (p *Proc) endRounds() {
	p.rounds, p.stage, p.recv, p.err = 0, nil, nil, nil
}

// checkNotInRounds rejects a barrier call from inside a Rounds callback:
// called from step it would switch the coroutine from outside it.
func (p *Proc) checkNotInRounds() {
	if p.rounds > 0 {
		panic("core: Proc.Next or Proc.Rounds called from a Rounds callback")
	}
}

// procStopped is the sentinel panic with which Next unwinds a body whose
// coroutine was stopped; run swallows it.
type procStopped struct{}

// bodyPanic is the node error for a panic in a body or a Rounds
// callback: the value and the stack of the panicking goroutine.
func bodyPanic(v any) error {
	return fmt.Errorf("core: node body panic: %v\n%s", v, debug.Stack())
}

// step runs the node for one round and reports whether it is done, with
// its error. The body runs as an iter.Pull coroutine: step hands it the
// round's inbox and resumes it, and the body's next Next call suspends it
// again. While the body is parked in Rounds, step drives the schedule's
// callbacks instead.
func (p *Proc) step(in []*bits.Buffer) (bool, error) {
	if p.next == nil {
		p.next, p.stop = iter.Pull(p.run)
	}
	if p.rounds > 0 {
		if p.drive(in) {
			return false, nil
		}
		if p.retErr != nil {
			// A callback panicked. The body stays parked until
			// RunProcs unwinds it.
			return true, p.retErr
		}
	}
	p.in = in
	if _, parked := p.next(); parked {
		return false, nil
	}
	return true, p.retErr
}

// drive runs one engine-driven round of the Rounds loop the body is
// parked in: recv takes this step's inbox and, unless it was the last
// one, stage fills the next round. It reports whether the body stays
// parked; a callback panic becomes the node's error in retErr.
func (p *Proc) drive(in []*bits.Buffer) (parked bool) {
	defer func() {
		if v := recover(); v != nil {
			p.retErr = bodyPanic(v)
			parked = false
		}
	}()
	r := p.r
	if p.recv != nil {
		if p.err = p.recv(r, in); p.err != nil {
			return false
		}
	}
	if r+1 == p.rounds {
		return false
	}
	p.r = r + 1
	if p.stage != nil {
		if p.err = p.stage(r + 1); p.err != nil {
			return false
		}
	}
	return true
}

// run is the node's coroutine body. A body panic (e.g. an index derived
// from corrupted wire data) must surface as this node's error — a
// detected failure the harness can classify — so it is recovered here,
// inside the coroutine; iter.Pull would otherwise re-raise it on the
// goroutine that called step.
func (p *Proc) run(yield func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, stopped := r.(procStopped); !stopped {
				p.retErr = bodyPanic(r)
			}
		}
	}()
	p.yield = yield
	p.retErr = p.body(p)
}
