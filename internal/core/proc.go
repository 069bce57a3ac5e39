package core

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"

	"repro/internal/bits"
)

// Proc is a node's handle in the coroutine-based programming surface: each
// node's body runs as an iter.Pull coroutine and the synchronous rounds of
// the model are rendered as blocking barrier calls. A body stages messages
// with Send/Broadcast and then calls Next, which ends the current round
// and returns the messages received at the start of the following round.
// Each round the engine resumes the body with a direct coroutine switch
// from its Step call, and Next switches straight back; no scheduler run
// queue or channel sits between them (DESIGN.md §16). A fixed schedule
// of rounds goes through Rounds instead, which the engine drives without
// resuming the body each round.
//
// Under the parallel engine (Config.Parallelism != 1) the bodies of
// distinct nodes may run truly concurrently within a round, so any state
// a body shares with other bodies outside the model's messages must be
// read-only or synchronized (see routing.Router for the canonical
// pattern). Received buffers are read-only and valid only until the
// body's next round, when their senders may refill them (see Node): read
// or copy them out before calling Next or Rounds again.
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
	ctx   *Ctx
	in    []*bits.Buffer      // inbox handed over by the current Step
	yield func(struct{}) bool // suspends the body until the next Step

	// The Rounds loop the body is parked in (rounds == 0: none). Step
	// hands inbox r to recv and stages round r+1 without resuming the
	// body; err is the callback error that ended the loop early.
	rounds int
	r      int
	stage  func(r int) error
	recv   func(r int, in []*bits.Buffer) error
	err    error

	x *exchangeState // ExchangeBroadcasts/ExchangeUnicast state, built on first use
}

// ID returns the node identifier.
func (p *Proc) ID() int { return p.ctx.ID() }

// N returns the number of players.
func (p *Proc) N() int { return p.ctx.N() }

// Bandwidth returns b.
func (p *Proc) Bandwidth() int { return p.ctx.Bandwidth() }

// Model returns the communication model.
func (p *Proc) Model() Model { return p.ctx.Model() }

// Rand returns the node's private deterministic randomness.
func (p *Proc) Rand() *rand.Rand { return p.ctx.Rand() }

// Round returns the current round number.
func (p *Proc) Round() int { return p.ctx.Round() }

// SetOutput records the node's output value.
func (p *Proc) SetOutput(v interface{}) { p.ctx.SetOutput(v) }

// Annotate stamps a phase marker into the run's trace; see Ctx.Annotate.
func (p *Proc) Annotate(name string) { p.ctx.Annotate(name) }

// Annotatef stamps a formatted phase marker; see Ctx.Annotatef.
func (p *Proc) Annotatef(format string, args ...interface{}) { p.ctx.Annotatef(format, args...) }

// Traced reports whether the run has a trace sink attached.
func (p *Proc) Traced() bool { return p.ctx.Traced() }

// Send stages a copy of msg for dst in the current round; see Ctx.Send.
func (p *Proc) Send(dst int, msg *bits.Buffer) error { return p.ctx.Send(dst, msg) }

// Broadcast stages a copy of msg for every other node in the current
// round; see Ctx.Broadcast.
func (p *Proc) Broadcast(msg *bits.Buffer) error { return p.ctx.Broadcast(msg) }

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
// body parks once, and each later Step hands recv its inbox and calls
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

// endRounds clears the Rounds loop state, so Step stops driving it.
func (p *Proc) endRounds() {
	p.rounds, p.stage, p.recv, p.err = 0, nil, nil, nil
}

// checkNotInRounds rejects a barrier call from inside a Rounds callback:
// called from Step it would switch the coroutine from outside it.
func (p *Proc) checkNotInRounds() {
	if p.rounds > 0 {
		panic("core: Proc.Next or Proc.Rounds called from a Rounds callback")
	}
}

// procStopped is the sentinel panic with which Next unwinds a body whose
// coroutine was stopped; procNode.run swallows it.
type procStopped struct{}

// bodyPanic is the node error for a panic in a body or a Rounds
// callback: the value and the stack of the panicking goroutine.
func bodyPanic(v any) error {
	return fmt.Errorf("core: node body panic: %v\n%s", v, debug.Stack())
}

// procNode adapts a Proc-style body to the engine's Node interface. The
// body runs as an iter.Pull coroutine: Step hands it the round's inbox and
// resumes it, and the body's next Next call suspends it again.
type procNode struct {
	body   func(*Proc) error
	proc   Proc
	next   func() (struct{}, bool)
	stop   func()
	retErr error
}

func (pn *procNode) Step(ctx *Ctx, in []*bits.Buffer) (bool, error) {
	if pn.next == nil {
		pn.proc.ctx = ctx
		pn.next, pn.stop = iter.Pull(pn.run)
	}
	if pn.proc.rounds > 0 {
		if pn.drive(in) {
			return false, nil
		}
		if pn.retErr != nil {
			// A callback panicked. The body stays parked until
			// runProcNodes unwinds it.
			return true, pn.retErr
		}
	}
	pn.proc.in = in
	if _, parked := pn.next(); parked {
		return false, nil
	}
	return true, pn.retErr
}

// drive runs one engine-driven round of the Rounds loop the body is
// parked in: recv takes this step's inbox and, unless it was the last
// one, stage fills the next round. It reports whether the body stays
// parked; a callback panic becomes the node's error in retErr.
func (pn *procNode) drive(in []*bits.Buffer) (parked bool) {
	p := &pn.proc
	defer func() {
		if v := recover(); v != nil {
			pn.retErr = bodyPanic(v)
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
// goroutine that called Step.
func (pn *procNode) run(yield func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, stopped := r.(procStopped); !stopped {
				pn.retErr = bodyPanic(r)
			}
		}
	}()
	pn.proc.yield = yield
	pn.retErr = pn.body(&pn.proc)
}

// RunProcs runs one body per node, each as its own coroutine, under the
// given configuration. All bodies share the body function; they branch on
// p.ID() (the common SPMD style of congested clique algorithms). Before
// it returns, RunProcs unwinds every body still parked in Next or Rounds
// — after a node error, a body panic, ErrRoundLimit or ErrStalled — so a
// failed run leaves no goroutine behind.
func RunProcs(cfg Config, body func(*Proc) error) (*Result, error) {
	pns := make([]procNode, cfg.N)
	nodes := make([]Node, cfg.N)
	for i := range pns {
		pns[i].body = body
		nodes[i] = &pns[i]
	}
	// Stop every started coroutine; stopping one that already returned
	// is a no-op.
	defer func() {
		for i := range pns {
			if pns[i].stop != nil {
				pns[i].stop()
			}
		}
	}()
	return Run(cfg, nodes)
}
