package core

import (
	"fmt"

	"repro/internal/bits"
)

// ChunkRounds returns the number of rounds needed to move a payload of
// maxBits bits over links of bandwidth b, i.e. ceil(maxBits/b), and at
// least 1 (an empty payload still occupies the protocol slot of one round
// so that all nodes stay in lock step).
func ChunkRounds(maxBits, b int) int {
	if maxBits <= 0 {
		return 1
	}
	return (maxBits + b - 1) / b
}

// ExchangeBroadcasts implements the paper's standard "split the message
// into chunks of b bits each" pattern (Theorem 7): every node broadcasts
// its payload over exactly `rounds` rounds and receives every other node's
// payload, returned indexed by sender (the node's own payload is included
// at its own index, as a copy). Payloads may have different lengths but
// each must fit in rounds*b bits. In the CONGEST model a node broadcasts
// to, and so hears from, only its topology neighbors.
//
// The entry of a source that sent nothing is nil; read entries through
// the nil-safe bits.NewReader, Len or DecodeAdjacencyRow. A single-round
// exchange returns the buffers delivered to this node; a multi-round one
// cuts its chunks into one reused scratch buffer (Broadcast copies each)
// and reassembles each sending source into a buffer of the Proc's.
//
// The result follows the rule of every received buffer (see Proc): the
// slice and each buffer in it belong to the Proc, are read-only (writing
// one panics) and are valid until the node's next round, when the next
// exchange or their senders may reuse them. Read or copy out what must
// last before then, and copy an entry before passing it to another
// exchange as a payload.
func ExchangeBroadcasts(p *Proc, payload *bits.Buffer, rounds int) ([]*bits.Buffer, error) {
	if err := checkPayloads(p, rounds, payload); err != nil {
		return nil, err
	}
	x := p.exchange(rounds)
	if rounds == 1 {
		if payload.Len() > 0 {
			if err := p.Broadcast(payload); err != nil {
				return nil, err
			}
		}
		copy(x.acc, p.Next())
	} else {
		x.payload = payload
		err := p.Rounds(rounds, x.stageBroadcast, x.recv)
		x.payload = nil
		if err != nil {
			return nil, err
		}
		x.seal()
	}
	if payload != &x.own {
		x.own.Refill(payload)
	}
	x.acc[p.ID()] = &x.own
	return x.acc, nil
}

// ExchangeUnicast sends perDst[d] (nil = nothing) to each d over exactly
// `rounds` rounds, chunked at the bandwidth, and returns the buffers
// received, indexed by source (nil = nothing arrived). Every node must
// call it simultaneously with the same round count, and each payload must
// fit in rounds*b bits. Each chunk is cut into one reused scratch buffer
// and copied by Send, so the caller may reuse its payloads afterwards.
// The engine drives the rounds (Proc.Rounds), and each sending source is
// reassembled into a buffer of the Proc's.
//
// The result follows the same rule as ExchangeBroadcasts': read-only and
// valid until the node's next round.
func ExchangeUnicast(p *Proc, perDst []*bits.Buffer, rounds int) ([]*bits.Buffer, error) {
	if err := checkPayloads(p, rounds, perDst...); err != nil {
		return nil, err
	}
	x := p.exchange(rounds)
	for d, buf := range perDst {
		if buf.Len() > 0 {
			x.live = append(x.live, d)
		}
	}
	x.perDst = perDst
	err := p.Rounds(rounds, x.stageUnicast, x.recv)
	x.perDst, x.live = nil, x.live[:0]
	if err != nil {
		return nil, err
	}
	x.seal()
	return x.acc, nil
}

// AllReduce folds every node's value v with op and returns the result to
// every node, through node 0. Every other node sends its v to node 0
// with ExchangeUnicast; node 0 folds what arrived into its own v in
// ascending sender order, skipping a value that never arrived, and
// returns the result with ExchangeBroadcasts. Values cross the wire in
// `width` (at most 64) bits, so each leg takes ChunkRounds(width, b)
// rounds, and every node must call it in the same round with the same
// width and op. A node that misses the result fails. It needs links
// between node 0 and every node, so it runs in CLIQUE-UCAST, where the
// result's broadcast is metered on each of its N-1 links: Stats and
// fault decisions are those of N-1 unicasts of it.
func AllReduce(p *Proc, v uint64, width int, op func(acc, x uint64) uint64) (uint64, error) {
	rounds := ChunkRounds(width, p.Bandwidth())
	var msg bits.Buffer
	var toRoot []*bits.Buffer // indexed by destination: node 0 only
	if p.ID() != 0 {
		msg.WriteUint(v, width)
		toRoot = []*bits.Buffer{&msg}
	}
	got, err := ExchangeUnicast(p, toRoot, rounds)
	if err != nil {
		return 0, err
	}
	msg.Reset() // Send copied it; it now carries node 0's result only
	if p.ID() == 0 {
		for _, buf := range got {
			if buf == nil {
				continue
			}
			x, err := bits.NewReader(buf).ReadUint(width)
			if err != nil {
				return 0, err
			}
			v = op(v, x)
		}
		msg.WriteUint(v, width)
	}
	got, err = ExchangeBroadcasts(p, &msg, rounds)
	if err != nil {
		return 0, err
	}
	if p.ID() == 0 {
		return v, nil
	}
	if got[0] == nil {
		return 0, fmt.Errorf("core: node %d missed the AllReduce result", p.ID())
	}
	return bits.NewReader(got[0]).ReadUint(width)
}

// checkPayloads rejects a round count below 1 and any payload that does
// not fit in `rounds` rounds of the node's bandwidth.
func checkPayloads(p *Proc, rounds int, payloads ...*bits.Buffer) error {
	if rounds < 1 {
		return fmt.Errorf("core: exchange over %d rounds", rounds)
	}
	for _, payload := range payloads {
		if payload.Len() > rounds*p.Bandwidth() {
			return fmt.Errorf("core: payload of %d bits exceeds %d rounds * %d bits",
				payload.Len(), rounds, p.Bandwidth())
		}
	}
	return nil
}

// exchangeState is what ExchangeBroadcasts and ExchangeUnicast keep on a
// Proc across calls: the slice they return and the buffers it points
// into, the payloads of the call in progress, the chunk scratch and the
// Proc.Rounds callbacks, bound once per Proc, so a call allocates
// neither a closure nor an accumulator, and a warm call no buffer.
type exchangeState struct {
	acc    []*bits.Buffer // received payloads by source; the return value
	bufs   []bits.Buffer  // bufs[src] reassembles src's chunks of a multi-round call
	own    bits.Buffer    // ExchangeBroadcasts' copy of the node's own payload
	rounds int            // round count of the call in progress

	payload *bits.Buffer   // ExchangeBroadcasts' payload
	perDst  []*bits.Buffer // ExchangeUnicast's payloads by destination
	live    []int          // ascending destinations with bits left to send
	chunk   bits.Buffer    // the chunk being staged; Send and Broadcast copy it

	stageBroadcast, stageUnicast func(r int) error
	recv                         func(r int, in []*bits.Buffer) error
}

// exchange readies the Proc's exchange state for a call of `rounds`
// rounds, binding the callbacks on the first call. It leaves the last
// call's result alone: the first write to it comes in the node's next
// round, when recv or Next hands over that round's inbox.
func (p *Proc) exchange(rounds int) *exchangeState {
	x := p.x
	if x == nil {
		n := p.N()
		x = &exchangeState{acc: make([]*bits.Buffer, n), bufs: make([]bits.Buffer, n), live: make([]int, 0, n)}
		x.stageBroadcast = func(r int) error {
			off := r * p.Bandwidth()
			if off >= x.payload.Len() {
				return nil
			}
			x.chunk.Reset()
			if err := x.chunk.AppendRange(x.payload, off, min(off+p.Bandwidth(), x.payload.Len())); err != nil {
				return err
			}
			return p.Broadcast(&x.chunk)
		}
		x.stageUnicast = func(r int) error {
			b := p.Bandwidth()
			off := r * b
			live := x.live[:0]
			for _, d := range x.live {
				buf := x.perDst[d]
				x.chunk.Reset()
				if err := x.chunk.AppendRange(buf, off, min(off+b, buf.Len())); err != nil {
					return err
				}
				if err := p.Send(d, &x.chunk); err != nil {
					return err
				}
				if off+b < buf.Len() {
					live = append(live, d)
				}
			}
			x.live = live
			return nil
		}
		x.recv = func(r int, in []*bits.Buffer) error {
			if r == 0 {
				clear(x.acc)
			}
			for src, msg := range in {
				if msg == nil {
					continue
				}
				if x.acc[src] == nil {
					// A link carries at most rounds*b bits, so one
					// hint-sized reopen avoids regrowth as chunks append.
					x.acc[src] = x.bufs[src].Reopen(x.rounds * p.Bandwidth())
				}
				x.acc[src].Append(msg)
			}
			return nil
		}
		p.x = x
	}
	x.rounds = rounds
	return x
}

// seal makes a multi-round call's reassembled entries read-only.
func (x *exchangeState) seal() {
	for _, b := range x.acc {
		if b != nil {
			b.Freeze()
		}
	}
}

// EncodeAdjacencyRow writes a node's adjacency bitset (n bits) into a
// buffer — the trivial "broadcast your entire neighborhood" encoding used
// by the paper's O(n log n / b) baseline (there stated as adjacency lists;
// we use the n-bit row, which is never larger for the dense instances the
// baseline is invoked on).
func EncodeAdjacencyRow(row []uint64, n int) *bits.Buffer {
	out := bits.New(n)
	for i := 0; i < n; i++ {
		out.WriteBit((row[i/64] >> uint(i%64)) & 1)
	}
	return out
}

// DecodeAdjacencyRow parses an n-bit adjacency row.
func DecodeAdjacencyRow(buf *bits.Buffer, n int) ([]uint64, error) {
	if buf.Len() < n {
		return nil, fmt.Errorf("core: adjacency row has %d bits, want %d", buf.Len(), n)
	}
	r := bits.NewReader(buf)
	row := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		v, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		if v != 0 {
			row[i/64] |= 1 << uint(i%64)
		}
	}
	return row, nil
}
