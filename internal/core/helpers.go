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
// exchange broadcasts a frozen view of the payload (of a copy, for an
// arena payload) and returns the views delivered to this node: they are
// shared with the other recipients and read-only, but never arena
// buffers, so a caller may keep them. A multi-round exchange cuts its
// chunks into arena buffers (Ctx.Msg) and reassembles each sending
// source into one pool buffer (bits.Get).
func ExchangeBroadcasts(p *Proc, payload *bits.Buffer, rounds int) ([]*bits.Buffer, error) {
	b := p.Bandwidth()
	if payload.Len() > rounds*b {
		return nil, fmt.Errorf("core: payload of %d bits exceeds %d rounds * %d bits",
			payload.Len(), rounds, b)
	}
	acc := make([]*bits.Buffer, p.N())
	if rounds == 1 {
		if payload.Len() > 0 {
			msg := payload
			if msg.FromArena() {
				msg = msg.Clone() // the engine recycles a sealed arena buffer
			}
			if err := p.Broadcast(msg); err != nil {
				return nil, err
			}
		}
		copy(acc, p.Next())
	} else {
		err := p.Rounds(rounds, func(r int) error {
			off := r * b
			if off >= payload.Len() {
				return nil
			}
			chunk := p.Msg()
			if err := chunk.AppendRange(payload, off, min(off+b, payload.Len())); err != nil {
				return err
			}
			return p.Broadcast(chunk)
		}, func(_ int, in []*bits.Buffer) error {
			for src, msg := range in {
				if msg == nil {
					continue
				}
				if acc[src] == nil {
					acc[src] = bits.Get(rounds * b)
				}
				acc[src].Append(msg)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	acc[p.ID()] = payload.Clone()
	return acc, nil
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
