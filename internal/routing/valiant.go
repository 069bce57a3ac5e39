package routing

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/core"
)

// loadWidth is the fixed wire width used for max-load aggregation values.
const loadWidth = 32

// RouteValiant delivers the demand with randomized 2-hop (Valiant) routing
// computed entirely inside the model: every message picks a uniformly
// random intermediate, and the number of forwarding sub-rounds for each
// phase is agreed in-band by aggregating the maximum per-link queue length
// through node 0 (two O(1)-round aggregations). For Lenzen-balanced demands
// the sub-round count is O(log n / log log n) with high probability, so the
// total round count is O(1) for bandwidth b = Ω(log n + payload).
//
// Unlike Route, no out-of-band schedule exists: every bit of coordination
// crosses the simulated network.
func (rt *Router) RouteValiant(p *core.Proc, out []Msg, maxPayloadBits int) ([]Msg, error) {
	if p.Model() != core.Unicast {
		return nil, ErrModel
	}
	n := p.N()
	w := bits.UintWidth(uint64(n - 1))
	chunk := core.ChunkRounds(w+maxPayloadBits, p.Bandwidth())

	var local []Msg
	queues := make([][]Msg, n) // queues[i] = messages to forward via intermediate i
	for _, m := range out {
		if m.Src != p.ID() {
			return nil, fmt.Errorf("%w: node %d submitted message from %d", ErrWrongSource, p.ID(), m.Src)
		}
		if m.Payload.Len() > maxPayloadBits {
			return nil, fmt.Errorf("%w: %d > %d bits", ErrPayloadTooLong, m.Payload.Len(), maxPayloadBits)
		}
		if m.Dst == p.ID() {
			local = append(local, m)
			continue
		}
		inter := p.Rand().Intn(n)
		queues[inter] = append(queues[inter], m)
	}

	maxQ := 0
	for i, q := range queues {
		if i != p.ID() && len(q) > maxQ {
			maxQ = len(q)
		}
	}
	sub1, err := agreeMax(p, maxQ)
	if err != nil {
		return nil, err
	}

	// Phase 1: source -> random intermediate.
	held := queues[p.ID()] // self-intermediated messages stay local
	queues[p.ID()] = nil
	for s := 0; s < sub1; s++ {
		perDst := make([]*bits.Buffer, n)
		for i, q := range queues {
			if s >= len(q) {
				continue
			}
			m := q[s]
			buf := bits.New(w + m.Payload.Len())
			buf.WriteUint(uint64(m.Dst), w)
			buf.Append(m.Payload)
			perDst[i] = buf
		}
		got, err := core.ExchangeUnicast(p, perDst, chunk)
		if err != nil {
			return nil, err
		}
		for src, buf := range got {
			if buf == nil {
				continue
			}
			m, err := decodeRouted(buf, w, src, -1)
			if err != nil {
				return nil, err
			}
			held = append(held, m)
		}
	}

	// Phase 2: intermediate -> destination.
	fwd := make([][]Msg, n)
	var recv []Msg
	for _, m := range held {
		if m.Dst == p.ID() {
			recv = append(recv, m)
			continue
		}
		fwd[m.Dst] = append(fwd[m.Dst], m)
	}
	maxQ = 0
	for _, q := range fwd {
		if len(q) > maxQ {
			maxQ = len(q)
		}
	}
	sub2, err := agreeMax(p, maxQ)
	if err != nil {
		return nil, err
	}
	for s := 0; s < sub2; s++ {
		perDst := make([]*bits.Buffer, n)
		for d, q := range fwd {
			if s >= len(q) {
				continue
			}
			m := q[s]
			buf := bits.New(w + m.Payload.Len())
			buf.WriteUint(uint64(m.Src), w)
			buf.Append(m.Payload)
			perDst[d] = buf
		}
		got, err := core.ExchangeUnicast(p, perDst, chunk)
		if err != nil {
			return nil, err
		}
		for _, buf := range got {
			if buf == nil {
				continue
			}
			m, err := decodeRouted(buf, w, -1, p.ID())
			if err != nil {
				return nil, err
			}
			recv = append(recv, m)
		}
	}
	recv = append(recv, local...)
	return recv, nil
}

// decodeRouted parses a routed wire message. Exactly one of src, dst is -1:
// the -1 field is read from the header, the other is known from context.
func decodeRouted(buf *bits.Buffer, w, src, dst int) (Msg, error) {
	r := bits.NewReader(buf)
	hdr, err := r.ReadUint(w)
	if err != nil {
		return Msg{}, fmt.Errorf("routing: bad header: %w", err)
	}
	payload, err := buf.Slice(w, buf.Len())
	if err != nil {
		return Msg{}, err
	}
	if src == -1 {
		src = int(hdr)
	} else {
		dst = int(hdr)
	}
	return Msg{Src: src, Dst: dst, Payload: payload}, nil
}

// agreeMax agrees on the maximum of every node's local value through
// node 0 (core.AllReduce).
func agreeMax(p *core.Proc, local int) (int, error) {
	v, err := core.AllReduce(p, uint64(local), loadWidth, func(acc, x uint64) uint64 { return max(acc, x) })
	return int(v), err
}
