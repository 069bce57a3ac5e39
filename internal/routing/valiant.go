package routing

import (
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
	if err := rt.check(p, out, maxPayloadBits); err != nil {
		return nil, err
	}
	n := p.N()
	w := bits.UintWidth(uint64(n - 1))
	chunk := core.ChunkRounds(w+maxPayloadBits, p.Bandwidth())

	var local []Msg
	queues := make([][]Msg, n) // queues[i] = messages to forward via intermediate i
	for _, m := range out {
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
	frames := make([]*bits.Buffer, n)
	for s := 0; s < sub1; s++ {
		for i, q := range queues {
			if s < len(q) {
				frames[i] = relayFrame(q[s].Dst, q[s].Payload, w)
			}
		}
		if err := hop(p, frames, w, chunk, func(src, dst int, payload *bits.Buffer) {
			held = append(held, Msg{Src: src, Dst: dst, Payload: payload})
		}); err != nil {
			return nil, err
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
		maxQ = max(maxQ, len(q))
	}
	sub2, err := agreeMax(p, maxQ)
	if err != nil {
		return nil, err
	}
	for s := 0; s < sub2; s++ {
		for d, q := range fwd {
			if s < len(q) {
				frames[d] = relayFrame(q[s].Src, q[s].Payload, w)
			}
		}
		if err := hop(p, frames, w, chunk, func(_, src int, payload *bits.Buffer) {
			recv = append(recv, Msg{Src: src, Dst: p.ID(), Payload: payload})
		}); err != nil {
			return nil, err
		}
	}
	recv = append(recv, local...)
	return recv, nil
}

// agreeMax agrees on the maximum of every node's local value through
// node 0 (core.AllReduce).
func agreeMax(p *core.Proc, local int) (int, error) {
	v, err := core.AllReduce(p, uint64(local), loadWidth, func(acc, x uint64) uint64 { return max(acc, x) })
	return int(v), err
}
