// Package routing implements O(1)-round routing of balanced message
// demands on the congested clique, standing in for Lenzen's deterministic
// routing algorithm (PODC 2013, reference [28] of the paper). The paper
// uses [28] as a black box: any demand in which every player is the source
// and the destination of at most n messages can be delivered in O(1)
// rounds.
//
// Two routers are provided:
//
//   - Router.Route: a deterministic 2-hop schedule. The demand multigraph
//     (sources x destinations, one edge per message) is greedily
//     edge-colored with at most 2Δ-1 classes; class c travels via
//     intermediate node c mod n, so each phase loads every directed link
//     with at most ceil(C/n) messages. The color schedule is computed by
//     the shared coordinator — standing in for the O(1)-round distributed
//     schedule agreement of [28], as documented in DESIGN.md §4.1 — while
//     every payload bit still crosses the simulated network under full
//     bandwidth enforcement.
//
//   - Router.RouteValiant: randomized 2-hop routing computed entirely
//     in-model (uniform random intermediates plus two in-band max-load
//     aggregation rounds), delivering balanced demands in O(1) rounds with
//     high probability.
//
// Both routers validate a submission with Router.check and move every
// relay sub-round through hop: a frame is a w-bit header (the
// destination on the first hop, the source on the second) followed by
// the payload, with w = UintWidth(n-1). Each node's frames and the
// payloads it holds or receives live in its own relay state on the
// Router, which every call of that node reuses.
package routing

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bits"
	"repro/internal/core"
)

// Msg is one routed message.
type Msg struct {
	Src, Dst int
	Payload  *bits.Buffer
}

// Errors returned by the router.
var (
	ErrPayloadTooLong = errors.New("routing: payload exceeds declared maximum")
	ErrWrongSource    = errors.New("routing: message source is not the submitting node")
	ErrModel          = errors.New("routing: router requires the unicast clique model")
)

// Router coordinates routing epochs. All nodes of one run must share a
// single Router and must call Route (or RouteValiant) in the same round
// with the same maxPayloadBits.
type Router struct {
	n     int
	mu    sync.Mutex // guards ep and the open epoch's msgs and submitted
	ep    *epoch
	nodes []relay // nodes[i] is node i's relay state
}

type epoch struct {
	msgs      []Msg
	submitted int
	n         int

	scheduleOnce sync.Once
	color        []int // color[i] = class of msgs[i]
	classes      int
}

// NewRouter returns a Router for an n-player clique.
func NewRouter(n int) *Router {
	return &Router{n: n, nodes: make([]relay, n)}
}

// check validates a node's submission: the model, and each message's
// source, payload length and destination.
func (rt *Router) check(p *core.Proc, out []Msg, maxPayloadBits int) error {
	if p.Model() != core.Unicast {
		return ErrModel
	}
	for _, m := range out {
		if m.Src != p.ID() {
			return fmt.Errorf("%w: node %d submitted message from %d", ErrWrongSource, p.ID(), m.Src)
		}
		if m.Payload.Len() > maxPayloadBits {
			return fmt.Errorf("%w: %d > %d bits", ErrPayloadTooLong, m.Payload.Len(), maxPayloadBits)
		}
		if m.Dst < 0 || m.Dst >= rt.n {
			return fmt.Errorf("routing: destination %d out of range", m.Dst)
		}
	}
	return nil
}

// submit registers a node's outgoing messages and returns the epoch.
func (rt *Router) submit(p *core.Proc, out []Msg, maxPayloadBits int) (*epoch, error) {
	if err := rt.check(p, out, maxPayloadBits); err != nil {
		return nil, err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.ep == nil {
		rt.ep = &epoch{n: rt.n}
	}
	e := rt.ep
	e.msgs = append(e.msgs, out...)
	e.submitted++
	if e.submitted == rt.n {
		rt.ep = nil // epoch closed; the next Route call begins a fresh one
	}
	return e, nil
}

// relay is one node's state across its Route and RouteValiant calls:
// the relay frames it sends, the payloads it holds as an intermediate,
// the payloads it receives and its per-call lists. Only the node's body
// and its Rounds callbacks touch it, so it needs no lock. Each call
// reuses it from the start, which is why a result is valid only until
// the node's next call.
type relay struct {
	frames    []*bits.Buffer // frames[d]: the sub-round's frame to d; empty = nothing
	frameBits int            // the frames' carved size in bits
	inter     row            // payloads held as an intermediate
	recvd     row            // payloads received
	myByClass []*Msg         // Route: this node's messages by class
	held      []Msg          // Route: the messages held as an intermediate, by sub-round
	ends      []int          // Route: ends[s] is where sub-round s's held messages end
}

// ready sizes the node's n relay frames for frames of up to frameBits
// bits, carving them from one slab; it regrows them only when a call
// needs more room than the last.
func (st *relay) ready(n, frameBits int) {
	if len(st.frames) == n && frameBits <= st.frameBits {
		return
	}
	slab := bits.NewRow(n, frameBits)
	st.frames = make([]*bits.Buffer, n)
	for d := range slab {
		st.frames[d] = &slab[d]
	}
	st.frameBits = frameBits
}

// stage writes the relay frame of payload to d: the w-bit header hdr,
// then the payload bits.
func (st *relay) stage(d, hdr int, payload *bits.Buffer, w int) {
	st.frames[d].WriteUint(uint64(hdr), w)
	st.frames[d].Append(payload)
}

// hop is one relay sub-round of either router: it sends the staged
// frames (an empty frame sends nothing) with one chunked
// core.ExchangeUnicast of `chunk` rounds, empties them, and hands each
// arrival's source, w-bit header and payload to got, in ascending source
// order. The payload is copied out of the exchange's result into the
// next buffer of `into` and sealed. A frame whose header is truncated or
// reads >= n — possible only under fault injection, never on a clean
// channel — is dropped as lost in transit instead of failing the epoch:
// absence is what the protocol layer's frame validation detects.
func (st *relay) hop(p *core.Proc, into *row, w, chunk int, got func(src, hdr int, payload *bits.Buffer)) error {
	in, err := core.ExchangeUnicast(p, st.frames, chunk)
	for _, f := range st.frames {
		f.Reset()
	}
	if err != nil {
		return err
	}
	var rd bits.Reader
	for src, buf := range in {
		if buf == nil {
			continue
		}
		rd.Reset(buf)
		hdr, err := rd.ReadUint(w)
		if err != nil || hdr >= uint64(p.N()) {
			continue
		}
		payload := into.next(buf.Len() - w)
		if err := payload.AppendRange(buf, w, buf.Len()); err != nil {
			return err
		}
		got(src, int(hdr), payload.Freeze())
	}
	return nil
}

// row is a run of payload buffers carved from one slab (bits.NewRow),
// handed out in order by next and reused from the first by the node's
// next call.
type row struct {
	bufs []bits.Buffer
	size int // the carved size of each buffer in bits
	used int
}

// reset readies r for a call that expects count payloads of up to
// payloadBits bits, regrowing the slab only when it is too small.
func (r *row) reset(count, payloadBits int) {
	if count > len(r.bufs) || payloadBits > r.size {
		r.bufs, r.size = bits.NewRow(count, payloadBits), payloadBits
	}
	r.used = 0
}

// next returns the row's next buffer, emptied and writable, with room
// for sizeHint bits. Past the expected count (possible only under fault
// injection) the row grows by one buffer; the buffers already handed out
// stay where they are.
func (r *row) next(sizeHint int) *bits.Buffer {
	if r.used == len(r.bufs) {
		r.bufs = append(r.bufs, bits.Buffer{})
	}
	r.used++
	return r.bufs[r.used-1].Reopen(sizeHint)
}

// Route delivers all messages submitted this epoch and returns the ones
// destined to this node, ordered by (source, submission order). Every node
// must call Route in the same round, passing its own outgoing messages
// (possibly none) and the globally agreed maximum payload size in bits.
//
// Buffer ownership: submitted payloads are copied into relay frames, so
// the caller may reuse them once Route returns, except self-addressed
// messages (Src == Dst), whose own buffer is handed back in the result.
// Every other returned payload belongs to the node's relay state: it is
// sealed (a write panics) and valid until the node's next Route or
// RouteValiant call on this Router, which reuses it. Read or copy out
// what must last before then, and copy a payload before submitting it
// to another call. No caller releases anything.
//
// Round cost: 2 * ceil(C/n) * ceil((log2(n)+maxPayloadBits)/b) rounds,
// where C <= 2Δ-1 and Δ is the maximum number of messages any single node
// sends or receives. For Lenzen-balanced demands (Δ <= n) and bandwidth
// b >= log2(n)+maxPayloadBits this is at most 4 rounds.
func (rt *Router) Route(p *core.Proc, out []Msg, maxPayloadBits int) ([]Msg, error) {
	// Phase boundaries for round tracing (node 0 only — the repo's
	// convention for global markers; free when the run is untraced).
	if p.ID() == 0 {
		p.Annotate("route:submit")
	}
	e, err := rt.submit(p, out, maxPayloadBits)
	if err != nil {
		return nil, err
	}
	// Barrier: after this Next, every node has submitted.
	p.Next()
	e.scheduleOnce.Do(e.computeSchedule)

	n, me := rt.n, p.ID()
	w := bits.UintWidth(uint64(n - 1))
	subRounds := (e.classes + n - 1) / n
	chunk := core.ChunkRounds(w+maxPayloadBits, p.Bandwidth())

	// myByClass indexes this node's messages by class (the coloring gives
	// each of them a distinct class). The schedule also fixes how many
	// messages this node holds as the intermediate of class s*n+me (in
	// phase 1) and how many reach it as their destination (in phase 2),
	// which sizes the lists and rows they go to.
	st := &rt.nodes[me]
	st.myByClass = resized(st.myByClass, e.classes)
	var local []Msg // self-addressed messages skip the network
	inDeg, relayed, delivered := 0, 0, 0
	for i, m := range e.msgs {
		if m.Dst == me {
			inDeg++
		}
		c := e.color[i]
		if c < 0 {
			if m.Src == me {
				local = append(local, m)
			}
			continue
		}
		if m.Src == me {
			st.myByClass[c] = &e.msgs[i]
		}
		if c%n == me {
			relayed++
		} else if m.Dst == me {
			delivered++
		}
	}
	st.ready(n, w+maxPayloadBits)
	st.inter.reset(relayed, maxPayloadBits)
	st.recvd.reset(delivered, maxPayloadBits)
	if cap(st.held) < relayed {
		st.held = make([]Msg, 0, relayed)
	}
	held, ends := st.held[:0], resized(st.ends, subRounds)

	// Phase 1: source -> intermediate (class c travels via node c mod n).
	if me == 0 {
		p.Annotate("route:spread")
	}
	for s := 0; s < subRounds; s++ {
		for c := s * n; c < (s+1)*n && c < e.classes; c++ {
			m := st.myByClass[c]
			if m == nil {
				continue
			}
			if inter := c % n; inter == me {
				held = append(held, *m)
			} else {
				st.stage(inter, m.Dst, m.Payload, w)
			}
		}
		if err := st.hop(p, &st.inter, w, chunk, func(src, dst int, payload *bits.Buffer) {
			held = append(held, Msg{Src: src, Dst: dst, Payload: payload})
		}); err != nil {
			return nil, err
		}
		ends[s] = len(held)
	}
	st.held, st.ends = held, ends

	// Phase 2: intermediate -> destination.
	if me == 0 {
		p.Annotate("route:deliver")
	}
	recv := make([]Msg, 0, inDeg)
	from := 0
	for _, end := range ends {
		for _, m := range held[from:end] {
			if m.Dst == me {
				recv = append(recv, m)
				continue
			}
			// A taken slot means a corrupted phase-1 header collided with
			// a legitimate message's relay slot (clean-channel coloring
			// guarantees one message per destination per class). First
			// wins; the loser counts as lost in transit.
			if st.frames[m.Dst].Len() == 0 {
				st.stage(m.Dst, m.Src, m.Payload, w)
			}
		}
		from = end
		if err := st.hop(p, &st.recvd, w, chunk, func(_, src int, payload *bits.Buffer) {
			recv = append(recv, Msg{Src: src, Dst: me, Payload: payload})
		}); err != nil {
			return nil, err
		}
	}
	recv = append(recv, local...)
	slices.SortStableFunc(recv, func(a, b Msg) int { return cmp.Compare(a.Src, b.Src) })
	return recv, nil
}

// resized returns s resized to n entries, all zero, reusing its capacity.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// computeSchedule greedily edge-colors the demand multigraph. It first
// stable-sorts the messages by (Src, Dst), which makes their order
// independent of the order the nodes submitted in; each message in turn
// takes the smallest class free at both endpoints, which uses at most
// 2Δ-1 classes.
func (e *epoch) computeSchedule() {
	slices.SortStableFunc(e.msgs, func(a, b Msg) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	e.color = make([]int, len(e.msgs))
	// Per-endpoint used-class bitsets (classes are small — at most 2Δ-1 —
	// so a few words per endpoint beat per-class maps).
	srcUsed := make([][]uint64, e.n)
	dstUsed := make([][]uint64, e.n)
	used := func(bs []uint64, c int) bool { return c>>6 < len(bs) && bs[c>>6]&(1<<uint(c&63)) != 0 }
	set := func(bs []uint64, c int) []uint64 {
		for c>>6 >= len(bs) {
			bs = append(bs, 0)
		}
		bs[c>>6] |= 1 << uint(c&63)
		return bs
	}
	maxClass := 0
	for i, m := range e.msgs {
		if m.Src == m.Dst {
			e.color[i] = -1 // local, never scheduled
			continue
		}
		c := 0
		for used(srcUsed[m.Src], c) || used(dstUsed[m.Dst], c) {
			c++
		}
		srcUsed[m.Src] = set(srcUsed[m.Src], c)
		dstUsed[m.Dst] = set(dstUsed[m.Dst], c)
		e.color[i] = c
		if c+1 > maxClass {
			maxClass = c + 1
		}
	}
	if maxClass == 0 {
		maxClass = 1
	}
	e.classes = maxClass
}
