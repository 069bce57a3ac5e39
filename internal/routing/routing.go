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
// the payload, with w = UintWidth(n-1).
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
	n  int
	mu sync.Mutex // guards ep and the open epoch's msgs and submitted
	ep *epoch
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
	return &Router{n: n}
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

// relayFrame builds the relay frame of payload: the w-bit header hdr,
// then the payload bits. It is drawn from the bits pool; hop releases it.
func relayFrame(hdr int, payload *bits.Buffer, w int) *bits.Buffer {
	buf := bits.Get(w + payload.Len())
	buf.WriteUint(uint64(hdr), w)
	buf.Append(payload)
	return buf
}

// hop is one relay sub-round of either router: it sends frames[d] (nil =
// nothing) to each d with one chunked core.ExchangeUnicast of `chunk`
// rounds, releases and clears the frames, and hands each arrival's
// source, w-bit header and payload (copied out of the exchange's result
// into a bits pool buffer) to got, in ascending source order. A frame
// whose header is truncated or reads >= n — possible only under fault
// injection, never on a clean channel — is dropped as lost in transit
// instead of failing the epoch: absence is what the protocol layer's
// frame validation detects.
func hop(p *core.Proc, frames []*bits.Buffer, w, chunk int, got func(src, hdr int, payload *bits.Buffer)) error {
	in, err := core.ExchangeUnicast(p, frames, chunk)
	for _, f := range frames {
		f.Release()
	}
	clear(frames)
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
		payload, err := buf.Slice(w, buf.Len())
		if err != nil {
			return err
		}
		got(src, int(hdr), payload)
	}
	return nil
}

// Route delivers all messages submitted this epoch and returns the ones
// destined to this node, ordered by (source, submission order). Every node
// must call Route in the same round, passing its own outgoing messages
// (possibly none) and the globally agreed maximum payload size in bits.
//
// Buffer ownership: submitted payloads are copied into relay frames, so
// the caller may Release them once Route returns — except self-addressed
// messages (Src == Dst), whose original payload is handed back in the
// result. Received payloads are drawn from the bits pool; callers on hot
// paths may Release them after consuming the bits.
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

	n := rt.n
	w := bits.UintWidth(uint64(n - 1))
	subRounds := (e.classes + n - 1) / n
	chunk := core.ChunkRounds(w+maxPayloadBits, p.Bandwidth())

	// Per-call slices come from a pool: their lifetimes end when Route
	// returns, and Route runs once per player per routing epoch.
	//
	// myByClass indexes this node's messages by class (the coloring gives
	// each of them a distinct class); held is sized to subRounds*n so the
	// phase-2 read of class s*n+id is always in range even when that
	// class is empty.
	sc := scratchPool.Get().(*routeScratch)
	defer scratchPool.Put(sc)
	sc.myByClass = resized(sc.myByClass, e.classes)
	sc.frames = resized(sc.frames, n)
	myByClass, frames := sc.myByClass, sc.frames
	held := sc.heldSlots(subRounds * n) // class -> messages held as intermediate
	var local []Msg                     // self-addressed messages skip the network
	inDeg := 0
	for i, m := range e.msgs {
		if m.Dst == p.ID() {
			inDeg++
		}
		if m.Src != p.ID() {
			continue
		}
		if m.Dst == m.Src {
			local = append(local, m)
			continue
		}
		myByClass[e.color[i]] = &e.msgs[i]
	}

	// Phase 1: source -> intermediate (class c travels via node c mod n).
	if p.ID() == 0 {
		p.Annotate("route:spread")
	}
	for s := 0; s < subRounds; s++ {
		for c := s * n; c < (s+1)*n && c < e.classes; c++ {
			m := myByClass[c]
			if m == nil {
				continue
			}
			if inter := c % n; inter == p.ID() {
				held[c] = append(held[c], heldMsg{m: *m})
			} else {
				frames[inter] = relayFrame(m.Dst, m.Payload, w)
			}
		}
		c := s*n + p.ID()
		if err := hop(p, frames, w, chunk, func(src, dst int, payload *bits.Buffer) {
			held[c] = append(held[c], heldMsg{m: Msg{Src: src, Dst: dst, Payload: payload}, owned: true})
		}); err != nil {
			return nil, err
		}
	}

	// Phase 2: intermediate -> destination.
	if p.ID() == 0 {
		p.Annotate("route:deliver")
	}
	recv := make([]Msg, 0, inDeg)
	for s := 0; s < subRounds; s++ {
		for _, h := range held[s*n+p.ID()] {
			m := h.m
			if m.Dst == p.ID() {
				recv = append(recv, m)
				continue
			}
			// A taken slot means a corrupted phase-1 header collided with
			// a legitimate message's relay slot (clean-channel coloring
			// guarantees one message per destination per class). First
			// wins; the loser counts as lost in transit.
			if frames[m.Dst] == nil {
				frames[m.Dst] = relayFrame(m.Src, m.Payload, w)
			}
			if h.owned {
				m.Payload.Release()
			}
		}
		if err := hop(p, frames, w, chunk, func(_, src int, payload *bits.Buffer) {
			recv = append(recv, Msg{Src: src, Dst: p.ID(), Payload: payload})
		}); err != nil {
			return nil, err
		}
	}
	recv = append(recv, local...)
	slices.SortStableFunc(recv, func(a, b Msg) int { return cmp.Compare(a.Src, b.Src) })
	return recv, nil
}

// heldMsg tracks payload ownership through the relay: payloads sliced out
// of phase-1 relay frames are pool-owned by the router and released once
// relayed; payloads held because this node is the intermediate of its own
// message belong to the caller and are never released.
type heldMsg struct {
	m     Msg
	owned bool
}

// routeScratch holds one Route call's fixed-size slices, recycled through
// scratchPool.
type routeScratch struct {
	myByClass []*Msg
	held      [][]heldMsg
	frames    []*bits.Buffer
}

var scratchPool = sync.Pool{New: func() interface{} { return new(routeScratch) }}

// resized returns s resized to n entries, all zero, reusing its capacity.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// heldSlots resizes the held lists to n, emptying each list but keeping
// its capacity.
func (sc *routeScratch) heldSlots(n int) [][]heldMsg {
	if cap(sc.held) < n {
		sc.held = make([][]heldMsg, n)
	}
	sc.held = sc.held[:n]
	for i := range sc.held {
		sc.held[i] = sc.held[i][:0]
	}
	return sc.held
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
