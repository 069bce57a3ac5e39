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
package routing

import (
	"errors"
	"fmt"
	"sort"
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
	mu sync.Mutex
	ep *epoch
}

type epoch struct {
	mu        sync.Mutex
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

// submit registers a node's outgoing messages and returns the epoch.
func (rt *Router) submit(p *core.Proc, out []Msg, maxPayloadBits int) (*epoch, error) {
	if p.Model() != core.Unicast {
		return nil, ErrModel
	}
	for _, m := range out {
		if m.Src != p.ID() {
			return nil, fmt.Errorf("%w: node %d submitted message from %d", ErrWrongSource, p.ID(), m.Src)
		}
		if m.Payload.Len() > maxPayloadBits {
			return nil, fmt.Errorf("%w: %d > %d bits", ErrPayloadTooLong, m.Payload.Len(), maxPayloadBits)
		}
		if m.Dst < 0 || m.Dst >= rt.n {
			return nil, fmt.Errorf("routing: destination %d out of range", m.Dst)
		}
	}
	rt.mu.Lock()
	if rt.ep == nil {
		rt.ep = &epoch{n: rt.n}
	}
	e := rt.ep
	rt.mu.Unlock()

	e.mu.Lock()
	e.msgs = append(e.msgs, out...)
	e.submitted++
	if e.submitted == rt.n {
		// Epoch closed; the next Route call begins a fresh one.
		rt.mu.Lock()
		rt.ep = nil
		rt.mu.Unlock()
	}
	e.mu.Unlock()
	return e, nil
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
	e.scheduleOnce.Do(func() { e.computeSchedule() })

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
	myByClass := sc.byClass(e.classes)
	held := sc.heldSlots(subRounds * n) // class -> messages held as intermediate
	perDst := sc.dsts(n)
	var local []Msg // self-addressed messages skip the network
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
	var rd bits.Reader
	for s := 0; s < subRounds; s++ {
		for i := range perDst {
			perDst[i] = nil
		}
		for c := s * n; c < (s+1)*n && c < e.classes; c++ {
			m := myByClass[c]
			if m == nil {
				continue
			}
			inter := c % n
			if inter == p.ID() {
				held[c] = append(held[c], heldMsg{m: *m})
				continue
			}
			buf := bits.Get(w + m.Payload.Len())
			buf.WriteUint(uint64(m.Dst), w)
			buf.Append(m.Payload)
			perDst[inter] = buf
		}
		got, err := core.ExchangeUnicast(p, perDst, chunk)
		for _, b := range perDst {
			b.Release()
		}
		if err != nil {
			return nil, err
		}
		for src, buf := range got {
			if buf == nil {
				continue
			}
			rd.Reset(buf)
			dst64, err := rd.ReadUint(w)
			if err != nil || int(dst64) >= n {
				// Truncated or corrupted relay header — possible only under
				// fault injection, never on a clean channel. Treat the
				// message as lost instead of failing the epoch: absence is
				// what the protocol layer's frame validation detects.
				buf.Release()
				continue
			}
			payload, err := buf.Slice(w, buf.Len())
			if err != nil {
				return nil, err
			}
			buf.Release()
			c := s*n + p.ID()
			held[c] = append(held[c], heldMsg{m: Msg{Src: src, Dst: int(dst64), Payload: payload}, owned: true})
		}
	}

	// Phase 2: intermediate -> destination.
	if p.ID() == 0 {
		p.Annotate("route:deliver")
	}
	recv := make([]Msg, 0, inDeg)
	for s := 0; s < subRounds; s++ {
		for i := range perDst {
			perDst[i] = nil
		}
		c := s*n + p.ID()
		for _, h := range held[c] {
			m := h.m
			if m.Dst == p.ID() {
				recv = append(recv, m)
				continue
			}
			if perDst[m.Dst] != nil {
				// A corrupted phase-1 header collided with a legitimate
				// message's relay slot (clean-channel coloring guarantees
				// one message per destination per class). First wins; the
				// loser counts as lost in transit.
				if h.owned {
					m.Payload.Release()
				}
				continue
			}
			buf := bits.Get(w + m.Payload.Len())
			buf.WriteUint(uint64(m.Src), w)
			buf.Append(m.Payload)
			if h.owned {
				m.Payload.Release()
			}
			perDst[m.Dst] = buf
		}
		got, err := core.ExchangeUnicast(p, perDst, chunk)
		for _, b := range perDst {
			b.Release()
		}
		if err != nil {
			return nil, err
		}
		for _, buf := range got {
			if buf == nil {
				continue
			}
			rd.Reset(buf)
			src64, err := rd.ReadUint(w)
			if err != nil || int(src64) >= n {
				// Lost or corrupted relay header: drop, as in phase 1.
				buf.Release()
				continue
			}
			payload, err := buf.Slice(w, buf.Len())
			if err != nil {
				return nil, err
			}
			buf.Release()
			recv = append(recv, Msg{Src: int(src64), Dst: p.ID(), Payload: payload})
		}
	}
	recv = append(recv, local...)
	sort.Stable(msgsBySrc(recv))
	return recv, nil
}

// msgsBySrc sorts messages by source without reflection.
type msgsBySrc []Msg

func (m msgsBySrc) Len() int           { return len(m) }
func (m msgsBySrc) Less(i, j int) bool { return m[i].Src < m[j].Src }
func (m msgsBySrc) Swap(i, j int)      { m[i], m[j] = m[j], m[i] }

// heldMsg tracks payload ownership through the relay: payloads sliced out
// of phase-1 relay frames are pool-owned by the router and released once
// relayed; payloads held because this node is the intermediate of its own
// message belong to the caller and are never released.
type heldMsg struct {
	m     Msg
	owned bool
}

// routeScratch holds one Route call's fixed-size slices, recycled through
// scratchPool. Resizes keep capacity; acquired ranges are cleared before
// use.
type routeScratch struct {
	myByClass []*Msg
	held      [][]heldMsg
	perDst    []*bits.Buffer
}

var scratchPool = sync.Pool{New: func() interface{} { return new(routeScratch) }}

func (sc *routeScratch) byClass(n int) []*Msg {
	if cap(sc.myByClass) < n {
		sc.myByClass = make([]*Msg, n)
	}
	sc.myByClass = sc.myByClass[:n]
	for i := range sc.myByClass {
		sc.myByClass[i] = nil
	}
	return sc.myByClass
}

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

func (sc *routeScratch) dsts(n int) []*bits.Buffer {
	if cap(sc.perDst) < n {
		sc.perDst = make([]*bits.Buffer, n)
	}
	sc.perDst = sc.perDst[:n]
	for i := range sc.perDst {
		sc.perDst[i] = nil
	}
	return sc.perDst
}

// computeSchedule greedily edge-colors the demand multigraph. Messages are
// processed in a deterministic order; each takes the smallest class free at
// both endpoints, which uses at most 2Δ-1 classes.
func (e *epoch) computeSchedule() {
	idx := make([]int, len(e.msgs))
	for i := range idx {
		idx[i] = i
	}
	sort.Stable(&idxBySrcDst{idx: idx, msgs: e.msgs})
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
	for _, i := range idx {
		m := e.msgs[i]
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

// idxBySrcDst sorts a message-index permutation by (Src, Dst) without
// reflection.
type idxBySrcDst struct {
	idx  []int
	msgs []Msg
}

func (s *idxBySrcDst) Len() int { return len(s.idx) }
func (s *idxBySrcDst) Less(a, b int) bool {
	ma, mb := s.msgs[s.idx[a]], s.msgs[s.idx[b]]
	if ma.Src != mb.Src {
		return ma.Src < mb.Src
	}
	return ma.Dst < mb.Dst
}
func (s *idxBySrcDst) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
