package sketch

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/routing"
)

// Aggregation selects how merged-component sketch stacks travel to their
// new leader after a Borůvka merge.
type Aggregation int

const (
	// DirectAgg streams each losing leader's remaining stack to the
	// winning leader over their single direct link (one
	// core.ExchangeUnicast): simple, ceil(stackBits/b) rounds per
	// phase.
	DirectAgg Aggregation = iota
	// LenzenAgg splits each stack into per-copy messages and ships them
	// through the Lenzen router (internal/routing), spreading the load
	// over all n-1 links of every loser: the O(1)-round concentration the
	// paper's routing black box buys (DESIGN.md §10).
	LenzenAgg
	// DirectFramedAgg is DirectAgg hardened for lossy links: every
	// (class, copy) sampler travels in its own checksummed frame
	// (routing.EncodeFrame) tagged with its coordinates, and a record
	// that is lost or fails validation poisons that copy of the merged
	// stack instead of aborting the run. A leader probing a poisoned
	// copy broadcasts statusStalled and retries on the next copy — the
	// stack's slack copies are exactly the budget this recovery spends.
	DirectFramedAgg
	// LenzenFramedAgg applies the same frame-and-poison hardening to the
	// Lenzen-routed concentration.
	LenzenFramedAgg
)

func (a Aggregation) String() string {
	switch a {
	case DirectAgg:
		return "direct"
	case LenzenAgg:
		return "lenzen"
	case DirectFramedAgg:
		return "direct-framed"
	case LenzenFramedAgg:
		return "lenzen-framed"
	default:
		return fmt.Sprintf("Aggregation(%d)", int(a))
	}
}

// framed reports whether the aggregation carries per-copy frames and
// poison-recovery semantics.
func (a Aggregation) framed() bool { return a == DirectFramedAgg || a == LenzenFramedAgg }

// statusRepeats is how many times the framed aggregations repeat each
// phase's status broadcast: a recipient accepts the first repetition
// that passes frame validation, so a status is lost only when all
// repetitions are — which turns a per-message loss rate p into a
// per-status loss rate p^statusRepeats.
const statusRepeats = 3

// stackSlack is the number of spare sampler copies beyond the analytic
// phase bound: recovery failures stall a component for a phase and
// consume a copy, and random-mate coins block a merge with probability
// 1/2, so the stack carries slack for both.
const stackSlack = 10

// Copies returns the sketch-stack depth used by an n-player run with
// `classes` weight classes: one copy per potential phase. Random-mate
// merging shrinks the component count by an expected 1/4 per phase, so
// full contraction takes ~log_{4/3} n ≈ 2.5·log2 n phases in
// expectation, plus class advancements and slack for recovery stalls
// and unlucky coins.
func Copies(n, classes int) int {
	return (5*log2Ceil(n)+1)/2 + 4*classes + stackSlack
}

// mergeCoin is the shared random-mate coin of (phase, leader): true
// marks a head component. A tail component's proposal is applied only
// when its target is a head, so merge trees have depth 1 and the
// component count contracts by an expected constant factor per phase —
// the standard Θ(log n) random-mate schedule, derived deterministically
// from the protocol seed so every player (and both differential legs)
// flips identical coins.
func mergeCoin(seed int64, phase, leader int) bool {
	z := bits.Mix64(uint64(seed) ^ 0xff51afd7ed558ccd*uint64(phase+1) ^ 0xc4ceb9fe1a85ec53*uint64(leader+1))
	return z&1 == 1
}

func log2Ceil(n int) int {
	l := 0
	for 1<<uint(l) < n {
		l++
	}
	return l
}

// CCResult is the outcome of a sketch Borůvka run: the canonical
// component labeling (every vertex labeled with the minimum vertex id of
// its component), the spanning-forest edge certificates collected from
// the merge proposals, per-edge weight classes for MST runs, and the
// run's full accounting.
type CCResult struct {
	Leader      []int    // per-vertex component leader (min member id)
	Components  int      // number of connected components
	Phases      int      // Borůvka phases executed
	Forest      [][2]int // merge-edge certificates (a spanning forest)
	Weights     []uint32 // per-forest-edge weight (MST runs; nil otherwise)
	TotalWeight int64    // sum of Weights (MST runs)
	Stats       core.Stats
}

// ConnectedComponents computes the connected components of g on
// CLIQUE-UCAST(n, bandwidth) by sketch-Borůvka: every player sketches
// its edge-incidence vector, component leaders recover outgoing edges
// from the XOR-merged sketches of their members, and merged components
// concentrate their remaining sketch copies at the new leader. O(log n)
// phases; per-phase cost is the sketch-stack size, not the degree.
func ConnectedComponents(env core.Env, g *graph.Graph, agg Aggregation, bandwidth int, seed int64) (*CCResult, error) {
	return runBoruvka(env, g, nil, 1, agg, bandwidth, seed)
}

// SpanningForest runs ConnectedComponents and validates the edge
// certificates in-model terms: every forest edge must exist in g, the
// forest must be acyclic, and it must span exactly the components of the
// labeling. The Lenzen-routed aggregation is the natural fit here — the
// certificates ride the same merged-sketch concentration.
func SpanningForest(env core.Env, g *graph.Graph, agg Aggregation, bandwidth int, seed int64) (*CCResult, error) {
	res, err := runBoruvka(env, g, nil, 1, agg, bandwidth, seed)
	if err != nil {
		return nil, err
	}
	if err := ValidateForest(g, res); err != nil {
		return nil, err
	}
	return res, nil
}

// MST computes a minimum spanning forest of wg by weight-class sketch
// filtering: edge weights must lie in [1, maxClass], each class keeps
// its own incidence sketch stack, and the Borůvka ladder processes
// classes in increasing order — a component only proposes a class-c edge
// once no class-<c edge leaves any component, which is exactly Kruskal's
// invariant, so the forest's total weight equals the MST weight.
func MST(env core.Env, wg *graph.Weighted, maxClass uint32, agg Aggregation, bandwidth int, seed int64) (*CCResult, error) {
	if maxClass < 1 {
		return nil, fmt.Errorf("sketch: MST needs maxClass >= 1, got %d", maxClass)
	}
	for _, e := range wg.Edges() {
		if w := wg.Weight(e[0], e[1]); w < 1 || w > maxClass {
			return nil, fmt.Errorf("sketch: edge {%d,%d} weight %d outside [1,%d]", e[0], e[1], w, maxClass)
		}
	}
	classOf := func(me, v int) int { return int(wg.Weight(me, v)) - 1 }
	res, err := runBoruvka(env, wg.Graph, classOf, int(maxClass), agg, bandwidth, seed)
	if err != nil {
		return nil, err
	}
	if err := ValidateForest(wg.Graph, res); err != nil {
		return nil, err
	}
	return res, nil
}

// ValidateForest checks a CCResult's certificates against the input
// graph: forest edges must be real edges, acyclic, and reproduce the
// result's own component labeling exactly.
func ValidateForest(g *graph.Graph, res *CCResult) error {
	uf := newUnionFind(g.N())
	for _, e := range res.Forest {
		if !g.HasEdge(e[0], e[1]) {
			return fmt.Errorf("sketch: forest certificate {%d,%d} is not an edge of g", e[0], e[1])
		}
		if !uf.union(e[0], e[1]) {
			return fmt.Errorf("sketch: forest certificates contain a cycle at {%d,%d}", e[0], e[1])
		}
	}
	for v := range res.Leader {
		if uf.find(v) != res.Leader[v] {
			return fmt.Errorf("sketch: forest spans leader %d for vertex %d, labeling says %d",
				uf.find(v), v, res.Leader[v])
		}
	}
	return nil
}

// leader statuses broadcast each phase (2 bits + an edge id).
const (
	statusFinished = 0 // class-c cut sketch is zero: no outgoing edge
	statusStalled  = 1 // sketch nonzero but no cell recovered — retry
	statusPropose  = 2 // edge id follows
)

// nodeOut is one player's output value.
type nodeOut struct {
	leader int
	phases int
	digest uint64
	full   *ccFull // node 0 only
}

// ccFull is the full result carried by node 0; every other node pins it
// with its digest.
type ccFull struct {
	comp    []int
	forest  [][2]int
	weights []uint32
}

// runBoruvka is the shared protocol body. classOf(me, v) maps an
// incident edge {me, v} to its weight class in [0, classes); nil means
// single-class (plain connectivity).
func runBoruvka(env core.Env, g *graph.Graph, classOf func(me, v int) int, classes int, agg Aggregation, bandwidth int, seed int64) (*CCResult, error) {
	n := g.N()
	if n < 2 {
		return trivialCC(n), nil
	}
	universe := EdgeUniverse(n)
	idW := IDBits(universe)
	copies := Copies(n, classes)
	propBits := 2 + idW
	propRounds := core.ChunkRounds(propBits, bandwidth)
	clsW := bits.UintWidth(uint64(classes - 1))
	qW := bits.UintWidth(uint64(copies - 1))
	sampleBits := NewSampler(universe, DefaultFpBits, 0).WireBits()

	rt := routing.NewRouter(n)
	cfg := core.Config{N: n, Bandwidth: bandwidth, Model: core.Unicast, Seed: seed}
	res, err := core.RunProcs(env.Apply(cfg), func(p *core.Proc) error {
		me := p.ID()

		// Per-class incidence stacks of this node's own edges. Stack
		// seeds are shared across players (derived from the protocol
		// seed), which is what makes the per-copy samplers mergeable.
		stacks := make([]*Stack, classes)
		defer releaseStacks(stacks)
		for w := range stacks {
			stacks[w] = NewStack(universe, DefaultFpBits, copies, seed, 0x8bb84b93962eacc9*uint64(w+1))
		}
		for _, v := range g.Neighbors(me) {
			w := 0
			if classOf != nil {
				w = classOf(me, v)
				if w < 0 || w >= classes {
					return fmt.Errorf("sketch: edge {%d,%d} classed %d outside [0,%d)", me, v, w, classes)
				}
			}
			stacks[w].Toggle(EdgeID(n, me, v))
		}

		// Poison marks for the framed aggregations: poisoned[w][q] means
		// this node's merged class-w copy-q sampler lost a contribution
		// in transit (invalid or missing ship record) and its content
		// can't be trusted. Strictly winner-local — shared state is only
		// ever driven by the status broadcasts, so one node's poison
		// shows up to the others as an ordinary stall.
		var poisoned [][]bool
		if agg.framed() {
			poisoned = newPoisoned(classes, copies)
		}
		sc := &msgScratch{}

		// Deterministic shared state every node tracks identically from
		// the broadcast proposals alone.
		comp := make([]int, n)
		for v := range comp {
			comp[v] = v
		}
		finished := make([]bool, n) // finished[l]: leader l done at current class
		var forest [][2]int
		var weights []uint32
		cls := 0
		phases := 0

		// Per-phase scratch, reused across phases: the merge resolution's
		// union-find, the phase's proposals and the leaders it absorbed.
		type prop struct {
			leader int
			edge   uint64
		}
		uf := &unionFind{parent: make([]int, n)}
		props := make([]prop, 0, n)
		losers := make([]int, 0, n)

		for phase := 0; ; phase++ {
			if phase >= copies {
				return fmt.Errorf("sketch: stack exhausted after %d phases (class %d/%d)", phase, cls+1, classes)
			}
			phases = phase + 1
			// Round-trace boundary: one mark per Borůvka phase, node 0
			// only (the global-marker convention; free when untraced).
			if me == 0 {
				p.Annotatef("boruvka:phase %d (class %d)", phase, cls)
			}

			// 1. Leaders probe this phase's sampler of the current class.
			// By the merge invariant, sampler `phase` of a leader's
			// class-c stack is the XOR over all component members'
			// original samplers — the sketch of the component's class-c
			// cut (internal edges cancel).
			status := statusFinished
			var proposal uint64
			if comp[me] == me && !finished[me] {
				if poisoned != nil && poisoned[cls][phase] {
					// This copy lost a merge contribution in transit:
					// its content is garbage, not merely ambiguous.
					// Burn the phase and retry on the next copy.
					status = statusStalled
				} else {
					s := &stacks[cls].Samplers[phase]
					switch {
					case s.IsZero():
						status = statusFinished
					default:
						status = statusStalled
						if id, ok := s.Recover(); ok {
							u, v := EdgeEndpoints(n, id)
							if (comp[u] == me) != (comp[v] == me) {
								status = statusPropose
								proposal = id
							}
						}
					}
				}
			}

			// 2. Unfinished leaders broadcast status (+ edge id); all
			// other nodes stay silent but step the same rounds.
			payload := &sc.status
			payload.Reset()
			if comp[me] == me && !finished[me] {
				payload.WriteUint(uint64(status), 2)
				payload.WriteUint(proposal, idW)
			}
			var got []*bits.Buffer
			var err error
			if agg.framed() {
				got, err = exchangeStatusFramed(p, sc, payload, propBits)
			} else {
				got, err = core.ExchangeBroadcasts(p, payload, propRounds)
			}
			if err != nil {
				return err
			}

			// 3. Everybody resolves the merges locally and identically:
			// proposals processed in ascending leader id over a shared
			// union-by-min structure.
			copy(uf.parent, comp)
			props = props[:0]
			allFinished := true
			anyStalled := false
			for l := 0; l < n; l++ {
				if comp[l] != l || finished[l] {
					continue
				}
				rd := bits.NewReader(got[l])
				st64, err := rd.ReadUint(2)
				if err != nil {
					return fmt.Errorf("sketch: leader %d sent no status: %w", l, err)
				}
				id, err := rd.ReadUint(idW)
				if err != nil {
					return fmt.Errorf("sketch: leader %d sent a truncated proposal: %w", l, err)
				}
				switch st64 {
				case statusFinished:
					finished[l] = true
				case statusStalled:
					anyStalled = true
					allFinished = false
				case statusPropose:
					// Range-check before the id ever reaches EdgeEndpoints:
					// a corrupted broadcast must surface as a detected
					// error, not a panic.
					if id >= uint64(universe) {
						return fmt.Errorf("sketch: leader %d proposed edge id %d outside universe %d (corrupted broadcast?)",
							l, id, universe)
					}
					props = append(props, prop{l, id})
					allFinished = false
				default:
					return fmt.Errorf("sketch: leader %d sent unknown status %d", l, st64)
				}
			}
			merged := false
			losers = losers[:0] // old leaders absorbed this phase, ascending
			apply := func(pr prop) {
				u, v := EdgeEndpoints(n, pr.edge)
				if !uf.union(u, v) {
					return
				}
				merged = true
				e := [2]int{u, v}
				if e[0] > e[1] {
					e[0], e[1] = e[1], e[0]
				}
				forest = append(forest, e)
				if classOf != nil {
					weights = append(weights, uint32(cls+1))
				}
			}
			for _, pr := range props {
				u, v := EdgeEndpoints(n, pr.edge)
				// Random-mate gate: only a tail proposer merges, and only
				// into a head target (phase-start labels on both sides).
				target := comp[u]
				if target == pr.leader {
					target = comp[v]
				}
				if mergeCoin(seed, phase, pr.leader) || !mergeCoin(seed, phase, target) {
					continue
				}
				apply(pr)
			}
			// Progress fallback: if the coins blocked every proposal this
			// phase, apply the lowest-id one unconditionally — a single
			// merge cannot chain, and the endgame (two surviving
			// components, expected four blocked phases per merge) stops
			// burning sketch copies.
			if !merged && len(props) > 0 {
				apply(props[0])
			}
			if merged {
				for l := 0; l < n; l++ {
					if comp[l] == l && uf.find(l) != l {
						losers = append(losers, l)
						finished[l] = false // absorbed: state is stale
					}
				}
				for v := 0; v < n; v++ {
					comp[v] = uf.find(v)
				}
				// A winner that absorbed someone has a changed cut; its
				// finished flag (if any) no longer applies.
				for _, l := range losers {
					finished[comp[l]] = false
				}
			}

			// 4. Losers concentrate their remaining sketch copies
			// (classes >= cls, copies > phase) at their new leader.
			if merged {
				if phase+1 >= copies {
					return fmt.Errorf("sketch: no sketch copies left to ship after phase %d", phase)
				}
				if err := shipStacks(p, rt, sc, agg, stacks, poisoned, losers, comp, cls, phase+1, clsW, qW, sampleBits); err != nil {
					return err
				}
			}

			// 5. Class ladder: advance when every leader is finished at
			// the current class; the run ends when the last class drains.
			// (A merging phase never advances — merged leaders restart
			// unfinished — and a stall blocks advancement for a phase.)
			if allFinished && !merged && !anyStalled {
				cls++
				if cls >= classes {
					break
				}
				for l := range finished {
					finished[l] = false
				}
			}
		}

		out := nodeOut{leader: comp[me], phases: phases, digest: ccDigest(comp, forest, weights)}
		if me == 0 {
			out.full = &ccFull{comp: comp, forest: forest, weights: weights}
		}
		p.SetOutput(out)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return assembleCC(n, res)
}

// msgScratch is the message scratch of one node body of runBoruvka,
// reused by every phase: the status payload, the direct aggregations'
// outgoing streams and the framed aggregations' frames, records and
// accumulators. The per-node slices are allocated on first use.
type msgScratch struct {
	status bits.Buffer    // this phase's status payload
	frame  bits.Buffer    // the status frame, or a ship frame cut out of a stream
	rec    bits.Buffer    // a ship record being built, or a decoded one
	stream bits.Buffer    // DirectAgg's and DirectFramedAgg's outgoing stream
	chunk  bits.Buffer    // DirectFramedAgg's chunk of the round: Send copies it
	perDst []*bits.Buffer // DirectAgg's payloads by destination: stream or nil
	got    []*bits.Buffer // exchangeStatusFramed's result by source
	valid  []bits.Buffer  // valid[src]: src's validated status payload
	acc    []bits.Buffer  // acc[l]: DirectFramedAgg's reassembly of loser l's stream
	out    []routing.Msg  // LenzenFramedAgg's outgoing frames
	seen   []bool         // LenzenFramedAgg's merged tags, one block per loser
}

// exchangeStatusFramed is the framed aggregations' replacement for the
// plain status broadcast: the payload travels inside a checksummed frame
// and the whole broadcast is repeated statusRepeats times, each
// repetition a separate core.ExchangeBroadcasts so a loss in one cannot
// garble another. A recipient keeps the first repetition that validates;
// nodes that broadcast nothing (non-leaders, finished leaders, crashed
// nodes) simply yield nil entries, exactly like core.ExchangeBroadcasts.
// Detection is preserved: a corrupted frame never decodes, so a leader
// whose every repetition was lost shows up as a nil entry the caller
// rejects — shared state is driven only by validated statuses. The
// result lives in sc until the next call; its entry for this node is
// payload itself.
func exchangeStatusFramed(p *core.Proc, sc *msgScratch, payload *bits.Buffer, propBits int) ([]*bits.Buffer, error) {
	n, me := p.N(), p.ID()
	rounds := core.ChunkRounds(routing.FrameBits(propBits), p.Bandwidth())
	frame := &sc.frame
	frame.Reset()
	if payload.Len() > 0 {
		if err := routing.EncodeFrame(frame, payload); err != nil {
			return nil, err
		}
	}
	if sc.got == nil {
		sc.got, sc.valid = make([]*bits.Buffer, n), make([]bits.Buffer, n)
	}
	got := sc.got
	clear(got)
	for rep := 0; rep < statusRepeats; rep++ {
		all, err := core.ExchangeBroadcasts(p, frame, rounds)
		if err != nil {
			return nil, err
		}
		for src, fr := range all {
			if src == me || got[src] != nil || fr == nil {
				continue
			}
			if routing.DecodeFrame(&sc.valid[src], fr) == nil {
				got[src] = &sc.valid[src]
			}
		}
	}
	if payload.Len() > 0 {
		got[me] = payload
	}
	return got, nil
}

// shipStacks moves every loser's remaining sketch copies to its new
// leader, in lock step across all n players. For the framed
// aggregations, `poisoned` is both read (a loser ships poison markers
// for copies it no longer trusts) and written (a winner poisons every
// copy whose record was lost or failed validation).
func shipStacks(p *core.Proc, rt *routing.Router, sc *msgScratch, agg Aggregation, stacks []*Stack,
	poisoned [][]bool, losers []int, comp []int, cls, from, clsW, qW, sampleBits int) error {
	me := p.ID()
	classes := len(stacks)
	copies := len(stacks[0].Samplers)
	iAmLoser := false
	for _, l := range losers {
		if l == me {
			iAmLoser = true
		}
	}
	var myLosers []int // losers whose new leader is me
	for _, l := range losers {
		if comp[l] == me {
			myLosers = append(myLosers, l)
		}
	}

	switch agg {
	case DirectAgg:
		// One chunked stream per loser on its direct link to the winner.
		shipBits := 0
		for w := cls; w < classes; w++ {
			shipBits += stacks[w].WireBitsFrom(from)
		}
		var perDst []*bits.Buffer // nil: a node that lost nothing sends nothing
		if iAmLoser {
			buf := &sc.stream
			buf.Reset()
			for w := cls; w < classes; w++ {
				stacks[w].EncodeFrom(buf, from)
			}
			if sc.perDst == nil {
				sc.perDst = make([]*bits.Buffer, p.N())
			}
			perDst = sc.perDst
			perDst[comp[me]] = buf
		}
		got, err := core.ExchangeUnicast(p, perDst, core.ChunkRounds(shipBits, p.Bandwidth()))
		clear(perDst)
		if err != nil {
			return err
		}
		for _, l := range myLosers {
			if got[l].Len() != shipBits {
				return fmt.Errorf("sketch: winner %d got %d ship bits from %d, want %d", me, got[l].Len(), l, shipBits)
			}
			rd := bits.NewReader(got[l])
			for w := cls; w < classes; w++ {
				if err := stacks[w].MergeWireFrom(rd, from); err != nil {
					return err
				}
			}
		}
		return nil

	case LenzenAgg:
		// One routed message per (class, copy): the stack concentration
		// rides all of the loser's links at once instead of one.
		maxPayload := clsW + qW + sampleBits
		var out []routing.Msg
		if iAmLoser {
			out = make([]routing.Msg, 0, (classes-cls)*(copies-from))
			for w := cls; w < classes; w++ {
				for q := from; q < copies; q++ {
					buf := bits.Get(maxPayload)
					buf.WriteUint(uint64(w), clsW)
					buf.WriteUint(uint64(q), qW)
					stacks[w].Samplers[q].Encode(buf)
					out = append(out, routing.Msg{Src: me, Dst: comp[me], Payload: buf})
				}
			}
		}
		in, err := rt.Route(p, out, maxPayload)
		// Route copied the records into its relay frames (none is
		// self-addressed: a loser's leader is another node).
		for _, m := range out {
			m.Payload.Release()
		}
		if err != nil {
			return err
		}
		want := len(myLosers) * (classes - cls) * (copies - from)
		if len(in) != want {
			return fmt.Errorf("sketch: winner %d routed %d sketch messages, want %d", me, len(in), want)
		}
		for _, m := range in {
			if comp[m.Src] != me {
				return fmt.Errorf("sketch: winner %d got a sketch from non-loser %d", me, m.Src)
			}
			rd := bits.NewReader(m.Payload)
			w64, err := rd.ReadUint(clsW)
			if err != nil {
				return err
			}
			q64, err := rd.ReadUint(qW)
			if err != nil {
				return err
			}
			w, q := int(w64), int(q64)
			if w < cls || w >= classes || q < from || q >= copies {
				return fmt.Errorf("sketch: winner %d got sketch for class %d copy %d outside [%d,%d)x[%d,%d)",
					me, w, q, cls, classes, from, copies)
			}
			if err := stacks[w].Samplers[q].mergeFromWire(rd); err != nil {
				return err
			}
			m.Payload.Release()
		}
		return nil

	case DirectFramedAgg:
		// DirectAgg's chunked stream, hardened: each (class, copy) rides
		// its own checksummed, coordinate-tagged frame, all records are
		// padded to one fixed size (so frame k always occupies the bit
		// window [k*fBits, (k+1)*fBits)), and the winner reassembles by
		// chunk ARRIVAL ROUND into that absolute layout (ZeroExtend +
		// OrRange). A dropped chunk therefore holes only the one or two
		// frames it overlaps — every other frame still validates — and a
		// chunk that arrives in the wrong round (delayed/duplicated) can
		// only garble the windows it lands in, which their CRCs catch.
		recBits := clsW + qW + 1 + sampleBits
		fBits := routing.FrameBits(recBits)
		nrec := (classes - cls) * (copies - from)
		shipBits := nrec * fBits
		b := p.Bandwidth()
		rounds := core.ChunkRounds(shipBits, b)
		var stream *bits.Buffer
		if iAmLoser {
			stream = &sc.stream
			stream.Reset()
			for q := from; q < copies; q++ {
				for w := cls; w < classes; w++ {
					sc.rec.Reset()
					encodeShipRecord(&sc.rec, stacks, poisoned, w, q, clsW, qW)
					sc.rec.ZeroExtend(recBits) // poison markers padded to the fixed record size
					if err := routing.EncodeFrame(stream, &sc.rec); err != nil {
						return err
					}
				}
			}
		}
		if sc.acc == nil {
			sc.acc = make([]bits.Buffer, p.N())
		}
		for _, l := range myLosers {
			sc.acc[l].Reset()
			sc.acc[l].ZeroExtend(shipBits)
		}
		err := p.Rounds(rounds, func(r int) error {
			off := r * b
			if stream == nil || off >= stream.Len() {
				return nil
			}
			sc.chunk.Reset()
			if err := sc.chunk.AppendRange(stream, off, min(off+b, stream.Len())); err != nil {
				return err
			}
			return p.Send(comp[me], &sc.chunk)
		}, func(r int, in []*bits.Buffer) error {
			// Each chunk is ORed into its stream in the round it arrives,
			// while the received buffer is still valid.
			for _, l := range myLosers {
				if msg := in[l]; msg != nil && r*b+msg.Len() <= shipBits {
					if err := sc.acc[l].OrRange(msg, 0, msg.Len(), r*b); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		for _, l := range myLosers {
			k := 0
			for q := from; q < copies; q++ {
				for w := cls; w < classes; w++ {
					// Frame k is the window [k*fBits, (k+1)*fBits) of the
					// stream, cut into a buffer of its own for DecodeFrame.
					sc.frame.Reset()
					if err := sc.frame.AppendRange(&sc.acc[l], k*fBits, (k+1)*fBits); err != nil {
						return err
					}
					k++
					ok := routing.DecodeFrame(&sc.rec, &sc.frame) == nil &&
						mergeShipRecord(bits.NewReader(&sc.rec), stacks, poisoned, clsW, qW, shipTags{w0: w, w1: w + 1, q0: q, q1: q + 1})
					if !ok {
						// Lost or invalid: this copy is missing l's
						// contribution and can't be trusted.
						poisoned[w][q] = true
					}
				}
			}
		}
		return nil

	case LenzenFramedAgg:
		// LenzenAgg's routed concentration with the same frame-and-poison
		// record discipline; lost or invalid routed records poison their
		// copy instead of failing the count check. Each framed record
		// carries the loser's id under the CRC: the router's relay headers
		// travel outside the frame, so a corrupted phase-2 src header could
		// otherwise hand a VALID frame to the winner under another loser's
		// name and silently misattribute its sampler bits.
		srcW := bits.UintWidth(uint64(p.N() - 1))
		recBits := clsW + qW + 1 + sampleBits
		maxPayload := routing.FrameBits(srcW + recBits)
		out := sc.out[:0]
		if iAmLoser {
			for q := from; q < copies; q++ {
				for w := cls; w < classes; w++ {
					sc.rec.Reset()
					sc.rec.WriteUint(uint64(me), srcW)
					encodeShipRecord(&sc.rec, stacks, poisoned, w, q, clsW, qW)
					fr := bits.Get(maxPayload)
					if err := routing.EncodeFrame(fr, &sc.rec); err != nil {
						return err
					}
					out = append(out, routing.Msg{Src: me, Dst: comp[me], Payload: fr})
				}
			}
		}
		sc.out = out
		in, err := rt.Route(p, out, maxPayload)
		// Route copied the frames into its relay frames (none is
		// self-addressed: a loser's leader is another node).
		for _, m := range out {
			m.Payload.Release()
		}
		clear(out)
		if err != nil {
			return err
		}
		// The tags merged from myLosers[i] are block i of sc.seen.
		block := (classes - cls) * (copies - from)
		sc.seen = append(sc.seen[:0], make([]bool, len(myLosers)*block)...) // zeroed, in place when it fits
		tags := func(i int) shipTags {
			return shipTags{w0: cls, w1: classes, q0: from, q1: copies, seen: sc.seen[i*block : (i+1)*block]}
		}
		for _, m := range in {
			// Not one of my losers (a misrouted stray), corrupted in
			// transit, or under a relay header that lied about the source:
			// dropped, and the absence poisons below.
			if i := slices.Index(myLosers, m.Src); i >= 0 && routing.DecodeFrame(&sc.rec, m.Payload) == nil {
				rd := bits.NewReader(&sc.rec)
				if src64, err := rd.ReadUint(srcW); err == nil && int(src64) == m.Src {
					mergeShipRecord(rd, stacks, poisoned, clsW, qW, tags(i))
				}
			}
			m.Payload.Release()
		}
		for i := range myLosers {
			t := tags(i)
			for w := cls; w < classes; w++ {
				for q := from; q < copies; q++ {
					if !*t.at(w, q) {
						poisoned[w][q] = true
					}
				}
			}
		}
		return nil

	default:
		return fmt.Errorf("sketch: unknown aggregation %d", int(agg))
	}
}

// releaseStacks returns a node's stacks to the pool when its body
// returns, unwound bodies included.
func releaseStacks(stacks []*Stack) {
	for _, st := range stacks {
		if st != nil {
			st.release()
		}
	}
}

// newPoisoned allocates a [classes][copies] matrix of poison marks.
func newPoisoned(classes, copies int) [][]bool {
	poisoned := make([][]bool, classes)
	for w := range poisoned {
		poisoned[w] = make([]bool, copies)
	}
	return poisoned
}

// encodeShipRecord appends one framed-aggregation record to dst:
// [class:clsW][copy:qW][poisoned:1] + the sampler bits when clean. A
// loser that no longer trusts a copy forwards the poison instead of the
// garbage.
func encodeShipRecord(dst *bits.Buffer, stacks []*Stack, poisoned [][]bool, w, q, clsW, qW int) {
	dst.WriteUint(uint64(w), clsW)
	dst.WriteUint(uint64(q), qW)
	if poisoned[w][q] {
		dst.WriteBool(true)
	} else {
		dst.WriteBool(false)
		stacks[w].Samplers[q].Encode(dst)
	}
}

// shipTags is the block of (class, copy) tags a winner accepts for a
// ship record: classes [w0, w1) × copies [q0, q1). When seen is non-nil
// it marks the tags of the block already merged, class-major from the
// block's corner (see at), and a repeat is rejected.
type shipTags struct {
	w0, w1, q0, q1 int
	seen           []bool
}

// at returns the seen mark of tag (w, q).
func (t shipTags) at(w, q int) *bool { return &t.seen[(w-t.w0)*(t.q1-t.q0)+q-t.q0] }

// mergeShipRecord applies one CRC-validated ship record, read from rd,
// on the winner and reports whether it was accepted. A record that fails
// to parse, or whose tag is outside want or already seen, is rejected
// untouched: the caller poisons the copy it stood for (directly, or
// through its absence from seen). An accepted poison marker propagates
// the loser's poison, and an accepted clean record XOR-merges into the
// stack; if that merge fails midway the copy is poisoned directly, since
// the partial XOR already garbled it.
//
// DirectFramedAgg's stream position fixes the one tag a record may carry
// (a delayed chunk that re-validates an old frame in the wrong window
// fails here); LenzenFramedAgg's routed records arrive in any order, so
// it accepts any unseen tag of the loser's block.
func mergeShipRecord(rd *bits.Reader, stacks []*Stack, poisoned [][]bool, clsW, qW int, want shipTags) bool {
	w64, err := rd.ReadUint(clsW)
	if err != nil {
		return false
	}
	q64, err := rd.ReadUint(qW)
	if err != nil {
		return false
	}
	pois, err := rd.ReadBool()
	if err != nil {
		return false
	}
	w, q := int(w64), int(q64)
	if w < want.w0 || w >= want.w1 || q < want.q0 || q >= want.q1 {
		return false
	}
	if want.seen != nil {
		if *want.at(w, q) {
			return false
		}
		*want.at(w, q) = true
	}
	if pois {
		poisoned[w][q] = true
	} else if err := stacks[w].Samplers[q].mergeFromWire(rd); err != nil {
		poisoned[w][q] = true
	}
	return true
}

// ccDigest folds the shared protocol state into one word so that every
// node's view can be pinned against node 0's full output.
func ccDigest(comp []int, forest [][2]int, weights []uint32) uint64 {
	h := fnv.New64a()
	for _, c := range comp {
		fmt.Fprintf(h, "c%d;", c)
	}
	for _, e := range forest {
		fmt.Fprintf(h, "e%d,%d;", e[0], e[1])
	}
	for _, w := range weights {
		fmt.Fprintf(h, "w%d;", w)
	}
	return h.Sum64()
}

// trivialCC handles n < 2 without spinning up the engine.
func trivialCC(n int) *CCResult {
	res := &CCResult{Leader: make([]int, n), Components: n}
	return res
}

// assembleCC folds per-node outputs into a CCResult, asserting that
// every node converged to the same shared state.
func assembleCC(n int, res *core.Result) (*CCResult, error) {
	outs := make([]nodeOut, n)
	for i, o := range res.Outputs {
		no, ok := o.(nodeOut)
		if !ok {
			return nil, fmt.Errorf("sketch: node %d produced no output", i)
		}
		outs[i] = no
	}
	full := outs[0].full
	if full == nil {
		return nil, fmt.Errorf("sketch: node 0 carried no full result")
	}
	cc := &CCResult{
		Leader:  full.comp,
		Phases:  outs[0].phases,
		Forest:  full.forest,
		Weights: full.weights,
		Stats:   res.Stats,
	}
	for i, o := range outs {
		if o.digest != outs[0].digest || o.phases != outs[0].phases {
			return nil, fmt.Errorf("sketch: node %d diverged from node 0's shared state", i)
		}
		if o.leader != full.comp[i] {
			return nil, fmt.Errorf("sketch: node %d reports leader %d, labeling says %d", i, o.leader, full.comp[i])
		}
	}
	seen := map[int]bool{}
	for _, l := range full.comp {
		seen[l] = true
	}
	cc.Components = len(seen)
	for _, w := range full.weights {
		cc.TotalWeight += int64(w)
	}
	sortForest(cc.Forest, cc.Weights)
	return cc, nil
}

// sortForest orders certificates lexicographically (carrying weights
// along) so results print canonically regardless of merge order.
func sortForest(forest [][2]int, weights []uint32) {
	if weights == nil {
		sort.Slice(forest, func(i, j int) bool {
			if forest[i][0] != forest[j][0] {
				return forest[i][0] < forest[j][0]
			}
			return forest[i][1] < forest[j][1]
		})
		return
	}
	idx := make([]int, len(forest))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		if forest[i][0] != forest[j][0] {
			return forest[i][0] < forest[j][0]
		}
		return forest[i][1] < forest[j][1]
	})
	nf := make([][2]int, len(forest))
	nw := make([]uint32, len(weights))
	for k, i := range idx {
		nf[k], nw[k] = forest[i], weights[i]
	}
	copy(forest, nf)
	copy(weights, nw)
}
