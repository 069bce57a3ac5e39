package circsim

import (
	"fmt"
	"math/bits"

	xbits "repro/internal/bits"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/routing"
)

// simState is one player's dense evaluation state for a Simulate run: flat
// bitsets replace the per-gate maps of the pre-plan implementation, and
// the scratch slices are reused across stages so the steady-state protocol
// allocates per message, not per gate.
type simState struct {
	val     []uint64 // bit g = value of gate g (dense, shared with circuit.EvalGateBits)
	known   []uint64 // bit g = gate g's value has been learned
	sent    []uint64 // bit heavyIdx*n+dst = heavy value already forwarded there
	recvd   []uint64 // bit heavyIdx = heavy value already learned
	contrib []uint64 // scratch bitset over players (ascending iteration = sorted)
	part    []bool   // scratch partial-input slice, cap >= max fan-in
	parts   []uint64 // scratch partial-digest slice
	staged  []xbits.Buffer
	perDst  []*xbits.Buffer // perDst[q] = &staged[q]: the stage's bits for player q
	expect  []int           // scratch expected-bits-per-source, len n

	// Routing scratch reused across stages (stage-scoped lifetimes).
	msgs    []routing.Msg
	chunks  []xbits.Buffer // routeBitStrings' chunk payloads, chunkW bits each
	chunkW  int
	whole   []xbits.Buffer // routeBitStrings' reassembled stream per source
	gotBits []int
	readers []*xbits.Reader // routeBitStrings results, pointing into rds
	dirRead []*xbits.Reader // stageDirect results, pointing into dirRds
	rds     []xbits.Reader
	dirRds  []xbits.Reader
	seen    []uint64 // per-(source, chunk index) duplicate mask
}

func newSimState(plan *Plan) *simState {
	g := plan.Circ.NumGates()
	words := (g + 63) / 64
	st := &simState{
		val:     make([]uint64, words),
		known:   make([]uint64, words),
		sent:    make([]uint64, (plan.numHeavy*plan.N+63)/64),
		recvd:   make([]uint64, (plan.numHeavy+63)/64),
		contrib: make([]uint64, (plan.N+63)/64),
		part:    make([]bool, 0, plan.Circ.Plan().MaxFanIn()),
		staged:  xbits.NewRow(plan.N, 64),
		perDst:  make([]*xbits.Buffer, plan.N),
		expect:  make([]int, plan.N),
		whole:   make([]xbits.Buffer, plan.N),
		gotBits: make([]int, plan.N),
		readers: make([]*xbits.Reader, plan.N),
		dirRead: make([]*xbits.Reader, plan.N),
		rds:     make([]xbits.Reader, plan.N),
		dirRds:  make([]xbits.Reader, plan.N),
	}
	for q := range st.perDst {
		st.perDst[q] = &st.staged[q]
	}
	return st
}

// newStage empties the per-destination buffers and the expected-bits
// scratch for the next stage's messages.
func (st *simState) newStage() {
	for q := range st.staged {
		st.staged[q].Reset()
	}
	clear(st.expect)
}

func bsGet(bs []uint64, i int32) bool { return xbits.BitsetGet(bs, int(i)) }
func bsSet(bs []uint64, i int32)      { xbits.BitsetSet(bs, int(i)) }

// setVal records gate g's value.
func (st *simState) setVal(g int32, v bool) {
	bsSet(st.known, g)
	if v {
		bsSet(st.val, g)
	}
}

// Simulate executes the Theorem 2 protocol for one player. myInputs holds
// the values of the input positions this player initially owns (in
// increasing input-index order, per plan's input layout). It returns the
// values of the circuit outputs owned by this player, keyed by output
// position.
//
// All players must call Simulate in the same round with the same plan and
// a shared Router.
func Simulate(p *core.Proc, plan *Plan, rt *routing.Router, myInputs []bool) (map[int]bool, error) {
	c, n, me := plan.Circ, plan.N, p.ID()
	if n != p.N() {
		return nil, fmt.Errorf("circsim: plan for %d players run on %d", n, p.N())
	}
	st := newSimState(plan)

	// Constants are known to their owners from the start.
	for id := 0; id < c.NumGates(); id++ {
		if int(plan.Assign[id]) != me {
			continue
		}
		switch c.Kind(id) {
		case circuit.Const0:
			st.setVal(int32(id), false)
		case circuit.Const1:
			st.setVal(int32(id), true)
		}
	}

	if err := distributeInputs(p, plan, rt, myInputs, st); err != nil {
		return nil, err
	}

	for r := 1; r <= c.Depth(); r++ {
		if err := stageDirect(p, plan, r, st); err != nil {
			return nil, fmt.Errorf("circsim: stage %d direct: %w", r, err)
		}
		if err := stageLight(p, plan, rt, r, st); err != nil {
			return nil, fmt.Errorf("circsim: stage %d light: %w", r, err)
		}
	}

	out := make(map[int]bool)
	for pos, g := range c.Outputs() {
		if int(plan.Assign[g]) == me {
			if !bsGet(st.known, g) {
				return nil, fmt.Errorf("circsim: output gate %d never evaluated", g)
			}
			out[pos] = bsGet(st.val, g)
		}
	}
	return out, nil
}

// distributeInputs routes externally-held input bits to the owners of the
// input gates (the balanced-input remark of Theorem 2).
func distributeInputs(p *core.Proc, plan *Plan, rt *routing.Router, myInputs []bool, st *simState) error {
	c, me := plan.Circ, p.ID()
	st.newStage()
	k := 0
	for i := 0; i < c.NumInputs(); i++ {
		gate := int32(c.InputGate(i))
		holder := int(plan.inOwner[i])
		owner := int(plan.Assign[gate])
		if holder == me {
			if k >= len(myInputs) {
				return fmt.Errorf("%w: player %d holds more inputs than provided", ErrBadInput, me)
			}
			v := myInputs[k]
			k++
			if owner == me {
				st.setVal(gate, v)
			} else {
				st.perDst[owner].WriteBool(v)
			}
		} else if owner == me {
			st.expect[holder]++
		}
	}
	if k != len(myInputs) {
		return fmt.Errorf("%w: player %d given %d inputs, owns %d", ErrBadInput, me, len(myInputs), k)
	}
	if plan.maxInput == 0 {
		return nil // all inputs are already local at their owners
	}
	readers, err := routeBitStrings(p, rt, st, plan.S, plan.maxInput)
	if err != nil {
		return err
	}
	for i := 0; i < c.NumInputs(); i++ {
		gate := int32(c.InputGate(i))
		holder := int(plan.inOwner[i])
		owner := int(plan.Assign[gate])
		if owner != me || holder == me {
			continue
		}
		rd := readers[holder]
		if rd == nil {
			return fmt.Errorf("circsim: missing input stream from %d", holder)
		}
		v, err := rd.ReadBool()
		if err != nil {
			return fmt.Errorf("circsim: short input stream from %d: %w", holder, err)
		}
		st.setVal(gate, v)
	}
	return nil
}

// stageDirect performs cases (a) and (b) of the stage-r protocol: partial
// digests into heavy gates, and one-shot forwarding of heavy values to
// light consumers. Sender and receiver walk the identical enumeration, so
// the wire carries no identifiers.
func stageDirect(p *core.Proc, plan *Plan, r int, st *simState) error {
	c, n, me := plan.Circ, plan.N, p.ID()
	st.newStage()

	// (a) sender side: partial digests for heavy gates of this layer.
	for _, id := range plan.layers[r] {
		if !plan.Heavy[id] {
			continue
		}
		q := int(plan.Assign[id])
		if q == me {
			continue
		}
		part := st.part[:0]
		for _, w := range c.Inputs(int(id)) {
			if int(plan.Assign[w]) == me {
				part = append(part, bsGet(st.val, w))
			}
		}
		if len(part) == 0 {
			continue // not a contributor
		}
		digest, err := c.Partial(int(id), part)
		if err != nil {
			return err
		}
		st.perDst[q].WriteUint(digest, c.SeparabilityWidth(int(id)))
	}
	// (b) sender side: heavy values consumed by light gates, deduplicated
	// per destination.
	for _, id := range plan.layers[r] {
		if plan.Heavy[id] {
			continue
		}
		q := int(plan.Assign[id])
		if q == me {
			continue
		}
		for _, w := range c.Inputs(int(id)) {
			if !plan.Heavy[w] || int(plan.Assign[w]) != me {
				continue
			}
			key := plan.heavyIdx[w]*int32(n) + int32(q)
			if bsGet(st.sent, key) {
				continue
			}
			bsSet(st.sent, key)
			st.perDst[q].WriteBool(bsGet(st.val, w))
		}
	}

	// The exchange's result is read in this round, before the light
	// routing below starts the next.
	readers := st.dirRead
	clear(readers)
	if plan.maxDir[r] > 0 {
		rounds := core.ChunkRounds(plan.maxDir[r], p.Bandwidth())
		got, err := core.ExchangeUnicast(p, st.perDst, rounds)
		if err != nil {
			return err
		}
		for src, b := range got {
			if b != nil {
				st.dirRds[src].Reset(b)
				readers[src] = &st.dirRds[src]
			}
		}
	}

	// (a) receiver side: combine partials for my heavy gates.
	for _, id := range plan.layers[r] {
		if !plan.Heavy[id] || int(plan.Assign[id]) != me {
			continue
		}
		width := c.SeparabilityWidth(int(id))
		// Contributors in ascending player order; each link's buffer is
		// parsed in gate order, which is consistent because a player owns
		// at most one heavy gate. The contributor set lives in a player
		// bitset, whose word walk yields ascending order for free.
		for i := range st.contrib {
			st.contrib[i] = 0
		}
		ownPart := st.part[:0]
		for _, w := range c.Inputs(int(id)) {
			src := plan.Assign[w]
			if int(src) == me {
				ownPart = append(ownPart, bsGet(st.val, w))
			} else {
				bsSet(st.contrib, src)
			}
		}
		partials := st.parts[:0]
		if len(ownPart) > 0 {
			d, err := c.Partial(int(id), ownPart)
			if err != nil {
				return err
			}
			partials = append(partials, d)
		}
		for wd, word := range st.contrib {
			for word != 0 {
				src := wd*64 + bits.TrailingZeros64(word)
				word &= word - 1
				if readers[src] == nil {
					return fmt.Errorf("circsim: heavy gate %d missing partial from %d", id, src)
				}
				d, err := readers[src].ReadUint(width)
				if err != nil {
					return fmt.Errorf("circsim: short partial from %d: %w", src, err)
				}
				partials = append(partials, d)
			}
		}
		st.parts = partials[:0]
		v, err := c.Combine(int(id), partials)
		if err != nil {
			return err
		}
		st.setVal(id, v)
	}
	// (b) receiver side: learn heavy values feeding my light gates.
	for _, id := range plan.layers[r] {
		if plan.Heavy[id] || int(plan.Assign[id]) != me {
			continue
		}
		for _, w := range c.Inputs(int(id)) {
			src := int(plan.Assign[w])
			if !plan.Heavy[w] || src == me || bsGet(st.recvd, plan.heavyIdx[w]) {
				continue
			}
			if readers[src] == nil {
				return fmt.Errorf("circsim: light gate %d missing heavy value from %d", id, src)
			}
			v, err := readers[src].ReadBool()
			if err != nil {
				return fmt.Errorf("circsim: short heavy value from %d: %w", src, err)
			}
			st.setVal(w, v)
			bsSet(st.recvd, plan.heavyIdx[w])
		}
	}
	return nil
}

// stageLight performs case (c): light-to-light wire values, shipped as a
// Lenzen-balanced demand in s-bit bundles, then evaluates this player's
// light gates of the layer on the dense bitset.
func stageLight(p *core.Proc, plan *Plan, rt *routing.Router, r int, st *simState) error {
	c, me := plan.Circ, p.ID()

	if plan.hasLight[r] {
		st.newStage()
		for _, id := range plan.layers[r] {
			if plan.Heavy[id] {
				continue
			}
			q := int(plan.Assign[id])
			for _, w := range c.Inputs(int(id)) {
				if plan.Heavy[w] {
					continue
				}
				src := int(plan.Assign[w])
				switch {
				case src == me && q != me:
					st.perDst[q].WriteBool(bsGet(st.val, w))
				case q == me && src != me:
					st.expect[src]++
				}
			}
		}
		readers, err := routeBitStrings(p, rt, st, plan.S, plan.maxLight[r])
		if err != nil {
			return err
		}
		for _, id := range plan.layers[r] {
			if plan.Heavy[id] || int(plan.Assign[id]) != me {
				continue
			}
			for _, w := range c.Inputs(int(id)) {
				if plan.Heavy[w] {
					continue
				}
				src := int(plan.Assign[w])
				if src == me {
					continue
				}
				rd := readers[src]
				if rd == nil {
					return fmt.Errorf("circsim: missing light stream from %d", src)
				}
				v, err := rd.ReadBool()
				if err != nil {
					return fmt.Errorf("circsim: short light stream from %d: %w", src, err)
				}
				st.setVal(w, v)
			}
		}
	}

	// Evaluate my light gates of this layer straight off the dense bitset.
	for _, id := range plan.layers[r] {
		if plan.Heavy[id] || int(plan.Assign[id]) != me {
			continue
		}
		for _, w := range c.Inputs(int(id)) {
			if !bsGet(st.known, w) {
				return fmt.Errorf("circsim: gate %d input %d unknown at player %d", id, w, me)
			}
		}
		st.setVal(id, c.EvalGateBits(int(id), st.val))
	}
	return nil
}

// routeBitStrings ships one logical bit string per destination through the
// balanced router, cutting each into unit-bit chunks tagged with a chunk
// index. st.perDst[d] (empty = nothing) is the string for player d;
// st.expect[s] gives the number of bits this player must receive from
// source s; maxPair is the globally agreed maximum string length, which
// fixes the chunk-index width. It returns one reader per source (nil
// where nothing was due), over a stream buffer of st's that the next call
// reuses. The chunk payloads are cut into st.chunks, which the next call
// reuses too: the router copies them into its relay frames.
func routeBitStrings(p *core.Proc, rt *routing.Router, st *simState, unit, maxPair int) ([]*xbits.Reader, error) {
	idxW := chunkIdxWidth(maxPair, unit)
	count := 0
	for _, buf := range st.perDst {
		count += (buf.Len() + unit - 1) / unit
	}
	if count > len(st.chunks) || idxW+unit > st.chunkW {
		st.chunks, st.chunkW = xbits.NewRow(count, idxW+unit), idxW+unit
	}
	msgs := st.msgs[:0]
	for d, buf := range st.perDst {
		for i, off := 0, 0; off < buf.Len(); i, off = i+1, off+unit {
			payload := &st.chunks[len(msgs)]
			payload.Reset()
			payload.WriteUint(uint64(i), idxW)
			if err := payload.AppendRange(buf, off, min(off+unit, buf.Len())); err != nil {
				return nil, err
			}
			msgs = append(msgs, routing.Msg{Src: p.ID(), Dst: d, Payload: payload})
		}
	}
	recv, err := rt.Route(p, msgs, idxW+unit)
	st.msgs = msgs[:0]
	if err != nil {
		return nil, err
	}
	expect := st.expect
	// Reassemble in place: the stream length per source is agreed up
	// front (expect), so each chunk is OR-ed straight into its slot at
	// idx*unit — no per-chunk buffers, no sort. A per-(source, index)
	// bitmask rejects duplicated chunks, so together with the total-bit
	// check every missing/duplicated index is caught.
	n := p.N()
	cw := ((maxPair+unit-1)/unit + 63) / 64 // chunk-mask words per source
	if cap(st.seen) < n*cw {
		st.seen = make([]uint64, n*cw)
	}
	seen := st.seen[:n*cw]
	for i := range seen {
		seen[i] = 0
	}
	out := st.readers
	clear(out)
	gotBits := st.gotBits
	clear(gotBits)
	var rd xbits.Reader
	for _, m := range recv {
		rd.Reset(m.Payload)
		idx, err := rd.ReadUint(idxW)
		if err != nil {
			return nil, fmt.Errorf("circsim: bad chunk header: %w", err)
		}
		body := m.Payload.Len() - idxW
		at := int(idx) * unit
		if at+body > expect[m.Src] {
			return nil, fmt.Errorf("circsim: stream from %d overflows: chunk %d of %d bits, want %d total",
				m.Src, idx, body, expect[m.Src])
		}
		slot, bit := m.Src*cw+int(idx>>6), uint64(1)<<uint(idx&63)
		if seen[slot]&bit != 0 {
			return nil, fmt.Errorf("circsim: duplicate chunk %d from %d", idx, m.Src)
		}
		seen[slot] |= bit
		w := &st.whole[m.Src]
		if out[m.Src] == nil {
			w.Reset()
			w.ZeroExtend(expect[m.Src])
			st.rds[m.Src].Reset(w)
			out[m.Src] = &st.rds[m.Src]
		}
		if err := w.OrRange(m.Payload, idxW, m.Payload.Len(), at); err != nil {
			return nil, err
		}
		gotBits[m.Src] += body
	}
	for src, r := range out {
		if r != nil && gotBits[src] != expect[src] {
			return nil, fmt.Errorf("circsim: stream from %d has %d bits, want %d",
				src, gotBits[src], expect[src])
		}
	}
	for src, want := range expect {
		if want > 0 && out[src] == nil {
			return nil, fmt.Errorf("circsim: no stream from %d (want %d bits)", src, want)
		}
	}
	return out, nil
}

// RunResult is the outcome of EvalOnClique.
type RunResult struct {
	Output []bool
	Stats  core.Stats
	Plan   *Plan
}

// EvalOnClique builds the Theorem 2 plan for the circuit and evaluates it
// on a simulated CLIQUE-UCAST(n, bandwidth) network, with the input bits
// initially distributed according to inputOwner (BalancedInputOwner if
// nil). It returns the circuit outputs together with the round/bit
// accounting of the run.
func EvalOnClique(env core.Env, c *circuit.Circuit, n, bandwidth int, input []bool, inputOwner []int32, seed int64) (*RunResult, error) {
	if inputOwner == nil {
		inputOwner = BalancedInputOwner(c.NumInputs(), n)
	}
	plan, err := NewPlan(c, n, inputOwner)
	if err != nil {
		return nil, err
	}
	if len(input) != c.NumInputs() {
		return nil, fmt.Errorf("%w: %d bits for %d inputs", ErrBadInput, len(input), c.NumInputs())
	}
	perPlayer := make([][]bool, n)
	for i, o := range inputOwner {
		perPlayer[o] = append(perPlayer[o], input[i])
	}
	rt := routing.NewRouter(n)
	cfg := core.Config{N: n, Bandwidth: bandwidth, Model: core.Unicast, Seed: seed}
	res, err := core.RunProcs(env.Apply(cfg), func(p *core.Proc) error {
		out, err := Simulate(p, plan, rt, perPlayer[p.ID()])
		if err != nil {
			return err
		}
		p.SetOutput(out)
		return nil
	})
	if err != nil {
		return nil, err
	}
	output := make([]bool, len(c.Outputs()))
	seen := make([]bool, len(c.Outputs()))
	for _, o := range res.Outputs {
		for pos, v := range o.(map[int]bool) {
			output[pos] = v
			seen[pos] = true
		}
	}
	for pos, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("circsim: output %d unreported", pos)
		}
	}
	return &RunResult{Output: output, Stats: res.Stats, Plan: plan}, nil
}
