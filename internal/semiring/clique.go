package semiring

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/routing"
)

// Protocol selects the distributed multiplication algorithm.
type Protocol int

const (
	// Naive is the row-broadcast oracle: every player broadcasts its row
	// of B (chunked at the bandwidth), then computes its row of A·B
	// locally. ceil(n·w/b) rounds, Θ(n³·w) total bits in CLIQUE-UCAST —
	// the baseline every smarter protocol is ablated against (E15).
	Naive Protocol = iota
	// Cube is the Censor-Hillel-style cube partition: players (i,j,k) of a
	// c³ ≤ n cube each multiply one n/c × n/c block pair, with Lenzen
	// routing (internal/routing) carrying the three redistribution steps
	// (inputs in, partial products across the reduction axis, result rows
	// out). Per-player traffic drops from Θ(n·w) broadcast-copied n-fold
	// to Θ(n^{4/3}·w) routed once — the Θ(n^{1/3}) advantage the algebraic
	// follow-up papers build on.
	Cube
)

func (p Protocol) String() string {
	switch p {
	case Naive:
		return "naive"
	case Cube:
		return "cube"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// LocalMul is the local block-multiplication kernel a protocol leg plugs
// in. The differential harness runs the oracle leg on NaiveKernel and the
// engine leg on the backend's blocked kernel; the wire traffic must come
// out bit-identical, so a kernel bug surfaces as a scenario divergence.
type LocalMul func(a, b *Matrix) *Matrix

// Kernel returns sr's fast local kernel as a LocalMul.
func Kernel(sr Semiring) LocalMul { return sr.MulLocal }

// NaiveKernel returns the triple-loop oracle kernel over sr.
func NaiveKernel(sr Semiring) LocalMul {
	return func(a, b *Matrix) *Matrix { return NaiveMul(sr, a, b) }
}

// MMResult reports one distributed multiplication (or power) run.
type MMResult struct {
	Product *Matrix
	Stats   core.Stats
}

// RunMM multiplies two n×n semiring matrices on CLIQUE-UCAST(n, bandwidth):
// player i initially holds row i of A and row i of B and finishes holding
// row i of the product, which the runtime reassembles for the caller. mul
// selects the local block kernel (nil = sr.MulLocal).
func RunMM(env core.Env, sr Semiring, a, b *Matrix, proto Protocol, bandwidth int, seed int64, mul LocalMul) (*MMResult, error) {
	n := a.Rows()
	if a.Cols() != n || b.Rows() != n || b.Cols() != n {
		return nil, fmt.Errorf("semiring: RunMM needs square n×n operands, got %dx%d · %dx%d",
			a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	if mul == nil {
		mul = sr.MulLocal
	}
	rt := routing.NewRouter(n)
	cfg := core.Config{N: n, Bandwidth: bandwidth, Model: core.Unicast, Seed: seed}
	res, err := core.RunProcs(env.Apply(cfg), func(p *core.Proc) error {
		row, err := NewMultiplier(p, rt, proto).MulRow(sr, a.Row(p.ID()), b.Row(p.ID()), mul)
		if err != nil {
			return err
		}
		p.SetOutput(row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &MMResult{Product: gatherRows(res, n), Stats: res.Stats}, nil
}

// gatherRows assembles per-player []uint32 outputs into the product matrix.
func gatherRows(res *core.Result, n int) *Matrix {
	out := NewMatrix(n, n, 0)
	for i, o := range res.Outputs {
		copy(out.Row(i), o.([]uint32))
	}
	return out
}

// A Multiplier is one node body's side of a run's distributed products:
// the body makes one with NewMultiplier and chains its MulRow calls, and
// the Multiplier keeps the scratch the Naive protocol reuses from call to
// call. All players must use the same proto and a Router shared by the
// run.
type Multiplier struct {
	p     *core.Proc
	rt    *routing.Router
	proto Protocol

	payload bits.Buffer // Naive: this node's B row on the wire
	bm      *Matrix     // Naive: every player's B row, built on first use
}

// NewMultiplier returns node p's Multiplier for protocol proto.
func NewMultiplier(p *core.Proc, rt *routing.Router, proto Protocol) *Multiplier {
	return &Multiplier{p: p, rt: rt, proto: proto}
}

// MulRow is the composable in-protocol form of the multiplication: every
// player calls it in the same round with its row of A and its row of B and
// receives its row of the product. Workload protocols (repeated squaring,
// distance products, matrix powers) chain it without leaving the round
// structure, so a whole power computation is one accounted run. All
// players must pass the same sr.
func (m *Multiplier) MulRow(sr Semiring, rowA, rowB []uint32, mul LocalMul) ([]uint32, error) {
	if mul == nil {
		mul = sr.MulLocal
	}
	switch m.proto {
	case Naive:
		return m.naiveMulRow(sr, rowA, rowB, mul)
	case Cube:
		return cubeMulRow(m.p, m.rt, sr, rowA, rowB, mul)
	default:
		return nil, fmt.Errorf("semiring: unknown protocol %d", int(m.proto))
	}
}

// encodeEntries appends the w-bit wire form of each entry to buf.
func encodeEntries(buf *bits.Buffer, row []uint32, w int) {
	for _, v := range row {
		buf.WriteUint(uint64(v), w)
	}
}

// decodeEntries reads len(dst) w-bit entries from rd.
func decodeEntries(rd *bits.Reader, dst []uint32, w int) error {
	for i := range dst {
		v, err := rd.ReadUint(w)
		if err != nil {
			return err
		}
		dst[i] = uint32(v)
	}
	return nil
}

// naiveMulRow is the row-broadcast protocol body: exchange all rows of B,
// then one 1×n · n×n local product through the leg's kernel. The payload
// and the B rows are m's, rewritten by every call (each row in full, or
// the call fails), and rowA enters the kernel as a 1×n matrix over its
// own entries.
func (m *Multiplier) naiveMulRow(sr Semiring, rowA, rowB []uint32, mul LocalMul) ([]uint32, error) {
	p := m.p
	n := p.N()
	w := sr.EntryBits()
	m.payload.Reset()
	encodeEntries(&m.payload, rowB, w)
	rounds := core.ChunkRounds(n*w, p.Bandwidth())
	got, err := core.ExchangeBroadcasts(p, &m.payload, rounds)
	if err != nil {
		return nil, err
	}
	if m.bm == nil {
		m.bm = NewMatrix(n, n, 0)
	}
	for src, buf := range got {
		rd := bits.NewReader(buf)
		if err := decodeEntries(rd, m.bm.Row(src), w); err != nil {
			return nil, fmt.Errorf("semiring: bad B row from %d: %w", src, err)
		}
	}
	am := &Matrix{rows: 1, cols: n, a: rowA}
	return mul(am, m.bm).Row(0), nil
}

// cubeGeom is the cube-partition geometry for n players: the largest c
// with c³ ≤ n indexes compute players (i,j,k) ∈ [c]³ as (i·c+j)·c+k, and
// [n] splits into c near-equal contiguous parts (part p = [p·n/c,
// (p+1)·n/c)). Player (i,j,k) multiplies block A[part i][part k] by
// B[part k][part j]; the reduction over k assigns it sub-slice k of part
// i's rows. Players with id ≥ c³ participate only as row sources/sinks.
type cubeGeom struct {
	n, c int
}

func newCubeGeom(n int) cubeGeom {
	c := 1
	for (c+1)*(c+1)*(c+1) <= n {
		c++
	}
	return cubeGeom{n: n, c: c}
}

// part returns the bounds [lo, hi) of part p.
func (g cubeGeom) part(p int) (int, int) { return p * g.n / g.c, (p + 1) * g.n / g.c }

// maxPart is the largest part size (payload bounds are derived from it).
func (g cubeGeom) maxPart() int { return (g.n + g.c - 1) / g.c }

// block returns the part containing row r.
func (g cubeGeom) block(r int) int {
	p := r * g.c / g.n // floor guess; off by at most one with integer bounds
	for {
		lo, hi := g.part(p)
		if r < lo {
			p--
		} else if r >= hi {
			p++
		} else {
			return p
		}
	}
}

// node maps cube coordinates to a player id.
func (g cubeGeom) node(i, j, k int) int { return (i*g.c+j)*g.c + k }

// subslice returns the row bounds [lo, hi) of reduction slice k within
// part i (part i's rows split into c near-equal runs).
func (g cubeGeom) subslice(i, k int) (int, int) {
	lo, hi := g.part(i)
	size := hi - lo
	return lo + k*size/g.c, lo + (k+1)*size/g.c
}

// cubeMulRow is the cube-partition protocol body. Three Lenzen-routed
// redistribution steps frame one local block multiplication:
//
//  1. every player ships the part-k slice of its A row to compute players
//     (block(me), ·, k) and the part-j slice of its B row to (·, j,
//     block(me)) — a 1-bit A/B tag disambiguates, the source id names the
//     row;
//  2. player (i,j,k) multiplies A[part i][part k] · B[part k][part j]
//     through the leg's kernel;
//  3. partial products are reduced over the k axis: (i,j,k) keeps
//     sub-slice k of its rows and routes every other sub-slice k' to
//     (i,j,k'), which ⊕-combines per row;
//  4. the finished rows are routed back to their owners: player r
//     receives the part-j column slice of row r from (block(r), j, k_r)
//     for every j, and reassembles its product row.
func cubeMulRow(p *core.Proc, rt *routing.Router, sr Semiring, rowA, rowB []uint32, mul LocalMul) ([]uint32, error) {
	if rt == nil {
		return nil, fmt.Errorf("semiring: cube protocol needs a shared Router")
	}
	n := p.N()
	geo := newCubeGeom(n)
	c := geo.c
	w := sr.EntryBits()
	me := p.ID()
	myBlock := geo.block(me)
	rowW := bits.UintWidth(uint64(n - 1))

	// Step 1: input redistribution. Each destination receives at most
	// 2·n/c slice messages and each source sends 2c² ≤ 2n^{2/3} — a
	// Lenzen-balanced demand.
	out := make([]routing.Msg, 0, 2*c*c)
	for k := 0; k < c; k++ {
		lo, hi := geo.part(k)
		for j := 0; j < c; j++ {
			buf := bits.New(1 + (hi-lo)*w)
			buf.WriteBit(0)
			encodeEntries(buf, rowA[lo:hi], w)
			out = append(out, routing.Msg{Src: me, Dst: geo.node(myBlock, j, k), Payload: buf})
		}
	}
	for j := 0; j < c; j++ {
		lo, hi := geo.part(j)
		for i := 0; i < c; i++ {
			buf := bits.New(1 + (hi-lo)*w)
			buf.WriteBit(1)
			encodeEntries(buf, rowB[lo:hi], w)
			out = append(out, routing.Msg{Src: me, Dst: geo.node(i, j, myBlock), Payload: buf})
		}
	}
	in, err := rt.Route(p, out, 1+geo.maxPart()*w)
	if err != nil {
		return nil, err
	}

	compute := me < c*c*c
	var ci, cj, ck int // cube coordinates of a compute player
	var acc *Matrix    // reduced rows: sub-slice ck of part ci × part cj
	var sLo, sHi int
	if compute {
		ci, cj, ck = me/(c*c), (me/c)%c, me%c
		iLo, iHi := geo.part(ci)
		jLo, jHi := geo.part(cj)
		kLo, kHi := geo.part(ck)
		blkA := NewMatrix(iHi-iLo, kHi-kLo, 0)
		blkB := NewMatrix(kHi-kLo, jHi-jLo, 0)
		gotA := make([]bool, iHi-iLo)
		gotB := make([]bool, kHi-kLo)
		for _, m := range in {
			rd := bits.NewReader(m.Payload)
			tag, err := rd.ReadBit()
			if err != nil {
				return nil, err
			}
			if tag == 0 {
				r := m.Src - iLo
				if r < 0 || r >= blkA.Rows() || gotA[r] {
					return nil, fmt.Errorf("semiring: cube step 1: unexpected A slice from %d at (%d,%d,%d)", m.Src, ci, cj, ck)
				}
				gotA[r] = true
				if err := decodeEntries(rd, blkA.Row(r), w); err != nil {
					return nil, err
				}
			} else {
				r := m.Src - kLo
				if r < 0 || r >= blkB.Rows() || gotB[r] {
					return nil, fmt.Errorf("semiring: cube step 1: unexpected B slice from %d at (%d,%d,%d)", m.Src, ci, cj, ck)
				}
				gotB[r] = true
				if err := decodeEntries(rd, blkB.Row(r), w); err != nil {
					return nil, err
				}
			}
		}
		for r, ok := range gotA {
			if !ok {
				return nil, fmt.Errorf("semiring: cube step 1: A row %d never arrived at (%d,%d,%d)", iLo+r, ci, cj, ck)
			}
		}
		for r, ok := range gotB {
			if !ok {
				return nil, fmt.Errorf("semiring: cube step 1: B row %d never arrived at (%d,%d,%d)", kLo+r, ci, cj, ck)
			}
		}

		// Step 2: the local block product through the leg's kernel.
		part := mul(blkA, blkB)

		// Step 3: reduction over the k axis. Row-granular messages keep
		// the demand balanced (≈ maxPart payload bits per message instead
		// of one maxPart²/c-bit slab per peer).
		sLo, sHi = geo.subslice(ci, ck)
		acc = NewMatrix(sHi-sLo, jHi-jLo, 0)
		for r := sLo; r < sHi; r++ {
			copy(acc.Row(r-sLo), part.Row(r-iLo))
		}
		red := make([]routing.Msg, 0, (c-1)*geo.maxPart())
		for k2 := 0; k2 < c; k2++ {
			if k2 == ck {
				continue
			}
			lo, hi := geo.subslice(ci, k2)
			for r := lo; r < hi; r++ {
				buf := bits.New(rowW + (jHi-jLo)*w)
				buf.WriteUint(uint64(r), rowW)
				encodeEntries(buf, part.Row(r-iLo), w)
				red = append(red, routing.Msg{Src: me, Dst: geo.node(ci, cj, k2), Payload: buf})
			}
		}
		inRed, err := rt.Route(p, red, rowW+geo.maxPart()*w)
		if err != nil {
			return nil, err
		}
		scratch := make([]uint32, jHi-jLo)
		for _, m := range inRed {
			rd := bits.NewReader(m.Payload)
			r64, err := rd.ReadUint(rowW)
			if err != nil {
				return nil, err
			}
			r := int(r64)
			if r < sLo || r >= sHi {
				return nil, fmt.Errorf("semiring: cube step 3: row %d outside slice [%d,%d) at (%d,%d,%d)", r, sLo, sHi, ci, cj, ck)
			}
			if err := decodeEntries(rd, scratch, w); err != nil {
				return nil, err
			}
			dst := acc.Row(r - sLo)
			for x, v := range scratch {
				dst[x] = sr.Add(dst[x], v)
			}
		}
	} else {
		// Non-compute players still join every routing epoch.
		if _, err := rt.Route(p, nil, rowW+geo.maxPart()*w); err != nil {
			return nil, err
		}
	}

	// Step 4: result redistribution — every finished row goes home.
	var fin []routing.Msg
	if compute {
		jLo, jHi := geo.part(cj)
		for r := sLo; r < sHi; r++ {
			buf := bits.New((jHi - jLo) * w)
			encodeEntries(buf, acc.Row(r-sLo), w)
			fin = append(fin, routing.Msg{Src: me, Dst: r, Payload: buf})
		}
	}
	inFin, err := rt.Route(p, fin, geo.maxPart()*w)
	if err != nil {
		return nil, err
	}
	rowC := make([]uint32, n)
	seen := make([]bool, c)
	for _, m := range inFin {
		if m.Src >= c*c*c || m.Src/(c*c) != myBlock {
			return nil, fmt.Errorf("semiring: cube step 4: row fragment from unexpected player %d", m.Src)
		}
		j := (m.Src / c) % c
		if seen[j] {
			return nil, fmt.Errorf("semiring: cube step 4: duplicate fragment for column part %d", j)
		}
		seen[j] = true
		lo, hi := geo.part(j)
		rd := bits.NewReader(m.Payload)
		if err := decodeEntries(rd, rowC[lo:hi], w); err != nil {
			return nil, err
		}
	}
	for j, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("semiring: cube step 4: column part %d never arrived at player %d", j, me)
		}
	}
	return rowC, nil
}
