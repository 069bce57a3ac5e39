// Package circsim implements Theorem 2 of the paper: simulating a
// bounded-depth circuit of b-separable gates with N = n²·s wires on the
// CLIQUE-UCAST model in O(D) rounds with O(b+s) bits per link per round.
//
// The construction follows the proof exactly:
//
//  1. Gates are weighted by fan-in plus fan-out. Heavy gates (weight at
//     least 2n·s) number at most n and are assigned one per player; light
//     gates are packed greedily so that no player owns more than 4n·s
//     weight. (The paper's thresholds n·s / 2n·s admit the same greedy
//     argument with both constants doubled, which also repairs the "at most
//     n heavy gates" count; see DESIGN.md.)
//  2. The circuit is evaluated layer by layer. In each stage, heavy gates
//     receive one b-bit partial digest per contributing player (case (a)),
//     heavy-gate values are forwarded to consumers at most once per
//     destination (case (b)), and light-to-light wire values are routed as
//     a Lenzen-balanced demand in s-bit bundles (case (c)).
//  3. A roughly-balanced external input assignment is redistributed to the
//     gate owners with the same routing (the theorem's final remark).
//
// Wire formats carry no gate identifiers: the circuit and the assignment
// are common knowledge, so both endpoints of every link enumerate the
// semantic meaning of each bit in the same deterministic order, exactly as
// a hardwired protocol would.
package circsim

import (
	"errors"
	"fmt"

	"repro/internal/bits"
	"repro/internal/circuit"
)

// Errors reported by the planner.
var (
	ErrTooManyHeavy = errors.New("circsim: more heavy gates than players")
	ErrOverflow     = errors.New("circsim: light-gate packing overflowed (impossible for valid circuits)")
	ErrBadInput     = errors.New("circsim: bad input layout")
)

// Plan is the static part of the Theorem 2 protocol: the gate assignment
// and the per-stage message-size schedule, all derived deterministically
// from the circuit, the player count and the input layout.
type Plan struct {
	Circ *circuit.Circuit
	N    int // players
	S    int // wire density s = ceil(wires / n²), the bundling unit

	Assign []int32 // gate -> owning player
	Heavy  []bool  // gate -> heavy?

	layers   [][]int32 // stage r -> gate ids in layer r (r = 0..Depth)
	heavyIdx []int32   // gate -> heavy ordinal (dense), -1 if light
	numHeavy int       // number of heavy gates
	sepMax   int       // max separability width over all gates
	inOwner  []int32   // input position -> original holder
	maxDir   []int     // stage -> max direct (a)+(b) bits on any link
	maxLight []int     // stage -> max light-light bits between any pair
	hasLight []bool    // stage -> any light-light traffic at all?
	maxInput int       // max input bits between any (holder, owner) pair
}

// BalancedInputOwner returns the canonical balanced input layout: input i
// is initially held by player i*n/numInputs — contiguous equal blocks, the
// layout used throughout the paper (player i receives the i-th share of
// the n² input bits).
func BalancedInputOwner(numInputs, n int) []int32 {
	owner := make([]int32, numInputs)
	for i := range owner {
		owner[i] = int32(i * n / numInputs)
	}
	return owner
}

// NewPlan computes the Theorem 2 assignment and message schedule.
// inputOwner[i] names the player initially holding input i; pass
// BalancedInputOwner for the canonical layout.
func NewPlan(c *circuit.Circuit, n int, inputOwner []int32) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadInput, n)
	}
	if len(inputOwner) != c.NumInputs() {
		return nil, fmt.Errorf("%w: %d owners for %d inputs", ErrBadInput, len(inputOwner), c.NumInputs())
	}
	for i, o := range inputOwner {
		if o < 0 || int(o) >= n {
			return nil, fmt.Errorf("%w: input %d owned by %d", ErrBadInput, i, o)
		}
	}
	p := &Plan{Circ: c, N: n}
	p.inOwner = append([]int32(nil), inputOwner...)
	wires := c.Wires()
	p.S = int((wires + int64(n)*int64(n) - 1) / (int64(n) * int64(n)))
	if p.S < 1 {
		p.S = 1
	}

	if err := p.assignGates(); err != nil {
		return nil, err
	}
	p.computeLayers()
	p.computeSchedule()
	return p, nil
}

// assignGates implements the proof's construction of the assignment I.
func (p *Plan) assignGates() error {
	c, n := p.Circ, p.N
	g := c.NumGates()
	heavyThresh := 2 * n * p.S
	lightCap := 4 * n * p.S

	p.Assign = make([]int32, g)
	p.Heavy = make([]bool, g)
	p.heavyIdx = make([]int32, g)

	nextHeavyOwner := 0
	for id := 0; id < g; id++ {
		p.heavyIdx[id] = -1
		w := c.FanIn(id) + c.FanOut(id)
		if w >= heavyThresh {
			p.Heavy[id] = true
			p.heavyIdx[id] = int32(nextHeavyOwner)
			if nextHeavyOwner >= n {
				return fmt.Errorf("%w: heavy gate %d has no free player", ErrTooManyHeavy, id)
			}
			p.Assign[id] = int32(nextHeavyOwner)
			nextHeavyOwner++
		}
	}
	p.numHeavy = nextHeavyOwner
	// Pack light gates least-loaded-first; the cap 4n·s can never be hit
	// while total light weight is at most 2n²·s (see package comment).
	lh := make(loadHeap, n)
	for i := 0; i < n; i++ {
		lh[i] = playerLoad{player: i}
	}
	for id := 0; id < g; id++ {
		if p.Heavy[id] {
			continue
		}
		w := c.FanIn(id) + c.FanOut(id)
		if lh[0].load+int64(w) > int64(lightCap) {
			return fmt.Errorf("%w: gate %d of weight %d", ErrOverflow, id, w)
		}
		p.Assign[id] = int32(lh[0].player)
		lh[0].load += int64(w)
		lh.siftDown(0)
	}
	for id := 0; id < g; id++ {
		if w := c.SeparabilityWidth(id); w > p.sepMax {
			p.sepMax = w
		}
	}
	return nil
}

func (p *Plan) computeLayers() {
	c := p.Circ
	p.layers = make([][]int32, c.Depth()+1)
	for id := 0; id < c.NumGates(); id++ {
		l := c.Layer(id)
		p.layers[l] = append(p.layers[l], int32(id))
	}
}

// computeSchedule derives, per stage, the maximum direct-exchange bits on
// any link and the maximum light-light bundle between any ordered pair —
// the quantities every player must agree on to stay in lock step.
func (p *Plan) computeSchedule() {
	c, n := p.Circ, p.N
	depth := c.Depth()
	p.maxDir = make([]int, depth+1)
	p.maxLight = make([]int, depth+1)
	p.hasLight = make([]bool, depth+1)

	linkBits := make(map[int64]int)   // (p*n+q) -> direct bits this stage
	pairBits := make(map[int64]int)   // (p*n+q) -> light bits this stage
	heavySent := make(map[int64]bool) // (gate*n+dstPlayer) -> already forwarded

	for r := 1; r <= depth; r++ {
		for k := range linkBits {
			delete(linkBits, k)
		}
		for k := range pairBits {
			delete(pairBits, k)
		}
		for _, id := range p.layers[r] {
			gid := int(id)
			q := int(p.Assign[gid])
			if p.Heavy[gid] {
				// (a): one partial per contributing player.
				width := c.SeparabilityWidth(gid)
				contrib := make(map[int32]bool)
				for _, w := range c.Inputs(gid) {
					contrib[p.Assign[w]] = true
				}
				for pl := range contrib {
					if int(pl) != q {
						linkBits[int64(pl)*int64(n)+int64(q)] += width
					}
				}
				continue
			}
			for _, w := range c.Inputs(gid) {
				src := int(p.Assign[w])
				if src == q {
					continue
				}
				if p.Heavy[w] {
					// (b): forward once per (heavy gate, destination).
					key := int64(w)*int64(n) + int64(q)
					if !heavySent[key] {
						heavySent[key] = true
						linkBits[int64(src)*int64(n)+int64(q)]++
					}
				} else {
					// (c): light-light wire, routed.
					pairBits[int64(src)*int64(n)+int64(q)]++
					p.hasLight[r] = true
				}
			}
		}
		for _, v := range linkBits {
			if v > p.maxDir[r] {
				p.maxDir[r] = v
			}
		}
		for _, v := range pairBits {
			if v > p.maxLight[r] {
				p.maxLight[r] = v
			}
		}
	}

	// Input redistribution demand: holder -> owner of the input gate.
	inPair := make(map[int64]int)
	for i := 0; i < c.NumInputs(); i++ {
		holder := int64(p.inOwner[i])
		owner := int64(p.Assign[c.InputGate(i)])
		if holder != owner {
			inPair[holder*int64(n)+owner]++
		}
	}
	for _, v := range inPair {
		if v > p.maxInput {
			p.maxInput = v
		}
	}
}

// Depth returns the circuit depth D (number of evaluation stages).
func (p *Plan) Depth() int { return p.Circ.Depth() }

// SeparabilityWidth returns the maximum b over all gates in the circuit.
func (p *Plan) SeparabilityWidth() int { return p.sepMax }

// LightWeightCap returns the per-player light-weight bound 4n·s.
func (p *Plan) LightWeightCap() int { return 4 * p.N * p.S }

// HeavyThreshold returns the heaviness threshold 2n·s.
func (p *Plan) HeavyThreshold() int { return 2 * p.N * p.S }

// loadHeap is a fixed-size min-heap of player light loads, ordered by
// (load, player). The root is updated in place and sifted down, which
// avoids the interface boxing of container/heap on the per-gate path.
// The initial state (all loads zero, players ascending) is a valid heap.
type playerLoad struct {
	player int
	load   int64
}

type loadHeap []playerLoad

func (h loadHeap) less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	return h[i].player < h[j].player
}

func (h loadHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h.less(l, min) {
			min = l
		}
		if r < len(h) && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// chunkIdxWidth returns the header width for chunk indices when a string
// of at most maxBits bits is cut into unit-bit chunks.
func chunkIdxWidth(maxBits, unit int) int {
	chunks := (maxBits + unit - 1) / unit
	if chunks < 1 {
		chunks = 1
	}
	return bits.UintWidth(uint64(chunks - 1))
}
