package circuit

import (
	"fmt"

	"repro/internal/bits"
)

// EvalPlan is the compiled evaluation plan of a frozen circuit: the
// word-parallel engine behind Eval and EvalBatch. It is built once by
// Builder.Build and shared by all evaluations of the circuit.
//
// Both evaluations walk the gates in id order (ids are topologically
// sorted by construction) over a dense layout indexed by gate id, with
// zero per-gate allocation:
//
//   - scalar: one bit per gate in a flat []uint64 bitset — Eval reads
//     input bits straight out of the bitset.
//   - bitsliced: one uint64 word per gate, bit t of the word holding the
//     gate's value under input vector t — EvalBatch evaluates 64 input
//     assignments per pass. AND/OR/XOR/NOT are single word ops per wire;
//     MOD and Threshold gates accumulate a carry-save popcount counter
//     (counter bit k of every lane lives in one word) and then compare or
//     reduce it without leaving word-parallel form whenever they can.
//
// Each evaluation allocates its value storage (one bitset or one word per
// gate) and its output slice: O(1) allocations per call regardless of
// circuit size.
type EvalPlan struct {
	c        *Circuit
	maxFanIn int
	words    int // scalar bitset length in words
}

// compilePlan builds the plan for a frozen circuit. Called by Build.
func compilePlan(c *Circuit) *EvalPlan {
	p := &EvalPlan{c: c, words: (c.NumGates() + 63) / 64}
	for g := 0; g < c.NumGates(); g++ {
		p.maxFanIn = max(p.maxFanIn, c.FanIn(g))
	}
	return p
}

// Plan returns the circuit's compiled evaluation plan.
func (c *Circuit) Plan() *EvalPlan { return c.plan }

// MaxFanIn reports the largest gate fan-in in the circuit.
func (p *EvalPlan) MaxFanIn() int { return p.maxFanIn }

// bitOf reads gate g's bit from the scalar dense bitset.
func bitOf(val []uint64, g int32) bool { return bits.BitsetGet(val, int(g)) }

// setBit sets gate g's bit in the scalar dense bitset.
func setBit(val []uint64, g int32) { bits.BitsetSet(val, int(g)) }

// EvalGateBits evaluates gate g from a dense bitset of gate values (bit g
// of val holds the value of gate g; all of g's in-wires must already be
// set). It is the shared scalar inner step of the plan's Eval and of the
// Theorem 2 simulation's local light-gate evaluation, and performs no
// allocation.
func (c *Circuit) EvalGateBits(g int, val []uint64) bool {
	ws := c.inList[c.inStart[g]:c.inStart[g+1]]
	switch c.kind[g] {
	case Input:
		return bitOf(val, int32(g))
	case Const0:
		return false
	case Const1:
		return true
	case And:
		for _, w := range ws {
			if !bitOf(val, w) {
				return false
			}
		}
		return true
	case Or:
		for _, w := range ws {
			if bitOf(val, w) {
				return true
			}
		}
		return false
	case Not:
		return !bitOf(val, ws[0])
	case Xor:
		x := false
		for _, w := range ws {
			if bitOf(val, w) {
				x = !x
			}
		}
		return x
	case Mod:
		m := int(c.param[g])
		s := 0
		for _, w := range ws {
			if bitOf(val, w) {
				s++
			}
		}
		return s%m == 0
	case Threshold:
		t := int(c.param[g])
		s := 0
		for _, w := range ws {
			if bitOf(val, w) {
				s++
				if s >= t {
					return true
				}
			}
		}
		return false
	default:
		panic(fmt.Sprintf("circuit: EvalGateBits of %v", c.kind[g]))
	}
}

// Eval evaluates the circuit on one input assignment through the dense
// scalar path. It performs two allocations: the gate bitset and the
// output slice.
func (p *EvalPlan) Eval(in []bool) ([]bool, error) {
	c := p.c
	if len(in) != c.NumInputs() {
		return nil, fmt.Errorf("circuit: %d input bits for %d inputs", len(in), c.NumInputs())
	}
	val := make([]uint64, p.words)
	for i, g := range c.inputs {
		if in[i] {
			setBit(val, g)
		}
	}
	for g := 0; g < len(c.kind); g++ {
		if c.kind[g] == Input {
			continue
		}
		if c.EvalGateBits(g, val) {
			setBit(val, int32(g))
		}
	}
	out := make([]bool, len(c.outputs))
	for i, g := range c.outputs {
		out[i] = bitOf(val, g)
	}
	return out, nil
}

// ReplicateLanes packs one scalar input assignment into the all-lanes
// bitsliced layout: every lane of lane word i carries input bit i.
func ReplicateLanes(in []bool) []uint64 {
	out := make([]uint64, len(in))
	for i, v := range in {
		if v {
			out[i] = ^uint64(0)
		}
	}
	return out
}

// EvalBatch evaluates 64 input assignments in one pass. in[i] holds input
// position i across all lanes: bit t of in[i] is input i of assignment t.
// The result follows the same layout: bit t of out[j] is output j of
// assignment t. It performs two allocations: one word per gate and the
// output slice.
func (p *EvalPlan) EvalBatch(in []uint64) ([]uint64, error) {
	c := p.c
	if len(in) != c.NumInputs() {
		return nil, fmt.Errorf("circuit: %d input lanes for %d inputs", len(in), c.NumInputs())
	}
	val := make([]uint64, c.NumGates())
	for i, g := range c.inputs {
		val[g] = in[i]
	}
	var cnt [64]uint64
	for g, k := range c.kind {
		if k != Input {
			val[g] = p.batchGate(g, val, &cnt)
		}
	}
	out := make([]uint64, len(c.outputs))
	for i, g := range c.outputs {
		out[i] = val[g]
	}
	return out, nil
}

// batchGate computes the 64-lane word of gate g. cnt is the caller's
// carry-save counter scratch (counter bit k of all 64 lanes in cnt[k]).
func (p *EvalPlan) batchGate(g int, val []uint64, cnt *[64]uint64) uint64 {
	c := p.c
	ws := c.inList[c.inStart[g]:c.inStart[g+1]]
	switch c.kind[g] {
	case Const0:
		return 0
	case Const1:
		return ^uint64(0)
	case And:
		acc := ^uint64(0)
		for _, w := range ws {
			acc &= val[w]
		}
		return acc
	case Or:
		acc := uint64(0)
		for _, w := range ws {
			acc |= val[w]
		}
		return acc
	case Not:
		return ^val[ws[0]]
	case Xor:
		acc := uint64(0)
		for _, w := range ws {
			acc ^= val[w]
		}
		return acc
	case Mod:
		m := int(c.param[g])
		if m == 2 {
			// count ≡ 0 (mod 2) is the complement of the parity.
			acc := uint64(0)
			for _, w := range ws {
				acc ^= val[w]
			}
			return ^acc
		}
		width := countLanes(ws, val, cnt)
		if m&(m-1) == 0 {
			// Power of two: divisible iff the low log2(m) counter bits
			// are all zero.
			low := 0
			for 1<<uint(low) < m {
				low++
			}
			acc := uint64(0)
			for k := 0; k < low && k < width; k++ {
				acc |= cnt[k]
			}
			return ^acc
		}
		if len(ws)/m+1 <= 64 {
			// Few multiples: OR of bitsliced equality tests against each
			// multiple of m in [0, fanIn].
			acc := uint64(0)
			for v := 0; v <= len(ws); v += m {
				eq := ^uint64(0)
				for k := 0; k < width; k++ {
					if (v>>uint(k))&1 == 1 {
						eq &= cnt[k]
					} else {
						eq &^= cnt[k]
					}
				}
				acc |= eq
			}
			return acc
		}
		// Many multiples: extracting each lane's count is cheaper
		// (64*width ops vs (fanIn/m)*width).
		acc := uint64(0)
		for t := 0; t < 64; t++ {
			s := 0
			for k := 0; k < width; k++ {
				s |= int(cnt[k]>>uint(t)&1) << uint(k)
			}
			if s%m == 0 {
				acc |= 1 << uint(t)
			}
		}
		return acc
	case Threshold:
		t := int(c.param[g])
		if t == 1 {
			acc := uint64(0)
			for _, w := range ws {
				acc |= val[w]
			}
			return acc
		}
		if t == len(ws) {
			acc := ^uint64(0)
			for _, w := range ws {
				acc &= val[w]
			}
			return acc
		}
		width := countLanes(ws, val, cnt)
		// Bitsliced comparison count >= t, MSB first: gt collects lanes
		// already strictly greater, eq the lanes still tied.
		gt, eq := uint64(0), ^uint64(0)
		for k := width - 1; k >= 0; k-- {
			if (t>>uint(k))&1 == 1 {
				eq &= cnt[k]
			} else {
				gt |= eq & cnt[k]
				eq &^= cnt[k]
			}
		}
		return gt | eq
	default:
		panic(fmt.Sprintf("circuit: batch evaluation of %v", c.kind[g]))
	}
}

// countLanes accumulates the popcount of the in-wires per lane into the
// carry-save counter: after the call, bit t of cnt[k] is bit k of the
// number of true inputs in lane t. Returns the counter width in words
// (enough bits to hold fanIn, so the ripple carry can never escape).
func countLanes(ws []int32, val []uint64, cnt *[64]uint64) int {
	width := bits.UintWidth(uint64(len(ws)))
	for k := 0; k < width; k++ {
		cnt[k] = 0
	}
	for _, w := range ws {
		carry := val[w]
		for k := 0; carry != 0; k++ {
			cnt[k], carry = cnt[k]^carry, cnt[k]&carry
		}
	}
	return width
}
