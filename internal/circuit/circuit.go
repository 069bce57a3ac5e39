// Package circuit models the bounded-depth circuits that Section 2 of the
// paper simulates on the congested clique: directed acyclic circuits with
// unbounded fan-in and fan-out whose gates are b-separable in the sense of
// Definition 1 — for every partition of the gate's inputs there are b-bit
// "partial evaluation" functions g_j and a combiner h with
// f(x) = h(g_1(x_{I_1}), ..., g_k(x_{I_k})).
//
// All the gate families the paper discusses are provided: AND/OR/NOT/XOR
// (1-separable), MOD_m gates of ACC/CC circuits (ceil(log2 m)-separable),
// and unweighted threshold gates of TC circuits (O(log n)-separable).
// Circuits use a compact flat representation so that the multi-million-gate
// matrix-multiplication circuits of Section 2.1 stay cheap.
package circuit

import (
	"errors"
	"fmt"

	"repro/internal/bits"
)

// Kind enumerates gate types.
type Kind uint8

// Gate kinds. Input gates have no in-wires; Const gates compute a fixed
// bit. MOD_m outputs 1 iff the input sum is divisible by m (the paper's
// convention); Threshold-T outputs 1 iff at least T inputs are 1.
const (
	Input Kind = iota + 1
	Const0
	Const1
	And
	Or
	Not
	Xor
	Mod
	Threshold
)

func (k Kind) String() string {
	switch k {
	case Input:
		return "INPUT"
	case Const0:
		return "CONST0"
	case Const1:
		return "CONST1"
	case And:
		return "AND"
	case Or:
		return "OR"
	case Not:
		return "NOT"
	case Xor:
		return "XOR"
	case Mod:
		return "MOD"
	case Threshold:
		return "THR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Errors reported by the builder.
var (
	ErrBadWire  = errors.New("circuit: wire references nonexistent gate")
	ErrBadGate  = errors.New("circuit: malformed gate")
	ErrNoOutput = errors.New("circuit: no output designated")
)

// Circuit is a frozen DAG circuit. Build one with a Builder.
type Circuit struct {
	kind    []Kind
	param   []int32 // m for Mod, T for Threshold
	inStart []int32 // CSR offsets into inList, len = numGates+1
	inList  []int32
	outDeg  []int32
	layer   []int32
	depth   int
	outputs []int32
	inputs  []int32 // gate id of the i-th input
	plan    *EvalPlan
}

// NumGates reports the total gate count (inputs and constants included).
func (c *Circuit) NumGates() int { return len(c.kind) }

// NumInputs reports the number of input gates.
func (c *Circuit) NumInputs() int { return len(c.inputs) }

// InputGate returns the gate id of input position i.
func (c *Circuit) InputGate(i int) int { return int(c.inputs[i]) }

// Kind returns the kind of gate g.
func (c *Circuit) Kind(g int) Kind { return c.kind[g] }

// Inputs returns the in-wires of gate g. The caller must not modify it.
func (c *Circuit) Inputs(g int) []int32 { return c.inList[c.inStart[g]:c.inStart[g+1]] }

// FanIn returns the in-degree of gate g.
func (c *Circuit) FanIn(g int) int { return int(c.inStart[g+1] - c.inStart[g]) }

// FanOut returns the out-degree of gate g.
func (c *Circuit) FanOut(g int) int { return int(c.outDeg[g]) }

// Outputs returns the designated output gates.
func (c *Circuit) Outputs() []int32 { return c.outputs }

// Layer returns the layer index of gate g: inputs/constants at 0, other
// gates at 1 + max layer of their inputs (the L_0..L_D decomposition used
// by the Theorem 2 protocol).
func (c *Circuit) Layer(g int) int { return int(c.layer[g]) }

// Depth returns the maximum layer index D.
func (c *Circuit) Depth() int { return c.depth }

// Wires returns the total number of wires (sum of fan-ins).
func (c *Circuit) Wires() int64 { return int64(len(c.inList)) }

// Eval evaluates the circuit directly on the given input assignment and
// returns the output bits in the order the outputs were designated. It is
// the reference against which the clique simulation is checked. It runs on
// the compiled dense plan (see EvalPlan): a flat bitset of gate values and
// no per-gate allocation.
func (c *Circuit) Eval(in []bool) ([]bool, error) {
	return c.plan.Eval(in)
}

// EvalBatch evaluates 64 input assignments in one bitsliced pass; see
// EvalPlan.EvalBatch for the lane layout.
func (c *Circuit) EvalBatch(in []uint64) ([]uint64, error) {
	return c.plan.EvalBatch(in)
}

// EvalScalar is the pre-plan reference evaluator: gate at a time through
// Partial and Combine, with per-gate scratch. It is kept as the
// independent oracle the dense and bitsliced engines are differenced
// against (and as the "scalar" leg of the E14 ablation).
func (c *Circuit) EvalScalar(in []bool) ([]bool, error) {
	if len(in) != c.NumInputs() {
		return nil, fmt.Errorf("circuit: %d input bits for %d inputs", len(in), c.NumInputs())
	}
	val := make([]bool, c.NumGates())
	for i, g := range c.inputs {
		val[g] = in[i]
	}
	scratch := make([]bool, c.plan.maxFanIn) // one scratch sized to max fan-in
	for g := 0; g < c.NumGates(); g++ {
		switch c.kind[g] {
		case Input:
			// set above
		case Const0:
			val[g] = false
		case Const1:
			val[g] = true
		default:
			ws := c.Inputs(g)
			part := scratch[:len(ws)]
			for i, w := range ws {
				part[i] = val[w]
			}
			p, err := c.Partial(g, part)
			if err != nil {
				return nil, err
			}
			v, err := c.Combine(g, []uint64{p})
			if err != nil {
				return nil, err
			}
			val[g] = v
		}
	}
	out := make([]bool, len(c.outputs))
	for i, g := range c.outputs {
		out[i] = val[g]
	}
	return out, nil
}

// SeparabilityWidth returns the b of Definition 1 for gate g: the number
// of bits a partial-evaluation message needs. AND/OR/NOT/XOR gates are
// 1-separable; MOD_m gates are ceil(log2 m)-separable; Threshold-T gates
// are ceil(log2(T+1))-separable (counts are capped at T, which preserves
// the comparison).
func (c *Circuit) SeparabilityWidth(g int) int {
	switch c.kind[g] {
	case And, Or, Not, Xor:
		return 1
	case Mod:
		return bits.UintWidth(uint64(c.param[g] - 1))
	case Threshold:
		return bits.UintWidth(uint64(c.param[g]))
	default:
		return 0 // inputs and constants receive no messages
	}
}

// Partial computes one g_j of Definition 1: the b-bit digest of the part
// of gate g's inputs given in part.
func (c *Circuit) Partial(g int, part []bool) (uint64, error) {
	switch c.kind[g] {
	case And:
		for _, v := range part {
			if !v {
				return 0, nil
			}
		}
		return 1, nil
	case Or:
		for _, v := range part {
			if v {
				return 1, nil
			}
		}
		return 0, nil
	case Not:
		if len(part) != 1 {
			return 0, fmt.Errorf("%w: NOT with %d inputs in part", ErrBadGate, len(part))
		}
		if part[0] {
			return 1, nil
		}
		return 0, nil
	case Xor:
		var x uint64
		for _, v := range part {
			if v {
				x ^= 1
			}
		}
		return x, nil
	case Mod:
		m := uint64(c.param[g])
		var s uint64
		for _, v := range part {
			if v {
				s++
			}
		}
		return s % m, nil
	case Threshold:
		t := uint64(c.param[g])
		var s uint64
		for _, v := range part {
			if v {
				s++
				if s == t {
					return t, nil // capped: the comparison only needs min(count, T)
				}
			}
		}
		return s, nil
	default:
		return 0, fmt.Errorf("%w: partial of %v", ErrBadGate, c.kind[g])
	}
}

// Combine computes h of Definition 1: the gate output from the partial
// digests of a partition of its inputs.
func (c *Circuit) Combine(g int, partials []uint64) (bool, error) {
	switch c.kind[g] {
	case And:
		for _, p := range partials {
			if p == 0 {
				return false, nil
			}
		}
		return true, nil
	case Or:
		for _, p := range partials {
			if p != 0 {
				return true, nil
			}
		}
		return false, nil
	case Not:
		if len(partials) != 1 {
			return false, fmt.Errorf("%w: NOT combine over %d parts", ErrBadGate, len(partials))
		}
		return partials[0] == 0, nil
	case Xor:
		var x uint64
		for _, p := range partials {
			x ^= p & 1
		}
		return x == 1, nil
	case Mod:
		m := uint64(c.param[g])
		var s uint64
		for _, p := range partials {
			s = (s + p) % m
		}
		return s == 0, nil
	case Threshold:
		t := uint64(c.param[g])
		var s uint64
		for _, p := range partials {
			s += p
			if s >= t {
				return true, nil
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("%w: combine of %v", ErrBadGate, c.kind[g])
	}
}

// Builder constructs circuits. Wires may only reference gates that already
// exist, so built circuits are acyclic by construction.
type Builder struct {
	c   Circuit
	err error
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	b := &Builder{}
	b.c.inStart = append(b.c.inStart, 0)
	return b
}

// Input appends an input gate and returns its gate id.
func (b *Builder) Input() int {
	id := b.add(Input, 0, nil)
	b.c.inputs = append(b.c.inputs, int32(id))
	return id
}

// Const appends a constant gate.
func (b *Builder) Const(v bool) int {
	if v {
		return b.add(Const1, 0, nil)
	}
	return b.add(Const0, 0, nil)
}

// Gate appends a logic gate over the given wires and returns its id.
// param is the modulus for Mod and the threshold for Threshold; it is
// ignored for other kinds.
func (b *Builder) Gate(kind Kind, param int, wires ...int) int {
	switch kind {
	case And, Or, Xor:
		if len(wires) == 0 {
			b.fail(fmt.Errorf("%w: %v with no inputs", ErrBadGate, kind))
		}
	case Not:
		if len(wires) != 1 {
			b.fail(fmt.Errorf("%w: NOT with %d inputs", ErrBadGate, len(wires)))
		}
	case Mod:
		if param < 2 {
			b.fail(fmt.Errorf("%w: MOD_%d", ErrBadGate, param))
		}
	case Threshold:
		if param < 1 || param > len(wires) {
			b.fail(fmt.Errorf("%w: THR_%d over %d wires", ErrBadGate, param, len(wires)))
		}
	default:
		b.fail(fmt.Errorf("%w: kind %v not constructible via Gate", ErrBadGate, kind))
	}
	return b.add(kind, int32(param), wires)
}

// Gate2 appends a two-input gate, bypassing Gate's varargs slice — the
// hot path of the matmul circuit generators, which emit millions of
// two-wire AND/XOR gates.
func (b *Builder) Gate2(kind Kind, param, w0, w1 int) int {
	switch kind {
	case And, Or, Xor:
	case Mod:
		if param < 2 {
			b.fail(fmt.Errorf("%w: MOD_%d", ErrBadGate, param))
		}
	case Threshold:
		if param < 1 || param > 2 {
			b.fail(fmt.Errorf("%w: THR_%d over 2 wires", ErrBadGate, param))
		}
	default:
		b.fail(fmt.Errorf("%w: kind %v not constructible via Gate2", ErrBadGate, kind))
	}
	id := len(b.c.kind)
	if w0 < 0 || w0 >= id || w1 < 0 || w1 >= id {
		b.fail(fmt.Errorf("%w: gate %d references %d,%d", ErrBadWire, id, w0, w1))
		return id
	}
	b.c.kind = append(b.c.kind, kind)
	b.c.param = append(b.c.param, int32(param))
	b.c.inList = append(b.c.inList, int32(w0), int32(w1))
	b.c.inStart = append(b.c.inStart, int32(len(b.c.inList)))
	return id
}

// Output designates gate id as the next output of the circuit.
func (b *Builder) Output(id int) {
	if id < 0 || id >= len(b.c.kind) {
		b.fail(fmt.Errorf("%w: output %d", ErrBadWire, id))
		return
	}
	b.c.outputs = append(b.c.outputs, int32(id))
}

// Build freezes the circuit, computing layers, depth and fan-outs.
func (b *Builder) Build() (*Circuit, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.c.outputs) == 0 {
		return nil, ErrNoOutput
	}
	c := b.c
	n := c.NumGates()
	c.outDeg = make([]int32, n)
	c.layer = make([]int32, n)
	for g := 0; g < n; g++ {
		var l int32
		for _, w := range c.Inputs(g) {
			c.outDeg[w]++
			if c.layer[w]+1 > l {
				l = c.layer[w] + 1
			}
		}
		c.layer[g] = l
		if int(l) > c.depth {
			c.depth = int(l)
		}
	}
	c.plan = compilePlan(&c)
	return &c, nil
}

func (b *Builder) add(kind Kind, param int32, wires []int) int {
	id := len(b.c.kind)
	for _, w := range wires {
		if w < 0 || w >= id {
			b.fail(fmt.Errorf("%w: gate %d references %d", ErrBadWire, id, w))
			return id
		}
	}
	b.c.kind = append(b.c.kind, kind)
	b.c.param = append(b.c.param, param)
	for _, w := range wires {
		b.c.inList = append(b.c.inList, int32(w))
	}
	b.c.inStart = append(b.c.inStart, int32(len(b.c.inList)))
	return id
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}
