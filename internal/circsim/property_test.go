package circsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/core"
)

// TestSimulationEquivalenceProperty is the package's central property:
// for random circuits, random inputs, random player counts, random
// bandwidths and random (balanced or skewed) input layouts, the Theorem 2
// simulation computes exactly what direct evaluation computes.
func TestSimulationEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nIn := 8 + rng.Intn(40)
		width := 4 + rng.Intn(12)
		depth := 1 + rng.Intn(4)
		fanIn := 2 + rng.Intn(4)
		var (
			c   *circuit.Circuit
			err error
		)
		switch rng.Intn(3) {
		case 0:
			c, err = circuit.RandomCC(nIn, width, depth, fanIn, 2+rng.Intn(5), rng)
		case 1:
			c, err = circuit.RandomACC(nIn, width, depth, fanIn, 2+rng.Intn(5), rng)
		default:
			c, err = circuit.ParityXorTree(nIn, fanIn)
		}
		if err != nil {
			t.Log(err)
			return false
		}
		n := 2 + rng.Intn(7)
		bandwidth := 1 << uint(rng.Intn(6)) // 1..32
		in := make([]bool, nIn)
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		// Random input layout: balanced or all-at-one-player or random.
		var owner []int32
		switch rng.Intn(3) {
		case 0:
			owner = nil // balanced default
		case 1:
			owner = make([]int32, nIn) // everything at player 0
		default:
			owner = make([]int32, nIn)
			for i := range owner {
				owner[i] = int32(rng.Intn(n))
			}
		}
		want, err := c.Eval(in)
		if err != nil {
			t.Log(err)
			return false
		}
		res, err := EvalOnClique(core.Env{}, c, n, bandwidth, in, owner, seed)
		if err != nil {
			t.Log(err)
			return false
		}
		for i := range want {
			if res.Output[i] != want[i] {
				t.Logf("seed %d: output %d differs (n=%d b=%d)", seed, i, n, bandwidth)
				return false
			}
		}
		if res.Stats.MaxLinkBits > bandwidth {
			t.Logf("seed %d: bandwidth violated", seed)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// random circuits with RandomCC — the circuit generators use their own
// rng; ensure a ParityXorTree edge case with fan-in larger than inputs.
func TestTinyTreeEdgeCases(t *testing.T) {
	c, err := circuit.ParityXorTree(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []bool{false, true} {
		res, err := EvalOnClique(core.Env{}, c, 3, 4, []bool{v}, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Output[0] != v {
			t.Errorf("parity of single bit %v = %v", v, res.Output[0])
		}
	}
}

func TestDepthZeroCircuit(t *testing.T) {
	// Outputs wired directly to inputs: no evaluation stages at all, only
	// the input redistribution.
	b := circuit.NewBuilder()
	x := b.Input()
	y := b.Input()
	b.Output(y)
	b.Output(x)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.Depth() != 0 {
		t.Fatalf("depth = %d, want 0", c.Depth())
	}
	res, err := EvalOnClique(core.Env{}, c, 4, 8, []bool{true, false}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != false || res.Output[1] != true {
		t.Errorf("identity outputs wrong: %v", res.Output)
	}
}
