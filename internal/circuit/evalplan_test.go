package circuit

import (
	"math/rand"
	"testing"
)

// randomKitchenSink builds a random layered circuit that exercises every
// gate kind, including NOT, constants, MOD with assorted moduli and
// Threshold gates at their edge parameters (T=1, T=fanIn and midway).
func randomKitchenSink(t *testing.T, nInputs, width, depth, maxFanIn int, rng *rand.Rand) *Circuit {
	t.Helper()
	b := NewBuilder()
	prev := make([]int, 0, nInputs+2)
	for i := 0; i < nInputs; i++ {
		prev = append(prev, b.Input())
	}
	prev = append(prev, b.Const(false), b.Const(true))
	for d := 0; d < depth; d++ {
		next := make([]int, 0, width)
		for i := 0; i < width; i++ {
			fanIn := 1 + rng.Intn(maxFanIn)
			ws := make([]int, fanIn)
			for j := range ws {
				ws[j] = prev[rng.Intn(len(prev))]
			}
			var id int
			switch rng.Intn(7) {
			case 0:
				id = b.Gate(And, 0, ws...)
			case 1:
				id = b.Gate(Or, 0, ws...)
			case 2:
				id = b.Gate(Xor, 0, ws...)
			case 3:
				id = b.Gate(Not, 0, ws[0])
			case 4:
				id = b.Gate(Mod, 2+rng.Intn(7), ws...)
			case 5:
				// Threshold edge params: 1, fanIn, or midway.
				ts := []int{1, fanIn, 1 + fanIn/2}
				id = b.Gate(Threshold, ts[rng.Intn(3)], ws...)
			default:
				id = b.Gate2(Xor, 0, ws[0], ws[rng.Intn(fanIn)])
			}
			next = append(next, id)
		}
		prev = next
	}
	for _, g := range prev {
		b.Output(g)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkEnginesAgree pins the package's central property on one circuit:
// dense Eval ≡ scalar EvalScalar, and one EvalBatch pass ≡ 64 scalar
// evaluations, lane by lane.
func checkEnginesAgree(t *testing.T, c *Circuit, rng *rand.Rand) {
	t.Helper()
	nIn := c.NumInputs()
	// 64 random assignments, one per lane.
	assigns := make([][]bool, 64)
	lanes := make([]uint64, nIn)
	for l := range assigns {
		in := make([]bool, nIn)
		for i := range in {
			in[i] = rng.Intn(2) == 1
			if in[i] {
				lanes[i] |= 1 << uint(l)
			}
		}
		assigns[l] = in
	}
	batch, err := c.EvalBatch(lanes)
	if err != nil {
		t.Fatal(err)
	}
	for l, in := range assigns {
		want, err := c.EvalScalar(in)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := c.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if dense[j] != want[j] {
				t.Fatalf("lane %d output %d: dense %v != scalar %v", l, j, dense[j], want[j])
			}
			if got := batch[j]>>uint(l)&1 == 1; got != want[j] {
				t.Fatalf("lane %d output %d: batch %v != scalar %v", l, j, got, want[j])
			}
		}
	}
}

func TestEnginesAgreeKitchenSink(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 30; trial++ {
		c := randomKitchenSink(t, 4+rng.Intn(30), 3+rng.Intn(10), 1+rng.Intn(4), 1+rng.Intn(8), rng)
		checkEnginesAgree(t, c, rng)
	}
}

func TestEnginesAgreeStandardBuilders(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	build := []func() (*Circuit, error){
		func() (*Circuit, error) { return ParityXorTree(65, 3) },
		func() (*Circuit, error) { return ParityMod2(40) },
		func() (*Circuit, error) { return MajorityCircuit(33) },
		func() (*Circuit, error) { return MajorityOfMajorities(60, 5) },
		func() (*Circuit, error) { return InnerProductMod2(31) },
		func() (*Circuit, error) { return DisjointnessCircuit(31) },
		func() (*Circuit, error) { return RandomCC(48, 12, 3, 5, 6, rng) },
		func() (*Circuit, error) { return RandomACC(48, 12, 3, 5, 6, rng) },
	}
	for i, f := range build {
		c, err := f()
		if err != nil {
			t.Fatalf("builder %d: %v", i, err)
		}
		checkEnginesAgree(t, c, rng)
	}
}

// TestBatchWideGates pins the bitsliced MOD/Threshold reductions on gates
// wide enough to force every strategy: the parity shortcut (m=2), the
// power-of-two low-bit test, the equality-over-multiples path
// (fanIn/m+1 <= 64) and the per-lane extraction path (fanIn/m+1 > 64).
func TestBatchWideGates(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	cases := []struct {
		fanIn int
		kind  Kind
		param int
	}{
		{200, Mod, 2},
		{200, Mod, 3}, // 67 multiples -> extraction path
		{200, Mod, 4},
		{150, Mod, 5}, // 31 multiples -> equality path
		{200, Mod, 16},
		{200, Threshold, 1},
		{200, Threshold, 100},
		{200, Threshold, 199},
		{200, Threshold, 200},
		{63, Threshold, 32},
		{64, Mod, 7},
	}
	for _, tc := range cases {
		b := NewBuilder()
		ws := make([]int, tc.fanIn)
		for i := range ws {
			ws[i] = b.Input()
		}
		b.Output(b.Gate(tc.kind, tc.param, ws...))
		c, err := b.Build()
		if err != nil {
			t.Fatalf("%v_%d/%d: %v", tc.kind, tc.param, tc.fanIn, err)
		}
		checkEnginesAgree(t, c, rng)
	}
}

func TestGate2MatchesGate(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	mk := func(two bool) *Circuit {
		b := NewBuilder()
		x, y := b.Input(), b.Input()
		var ids []int
		for _, k := range []Kind{And, Or, Xor} {
			if two {
				ids = append(ids, b.Gate2(k, 0, x, y))
			} else {
				ids = append(ids, b.Gate(k, 0, x, y))
			}
		}
		if two {
			ids = append(ids, b.Gate2(Mod, 2, x, y), b.Gate2(Threshold, 2, x, y))
		} else {
			ids = append(ids, b.Gate(Mod, 2, x, y), b.Gate(Threshold, 2, x, y))
		}
		for _, id := range ids {
			b.Output(id)
		}
		c, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, bb := mk(false), mk(true)
	for trial := 0; trial < 8; trial++ {
		in := []bool{rng.Intn(2) == 1, rng.Intn(2) == 1}
		av, _ := a.Eval(in)
		bv, _ := bb.Eval(in)
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("Gate2 output %d differs on %v", j, in)
			}
		}
	}
}

func TestGate2Errors(t *testing.T) {
	b := NewBuilder()
	x := b.Input()
	b.Gate2(Not, 0, x, x) // NOT is not constructible via Gate2
	b.Output(x)
	if _, err := b.Build(); err == nil {
		t.Error("Gate2(Not) accepted")
	}
	b2 := NewBuilder()
	y := b2.Input()
	b2.Gate2(And, 0, y, 7) // dangling wire
	b2.Output(y)
	if _, err := b2.Build(); err == nil {
		t.Error("Gate2 with dangling wire accepted")
	}
}

// TestAllocRegressionEval is the allocation-regression smoke check wired
// into CI: the dense engines must stay O(1) allocations per evaluation
// (the pre-plan path allocated per gate).
func TestAllocRegressionEval(t *testing.T) {
	c, err := ParityXorTree(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]bool, 256)
	lanes := make([]uint64, 256)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.Eval(in); err != nil {
			t.Fatal(err)
		}
	}); allocs > 8 {
		t.Errorf("dense Eval: %.0f allocs/op, want O(1)", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.EvalBatch(lanes); err != nil {
			t.Fatal(err)
		}
	}); allocs > 8 {
		t.Errorf("EvalBatch: %.0f allocs/op, want O(1)", allocs)
	}
}
