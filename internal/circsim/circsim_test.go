package circsim

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
)

func randomInput(n int, rng *rand.Rand) []bool {
	in := make([]bool, n)
	for i := range in {
		in[i] = rng.Intn(2) == 1
	}
	return in
}

// checkAgainstDirect simulates the circuit on the clique and compares with
// direct evaluation, returning the run for further inspection.
func checkAgainstDirect(t *testing.T, c *circuit.Circuit, n, bandwidth int, input []bool, seed int64) *RunResult {
	t.Helper()
	want, err := c.Eval(input)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvalOnClique(core.Env{}, c, n, bandwidth, input, nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Fatalf("output %d = %v on clique, want %v (n=%d b=%d)",
				i, res.Output[i], want[i], n, bandwidth)
		}
	}
	return res
}

func TestSimulateParityTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, err := circuit.ParityXorTree(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4, 8} {
		for trial := 0; trial < 3; trial++ {
			checkAgainstDirect(t, c, n, 32, randomInput(64, rng), int64(trial))
		}
	}
}

func TestSimulateParityMod2(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c, err := circuit.ParityMod2(64)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		checkAgainstDirect(t, c, 8, 16, randomInput(64, rng), int64(trial))
	}
}

func TestSimulateMajorityHeavyGate(t *testing.T) {
	// A single majority gate over n² inputs is heavy for small n and
	// exercises the case (a) partial-digest path.
	rng := rand.New(rand.NewSource(3))
	c, err := circuit.MajorityCircuit(64)
	if err != nil {
		t.Fatal(err)
	}
	res := checkAgainstDirect(t, c, 8, 16, randomInput(64, rng), 7)
	heavyCount := 0
	for _, h := range res.Plan.Heavy {
		if h {
			heavyCount++
		}
	}
	if heavyCount == 0 {
		t.Error("expected the majority gate to be heavy for n=8")
	}
}

func TestSimulateHeavyFanOutToLight(t *testing.T) {
	// One input with enormous fan-out (heavy) feeding many light AND
	// gates exercises the case (b) one-shot forwarding path.
	b := circuit.NewBuilder()
	hub := b.Input()
	others := make([]int, 80)
	for i := range others {
		others[i] = b.Input()
	}
	for _, o := range others {
		b.Output(b.Gate(circuit.And, 0, hub, o))
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 3; trial++ {
		res := checkAgainstDirect(t, c, 4, 16, randomInput(81, rng), int64(trial))
		if !res.Plan.Heavy[0] {
			t.Fatal("hub input should be heavy (fan-out 80 >= 2*4*s)")
		}
	}
}

func TestSimulateInnerProductAndDisjointness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ip, err := circuit.InnerProductMod2(50)
	if err != nil {
		t.Fatal(err)
	}
	dj, err := circuit.DisjointnessCircuit(50)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		in := randomInput(100, rng)
		checkAgainstDirect(t, ip, 10, 24, in, int64(trial))
		checkAgainstDirect(t, dj, 10, 24, in, int64(trial))
	}
}

func TestSimulateRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 6; trial++ {
		var (
			c   *circuit.Circuit
			err error
		)
		if trial%2 == 0 {
			c, err = circuit.RandomCC(40, 12, 3, 5, 6, rng)
		} else {
			c, err = circuit.RandomACC(40, 12, 3, 5, 6, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		n := []int{4, 5, 8}[trial%3]
		checkAgainstDirect(t, c, n, 32, randomInput(40, rng), int64(trial))
	}
}

func TestSimulateBandwidthOne(t *testing.T) {
	// The CLIQUE-UCAST(n,1) regime of Section 2.1: everything must still
	// be correct when each link carries a single bit per round.
	rng := rand.New(rand.NewSource(7))
	c, err := circuit.ParityXorTree(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstDirect(t, c, 4, 1, randomInput(32, rng), 11)
}

func TestRoundsScaleWithDepthNotSize(t *testing.T) {
	// Theorem 2: rounds = O(D). Doubling the input size (at fixed depth)
	// must not change rounds once bandwidth covers O(b+s); growing depth
	// must grow rounds roughly linearly.
	rng := rand.New(rand.NewSource(8))
	roundsFor := func(depth, inputs int) int {
		c, err := circuit.RandomCC(inputs, 16, depth, 4, 6, rng)
		if err != nil {
			t.Fatal(err)
		}
		in := randomInput(inputs, rng)
		res, err := EvalOnClique(core.Env{}, c, 8, 64, in, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Rounds
	}
	r3 := roundsFor(3, 64)
	r6 := roundsFor(6, 64)
	r12 := roundsFor(12, 64)
	if r6 <= r3 || r12 <= r6 {
		t.Errorf("rounds not increasing with depth: %d %d %d", r3, r6, r12)
	}
	// Per-stage cost is bounded: rounds per layer should be O(1).
	if r12 > 12*12 {
		t.Errorf("rounds per stage too high: %d rounds for depth 12", r12)
	}
	rBig := roundsFor(6, 256)
	if rBig > 3*r6+12 {
		t.Errorf("rounds grew too fast with size at fixed depth: %d vs %d", rBig, r6)
	}
}

func TestPlanInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		c, err := circuit.RandomACC(30, 10, 3, 4, 6, rng)
		if err != nil {
			t.Fatal(err)
		}
		n := 2 + rng.Intn(8)
		plan, err := NewPlan(c, n, BalancedInputOwner(c.NumInputs(), n))
		if err != nil {
			t.Fatal(err)
		}
		heavyPer := make([]int, n)
		lightLoad := make([]int64, n)
		for id := 0; id < c.NumGates(); id++ {
			w := int64(c.FanIn(id) + c.FanOut(id))
			if plan.Heavy[id] {
				heavyPer[plan.Assign[id]]++
				if int(w) < plan.HeavyThreshold() {
					t.Fatalf("gate %d marked heavy with weight %d < %d", id, w, plan.HeavyThreshold())
				}
			} else {
				lightLoad[plan.Assign[id]] += w
				if int(w) >= plan.HeavyThreshold() {
					t.Fatalf("gate %d with weight %d not marked heavy", id, w)
				}
			}
		}
		for pl := 0; pl < n; pl++ {
			if heavyPer[pl] > 1 {
				t.Fatalf("player %d owns %d heavy gates", pl, heavyPer[pl])
			}
			if lightLoad[pl] > int64(plan.LightWeightCap()) {
				t.Fatalf("player %d light load %d exceeds cap %d", pl, lightLoad[pl], plan.LightWeightCap())
			}
		}
	}
}

func TestCustomInputLayout(t *testing.T) {
	// All inputs initially at player 0 (still within the theorem's
	// "roughly balanced" allowance for this size).
	rng := rand.New(rand.NewSource(10))
	c, err := circuit.ParityXorTree(20, 3)
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int32, 20)
	in := randomInput(20, rng)
	want, _ := c.Eval(in)
	res, err := EvalOnClique(core.Env{}, c, 5, 16, in, owner, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != want[0] {
		t.Error("skewed input layout produced wrong output")
	}
}

func TestMultiOutputOperator(t *testing.T) {
	// Remark 3: operators with multi-bit outputs. Output i = x_i XOR x_{i+1}.
	b := circuit.NewBuilder()
	in := make([]int, 16)
	for i := range in {
		in[i] = b.Input()
	}
	for i := 0; i+1 < len(in); i++ {
		b.Output(b.Gate(circuit.Xor, 0, in[i], in[i+1]))
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3; trial++ {
		checkAgainstDirect(t, c, 4, 8, randomInput(16, rng), int64(trial))
	}
}

func TestPlanErrors(t *testing.T) {
	c, err := circuit.MajorityCircuit(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlan(c, 4, make([]int32, 3)); err == nil {
		t.Error("wrong input-owner length accepted")
	}
	bad := make([]int32, 8)
	bad[0] = 9
	if _, err := NewPlan(c, 4, bad); err == nil {
		t.Error("out-of-range input owner accepted")
	}
	if _, err := EvalOnClique(core.Env{}, c, 4, 8, make([]bool, 5), nil, 0); err == nil {
		t.Error("wrong input length accepted")
	}
}

func TestSingleNodeClique(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c, err := circuit.MajorityCircuit(10)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstDirect(t, c, 1, 8, randomInput(10, rng), 0)
}

func TestConstGatesOnClique(t *testing.T) {
	b := circuit.NewBuilder()
	x := b.Input()
	one := b.Const(true)
	zero := b.Const(false)
	b.Output(b.Gate(circuit.And, 0, x, one))
	b.Output(b.Gate(circuit.Or, 0, x, zero))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []bool{false, true} {
		checkAgainstDirect(t, c, 3, 8, []bool{v}, 5)
	}
}
