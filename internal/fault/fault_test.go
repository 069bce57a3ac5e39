package fault

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/bits"
	"repro/internal/core"
)

// gossipBody is a fixed-round gossip protocol: every node unicasts a
// (round, id)-tagged word each round and folds everything it receives
// into an FNV digest, halting after `rounds` rounds regardless of what
// arrives. It terminates under every fault model (no node ever waits on
// another), which makes it the reference workload for determinism tests.
func gossipBody(rounds int) func(*core.Proc) error {
	return func(p *core.Proc) error {
		id, n := p.ID(), p.N()
		h := uint64(0xcbf29ce484222325)
		err := p.Rounds(rounds, func(r int) error {
			msg := bits.New(48)
			msg.WriteUint(uint64(r), 16)
			msg.WriteUint(uint64(id), 16)
			msg.WriteUint(uint64(r*31+id), 16)
			return p.Send((id+1+r%(n-1))%n, msg)
		}, func(_ int, in []*bits.Buffer) error {
			for j, m := range in {
				if m == nil {
					continue
				}
				h = (h ^ uint64(j+1)) * 0x100000001b3
				for _, b := range m.Bytes() {
					h = (h ^ uint64(b)) * 0x100000001b3
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.SetOutput(h)
		return nil
	}
}

func runGossip(t *testing.T, n, rounds, parallelism int, plan core.FaultInjector) *core.Result {
	t.Helper()
	res, err := core.RunProcs(core.Config{
		N:           n,
		Bandwidth:   64,
		Model:       core.Unicast,
		Seed:        42,
		Parallelism: parallelism,
		FaultPlan:   plan,
	}, gossipBody(rounds))
	if err != nil {
		t.Fatalf("RunProcs(parallelism=%d): %v", parallelism, err)
	}
	return res
}

// TestScheduleReplay: the same (Spec, seed) yields a bit-identical fault
// schedule from two independently-constructed plans, and a different
// seed yields a different one.
func TestScheduleReplay(t *testing.T) {
	spec := Spec{Drop: 0.05, Corrupt: 0.05, Delay: 0.05, Duplicate: 0.05, Crash: 0.2}
	a, b := New(spec, 7), New(spec, 7)
	other := New(spec, 8)
	differs := false
	for round := 0; round < 20; round++ {
		for src := 0; src < 8; src++ {
			for dst := 0; dst < 8; dst++ {
				if src == dst {
					continue
				}
				x, y := a.OnMessage(round, src, dst, 48), b.OnMessage(round, src, dst, 48)
				if x != y {
					t.Fatalf("(%d,%d,%d): %+v vs %+v from identical plans", round, src, dst, x, y)
				}
				if x != other.OnMessage(round, src, dst, 48) {
					differs = true
				}
			}
		}
	}
	if !differs {
		t.Error("seed 7 and seed 8 produced identical schedules over 1120 messages")
	}
	for id := 0; id < 8; id++ {
		if a.CrashRound(id) != b.CrashRound(id) {
			t.Fatalf("CrashRound(%d) differs between identical plans", id)
		}
	}
}

// TestEngineDeterminismAcrossParallelism is the tier-1 determinism claim:
// the fault schedule is applied during sequential delivery, so outputs,
// Stats, and FaultStats are byte-identical under every Parallelism.
func TestEngineDeterminismAcrossParallelism(t *testing.T) {
	for _, spec := range []Spec{
		{Drop: 0.1},
		{Corrupt: 0.1},
		{Delay: 0.15, MaxDelay: 4},
		{Duplicate: 0.15},
		{Crash: 0.3, CrashBy: 8},
		{Drop: 0.05, Corrupt: 0.05, Delay: 0.05, Duplicate: 0.05, Crash: 0.1},
	} {
		base := runGossip(t, 12, 24, 1, New(spec, 99))
		if base.Faults == nil {
			t.Fatalf("%v: Result.Faults nil with active plan", spec)
		}
		for _, par := range []int{2, 4, 8} {
			got := runGossip(t, 12, 24, par, New(spec, 99))
			if !reflect.DeepEqual(got.Outputs, base.Outputs) {
				t.Errorf("%v: outputs differ at parallelism %d", spec, par)
			}
			if !reflect.DeepEqual(got.Stats, base.Stats) {
				t.Errorf("%v: stats differ at parallelism %d:\n seq %+v\n par %+v", spec, par, base.Stats, got.Stats)
			}
			if !reflect.DeepEqual(got.Faults, base.Faults) {
				t.Errorf("%v: fault stats differ at parallelism %d:\n seq %+v\n par %+v", spec, par, base.Faults, got.Faults)
			}
		}
	}
}

// TestFaultStatsCounting checks each model actually fires and is counted,
// and that a fault-free spec through the plan path changes nothing.
func TestFaultStatsCounting(t *testing.T) {
	clean := runGossip(t, 10, 30, 1, nil)
	if clean.Faults != nil {
		t.Fatal("Result.Faults non-nil without a plan")
	}

	drop := runGossip(t, 10, 30, 1, New(Spec{Drop: 0.2}, 5))
	if drop.Faults.Drops == 0 {
		t.Error("drop model: no drops counted")
	}
	if reflect.DeepEqual(drop.Outputs, clean.Outputs) {
		t.Error("drop model: outputs unchanged at rate 0.2 (faults not reaching delivery?)")
	}

	corrupt := runGossip(t, 10, 30, 1, New(Spec{Corrupt: 0.2}, 5))
	if corrupt.Faults.Corruptions == 0 {
		t.Error("corrupt model: no corruptions counted")
	}
	if reflect.DeepEqual(corrupt.Outputs, clean.Outputs) {
		t.Error("corrupt model: outputs unchanged at rate 0.2")
	}
	// Corruption flips a bit of a private copy; bit counts are untouched.
	if corrupt.Stats.TotalBits != clean.Stats.TotalBits {
		t.Errorf("corrupt model changed TotalBits: %d vs %d", corrupt.Stats.TotalBits, clean.Stats.TotalBits)
	}

	delay := runGossip(t, 10, 30, 1, New(Spec{Delay: 0.2}, 5))
	if delay.Faults.Delays == 0 {
		t.Error("delay model: no delays counted")
	}

	// One link carries one message per round: on a ring that reuses the
	// same directed link every round, a delayed arrival collides with the
	// fresh send and is discarded.
	ringRes, err := core.RunProcs(core.Config{
		N: 8, Bandwidth: 16, Model: core.Unicast, Seed: 2,
		FaultPlan: New(Spec{Delay: 0.2}, 5),
	}, func(p *core.Proc) error {
		return p.Rounds(30, func(r int) error {
			msg := bits.New(16)
			msg.WriteUint(uint64(r), 16)
			return p.Send((p.ID()+1)%p.N(), msg)
		}, nil)
	})
	if err != nil {
		t.Fatalf("ring run: %v", err)
	}
	if ringRes.Faults.Collisions == 0 {
		t.Error("delay model on a ring produced no collisions")
	}

	dup := runGossip(t, 10, 30, 1, New(Spec{Duplicate: 0.3}, 5))
	if dup.Faults.Duplicates == 0 {
		t.Error("dup model: no duplicates counted")
	}

	plan := New(Spec{Crash: 0.5, CrashBy: 10}, 5)
	wantCrashes := 0
	for id := 0; id < 10; id++ {
		if plan.CrashRound(id) >= 0 {
			wantCrashes++
		}
	}
	if wantCrashes == 0 {
		t.Fatal("crash rate 0.5 over 9 eligible nodes crashed nobody (seed pathology?)")
	}
	crash := runGossip(t, 10, 30, 1, New(Spec{Crash: 0.5, CrashBy: 10}, 5))
	if crash.Faults.Crashes != wantCrashes {
		t.Errorf("Crashes = %d, want %d (from the plan's own schedule)", crash.Faults.Crashes, wantCrashes)
	}
}

// TestStallDetection: a node waiting on a crashed peer trips ErrStalled,
// which the fault plan arms at DefaultQuiesceLimit, instead of spinning
// to the round limit.
func TestStallDetection(t *testing.T) {
	_, err := core.RunProcs(core.Config{
		N:         4,
		Bandwidth: 8,
		Model:     core.Unicast,
		Seed:      1,
		FaultPlan: New(Spec{Crash: 1, CrashBy: 1}, 1),
	}, func(p *core.Proc) error {
		if p.ID() == 0 {
			// Waits forever for node 1's message, which never comes:
			// every non-leader crashes at round 0.
			for p.Next()[1] == nil {
			}
			return nil
		}
		msg := bits.New(8)
		msg.WriteUint(uint64(p.ID()), 8)
		return p.Send(0, msg)
	})
	if !errors.Is(err, core.ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
}

// TestModelIndependence: enabling one fault model must not shift another
// model's schedule — each sub-decision has a fixed position in the
// per-message draw stream (E17's ablation sweeps rely on this).
func TestModelIndependence(t *testing.T) {
	both := New(Spec{Drop: 0.5, Corrupt: 0.3}, 11)
	corruptOnly := New(Spec{Corrupt: 0.3}, 11)
	checked := 0
	for round := 0; round < 30; round++ {
		for src := 0; src < 6; src++ {
			for dst := 0; dst < 6; dst++ {
				if src == dst {
					continue
				}
				a := both.OnMessage(round, src, dst, 64)
				if a.Drop {
					continue // drop preempts everything downstream
				}
				b := corruptOnly.OnMessage(round, src, dst, 64)
				if a.Corrupt != b.Corrupt || a.CorruptBit != b.CorruptBit {
					t.Fatalf("(%d,%d,%d): corrupt decision shifted by the drop knob: %+v vs %+v",
						round, src, dst, a, b)
				}
				checked++
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d undropped messages checked; drop rate pathology", checked)
	}
}

// TestEmpiricalRates: thresholds actually encode the requested rates.
func TestEmpiricalRates(t *testing.T) {
	const trials = 200_000
	p := New(Spec{Drop: 0.05}, 3)
	hits := 0
	for i := 0; i < trials; i++ {
		if p.OnMessage(i, 1, 2, 32).Drop {
			hits++
		}
	}
	got := float64(hits) / trials
	if got < 0.045 || got > 0.055 {
		t.Errorf("empirical drop rate %.4f, want 0.05±0.005", got)
	}
}

func TestCrashModel(t *testing.T) {
	p := New(Spec{Crash: 1, CrashBy: 4}, 9)
	if p.CrashRound(0) != -1 {
		t.Error("node 0 (coordinator) must be crash-exempt")
	}
	for id := 1; id < 20; id++ {
		cr := p.CrashRound(id)
		if cr < 0 || cr >= 4 {
			t.Errorf("CrashRound(%d) = %d, want in [0,4)", id, cr)
		}
	}
	none := New(Spec{Drop: 0.5}, 9)
	for id := 0; id < 20; id++ {
		if none.CrashRound(id) != -1 {
			t.Errorf("CrashRound(%d) >= 0 with zero crash rate", id)
		}
	}
}

func TestSpecHelpers(t *testing.T) {
	if (Spec{}).Active() {
		t.Error("zero Spec reports Active")
	}
	if (Spec{}).Factory() != nil {
		t.Error("inactive Spec should yield a nil factory")
	}
	if got := (Spec{}).String(); got != "none" {
		t.Errorf("zero Spec String = %q", got)
	}
	s := Spec{Drop: 0.05, Crash: 0.01}
	if got := s.String(); got != "crash=0.01,drop=0.05" {
		t.Errorf("String = %q", got)
	}
	f := s.Factory()
	if f == nil {
		t.Fatal("active Spec yielded nil factory")
	}
	p, ok := f(17).(*Plan)
	if !ok || p.Spec() != s {
		t.Fatalf("factory plan = %#v", p)
	}

	for _, m := range Models {
		ms, err := ModelSpec(m, 0.5)
		if err != nil {
			t.Fatalf("ModelSpec(%q): %v", m, err)
		}
		if !ms.Active() {
			t.Errorf("ModelSpec(%q, 0.5) inactive", m)
		}
	}
	if _, err := ModelSpec("gamma-ray", 0.5); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestThresholdBounds(t *testing.T) {
	if threshold(0) != 0 || threshold(-1) != 0 {
		t.Error("rate <= 0 must never fire")
	}
	if threshold(1) != ^uint64(0) || threshold(2) != ^uint64(0) {
		t.Error("rate >= 1 must always fire")
	}
	p := New(Spec{Drop: 1}, 1)
	for i := 0; i < 100; i++ {
		if !p.OnMessage(i, 0, 1, 8).Drop {
			t.Fatal("rate-1 drop did not fire")
		}
	}
}

// TestAllocRegressionFault pins the hot path at zero allocations: the
// plan is consulted once per delivered message inside the engine's
// sequential delivery pass.
func TestAllocRegressionFault(t *testing.T) {
	p := New(Spec{Drop: 0.05, Corrupt: 0.05, Delay: 0.05, Duplicate: 0.05, Crash: 0.05}, 1)
	if allocs := testing.AllocsPerRun(1000, func() {
		p.OnMessage(3, 1, 2, 64)
	}); allocs > 0 {
		t.Errorf("OnMessage: %.0f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		p.CrashRound(5)
	}); allocs > 0 {
		t.Errorf("CrashRound: %.0f allocs/op, want 0", allocs)
	}
}

// TestParseSpec covers the scenariorun -faults syntax: every model key,
// the shape knobs and their aliases, String() round-trips, and the
// rejection of malformed elements.
func TestParseSpec(t *testing.T) {
	good := []struct {
		in   string
		want Spec
	}{
		{"", Spec{}},
		{"none", Spec{}},
		{"  none  ", Spec{}},
		{"drop=0.05", Spec{Drop: 0.05}},
		{"corrupt=1", Spec{Corrupt: 1}},
		{"delay=0.1,maxdelay=5", Spec{Delay: 0.1, MaxDelay: 5}},
		{"delay=0.1,max_delay=5", Spec{Delay: 0.1, MaxDelay: 5}},
		{"dup=0.2", Spec{Duplicate: 0.2}},
		{"crash=0.01,crashby=8", Spec{Crash: 0.01, CrashBy: 8}},
		{"crash=0.01,crash_by=8", Spec{Crash: 0.01, CrashBy: 8}},
		{" drop=0.05 , corrupt=0.01 ", Spec{Drop: 0.05, Corrupt: 0.01}},
	}
	for _, tc := range good {
		got, err := ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}

	bad := []string{
		"drop",       // no value
		"drop=",      // empty rate
		"drop=x",     // not a number
		"drop=1.5",   // rate out of range
		"drop=-0.1",  // negative rate
		"flip=0.5",   // unknown model
		"maxdelay=0", // not positive
		"maxdelay=x", // not an integer
		"crashby=0",  // not positive
		"crashby=-3", // not positive
		"drop=0.1,,", // empty element
	}
	for _, in := range bad {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", in)
		}
	}

	// String() round-trips through ParseSpec for every model.
	for _, model := range Models {
		spec, err := ModelSpec(model, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("round-trip %q: %v", spec.String(), err)
		}
		if back != spec {
			t.Errorf("round-trip %q = %+v, want %+v", spec.String(), back, spec)
		}
	}
	if _, err := ParseSpec("none"); err != nil {
		t.Fatal(err)
	}
}
