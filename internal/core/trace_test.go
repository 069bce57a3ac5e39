package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bits"
)

// Tests for the round-level tracer (DESIGN.md §14): traced and untraced
// runs are bit-identical, trace sums reconcile exactly with Stats and
// FaultStats, per-worker mark merging is deterministic at every
// parallelism, and a nil Sink costs nothing per round.

// testSink retains a deep copy of the full trace stream.
type testSink struct {
	meta   RunMeta
	rounds []RoundTrace
	footer *RunFooter
}

func (s *testSink) TraceStart(m RunMeta) { s.meta = m }

func (s *testSink) TraceRound(r *RoundTrace) {
	cp := *r
	cp.Marks = append([]Mark(nil), r.Marks...)
	s.rounds = append(s.rounds, cp)
}

func (s *testSink) TraceEnd(f *RunFooter) {
	cp := *f
	if f.Faults != nil {
		ff := *f.Faults
		cp.Faults = &ff
	}
	s.footer = &cp
}

// sumTrace folds a record stream into the aggregates the reconciliation
// identities compare against Stats.
type traceSums struct {
	sentBits, cutBits, deliveredBits int64
	rounds, steps, maxLink           int
	sends, delivered                 int
	faults                           FaultStats
}

func sumTrace(rounds []RoundTrace) traceSums {
	s := traceSums{steps: len(rounds)}
	for _, r := range rounds {
		s.sentBits += r.SentBits
		s.cutBits += r.CutBits
		s.deliveredBits += r.DeliveredBits
		s.sends += r.Sends
		s.delivered += r.Delivered
		if r.Sends > 0 || r.Delivered > 0 {
			s.rounds++
		}
		if r.MaxLinkBits > s.maxLink {
			s.maxLink = r.MaxLinkBits
		}
		s.faults.Drops += r.Faults.Drops
		s.faults.Corruptions += r.Faults.Corruptions
		s.faults.Delays += r.Faults.Delays
		s.faults.Duplicates += r.Faults.Duplicates
		s.faults.Collisions += r.Faults.Collisions
		s.faults.Crashes += r.Faults.Crashes
	}
	return s
}

// reconcileTrace asserts every reconciliation identity from the
// RoundTrace doc comment against the run's authoritative Result.
func reconcileTrace(t *testing.T, s *testSink, res *Result, label string) {
	t.Helper()
	sums := sumTrace(s.rounds)
	if sums.sentBits != res.Stats.TotalBits {
		t.Errorf("%s: sum(SentBits) = %d, Stats.TotalBits = %d", label, sums.sentBits, res.Stats.TotalBits)
	}
	if sums.rounds != res.Stats.Rounds {
		t.Errorf("%s: count(Sends>0||Delivered>0) = %d, Stats.Rounds = %d", label, sums.rounds, res.Stats.Rounds)
	}
	if sums.steps != res.Stats.Steps {
		t.Errorf("%s: count(records) = %d, Stats.Steps = %d", label, sums.steps, res.Stats.Steps)
	}
	if sums.maxLink != res.Stats.MaxLinkBits {
		t.Errorf("%s: max(MaxLinkBits) = %d, Stats.MaxLinkBits = %d", label, sums.maxLink, res.Stats.MaxLinkBits)
	}
	if sums.cutBits != res.Stats.CutBits {
		t.Errorf("%s: sum(CutBits) = %d, Stats.CutBits = %d", label, sums.cutBits, res.Stats.CutBits)
	}
	switch {
	case res.Faults == nil:
		if sums.faults != (FaultStats{}) {
			t.Errorf("%s: fault deltas %+v on a fault-free run", label, sums.faults)
		}
	case sums.faults != *res.Faults:
		t.Errorf("%s: sum(fault deltas) = %+v, Result.Faults = %+v", label, sums.faults, *res.Faults)
	}
	if s.footer == nil {
		t.Fatalf("%s: no footer", label)
	}
	if !reflect.DeepEqual(s.footer.Stats, res.Stats) {
		t.Errorf("%s: footer Stats %+v != Result %+v", label, s.footer.Stats, res.Stats)
	}
	if !reflect.DeepEqual(s.footer.Faults, res.Faults) {
		t.Errorf("%s: footer Faults %+v != Result %+v", label, s.footer.Faults, res.Faults)
	}
}

// scrubRounds drops the one documented nondeterministic field (WallNs)
// so record streams from different worker widths can be compared with
// DeepEqual.
func scrubRounds(rounds []RoundTrace) []RoundTrace {
	out := make([]RoundTrace, len(rounds))
	for i, r := range rounds {
		r.WallNs = 0
		out[i] = r
	}
	return out
}

// TestTracedMatchesUntracedExact is the tentpole invariant: attaching a
// Sink changes nothing about the run — Outputs and Stats stay
// bit-identical to the untraced sequential oracle at every parallelism —
// and the deterministic trace fields are themselves identical across
// worker widths, while every sum reconciles with Stats.
func TestTracedMatchesUntracedExact(t *testing.T) {
	const n = 48
	run := func(par int, sink Sink) *Result {
		cfg := Config{N: n, Bandwidth: 24, Model: Unicast, Seed: 42, Parallelism: par, Sink: sink}
		res, err := RunProcs(cfg, gossipEquivBody(true))
		if err != nil {
			t.Fatalf("par=%d traced=%v: %v", par, sink != nil, err)
		}
		return res
	}
	oracle := run(1, nil)
	var oracleTrace *testSink
	for _, par := range []int{1, 0, 2, 8, 64} {
		s := &testSink{}
		res := run(par, s)
		requireIdentical(t, oracle, res, fmt.Sprintf("traced gossip p=%d", par))
		reconcileTrace(t, s, res, fmt.Sprintf("gossip p=%d", par))
		if s.meta.N != n || s.meta.Seed != 42 || s.meta.Faulty {
			t.Errorf("p=%d: bad meta %+v", par, s.meta)
		}
		if oracleTrace == nil {
			oracleTrace = s
			continue
		}
		if !reflect.DeepEqual(scrubRounds(oracleTrace.rounds), scrubRounds(s.rounds)) {
			t.Errorf("p=%d: deterministic trace fields differ from sequential trace", par)
		}
	}
}

// TestTraceMergeOrderParallel pins satellite 1: a Sink combined with
// Parallelism>1 is always valid — validate never rejects it — because
// marks stamped by concurrently-stepped nodes merge in ascending node
// id (stamp order within a node), making the record stream identical at
// every worker width.
func TestTraceMergeOrderParallel(t *testing.T) {
	const n = 16
	// Each node stamps two marks in every round it is stepped, the
	// round it returns in too.
	body := func(p *Proc) error {
		annotate := func() {
			p.Annotatef("enter:%d", p.ID())
			p.Annotate("work")
		}
		var m bits.Buffer
		err := p.Rounds(3, func(r int) error {
			annotate()
			m.Reset()
			m.WriteUint(uint64(p.ID()), 8)
			return p.Send((p.ID()+1)%n, &m)
		}, nil)
		if err != nil {
			return err
		}
		annotate()
		p.SetOutput(p.ID())
		return nil
	}
	run := func(par int) *testSink {
		s := &testSink{}
		cfg := Config{N: n, Bandwidth: 8, Model: Unicast, Seed: 3, Parallelism: par, Sink: s}
		if err := cfg.validate(); err != nil {
			t.Fatalf("validate rejected Sink at Parallelism=%d: %v", par, err)
		}
		if _, err := RunProcs(cfg, body); err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		return s
	}
	oracle := run(1)
	// Every node stamps two marks per round it is stepped; the merged
	// stream must be ascending by node, stamp order within a node.
	for ri, r := range oracle.rounds {
		if len(r.Marks) != 2*r.Active {
			t.Fatalf("record %d: %d marks for %d active nodes, want %d", ri, len(r.Marks), r.Active, 2*r.Active)
		}
		for j, m := range r.Marks {
			wantNode, wantName := j/2, "work"
			if j%2 == 0 {
				wantName = fmt.Sprintf("enter:%d", j/2)
			}
			if m.Node != wantNode || m.Name != wantName || m.Round != r.Round {
				t.Fatalf("record %d mark %d = %+v, want node %d %q round %d", ri, j, m, wantNode, wantName, r.Round)
			}
		}
	}
	for _, par := range []int{2, 8, 64} {
		got := run(par)
		if !reflect.DeepEqual(scrubRounds(oracle.rounds), scrubRounds(got.rounds)) {
			t.Errorf("p=%d: mark merge order differs from sequential trace", par)
		}
	}
}

// mixedFaultPlan exercises all intervention kinds the reconciliation
// must account for: delayed and duplicated deliveries (some landing in
// occupied slots → collisions), drops, and a crash.
type mixedFaultPlan struct{}

func (mixedFaultPlan) OnMessage(round, src, dst, nbits int) FaultAction {
	switch {
	case round == 0 && src%3 == 0:
		return FaultAction{Delay: 2}
	case round == 1 && src%4 == 1:
		return FaultAction{Duplicate: true, DupDelay: 1}
	case round == 2 && src%5 == 2:
		return FaultAction{Drop: true}
	case round == 3 && src == dst+1:
		return FaultAction{Corrupt: true, CorruptBit: round + src}
	}
	return FaultAction{}
}

func (mixedFaultPlan) CrashRound(id int) int {
	if id == 5 {
		return 3
	}
	return -1
}

// TestTraceFaultStatsReconcile pins satellite 3 (extending the PR 8
// delay-fault Rounds pin): under a delay/dup/drop/corrupt/crash plan,
// the per-round fault deltas sum field-by-field to Result.Faults, the
// delivered-bits stream is bit-identical across worker widths, and the
// traced run still matches the untraced one exactly.
func TestTraceFaultStatsReconcile(t *testing.T) {
	const n = 24
	run := func(par int, sink Sink) *Result {
		cfg := Config{
			N: n, Bandwidth: 24, Model: Unicast, Seed: 91,
			Parallelism: par, FaultPlan: mixedFaultPlan{}, Sink: sink,
		}
		res, err := RunProcs(cfg, gossipEquivBody(false))
		if err != nil {
			t.Fatalf("par=%d traced=%v: %v", par, sink != nil, err)
		}
		return res
	}
	oracle := run(1, nil)
	if oracle.Faults == nil {
		t.Fatal("fault plan produced no FaultStats")
	}
	f := *oracle.Faults
	if f.Delays == 0 || f.Duplicates == 0 || f.Drops == 0 || f.Crashes != 1 {
		t.Fatalf("plan not exercised: %+v (want delays, dups, drops and 1 crash)", f)
	}
	var oracleTrace *testSink
	for _, par := range []int{1, 4} {
		s := &testSink{}
		res := run(par, s)
		requireIdentical(t, oracle, res, fmt.Sprintf("faulty traced p=%d", par))
		if *res.Faults != f {
			t.Errorf("p=%d: Faults %+v != untraced %+v", par, *res.Faults, f)
		}
		reconcileTrace(t, s, res, fmt.Sprintf("faulty p=%d", par))
		if !s.meta.Faulty {
			t.Errorf("p=%d: meta.Faulty = false under a fault plan", par)
		}
		if oracleTrace == nil {
			oracleTrace = s
			continue
		}
		if !reflect.DeepEqual(scrubRounds(oracleTrace.rounds), scrubRounds(s.rounds)) {
			t.Errorf("p=%d: faulty trace differs from sequential trace", par)
		}
	}
	// The delayed/duplicated bits that never landed are visible as the
	// sent-vs-delivered gap plus the footer's in-flight count.
	sums := sumTrace(oracleTrace.rounds)
	if sums.deliveredBits > sums.sentBits*(n-1) {
		t.Errorf("delivered bits %d exceed every possible fan-out of sent bits %d", sums.deliveredBits, sums.sentBits)
	}
	if oracleTrace.footer.Pending < 0 {
		t.Errorf("footer.Pending = %d", oracleTrace.footer.Pending)
	}
}

// TestAllocRegressionTrace is the CI alloc guard for the nil-Sink path
// (satellite 5): with tracing disabled the instrumented engine still
// allocates ~0 per round — the tracing branch costs one predicted
// compare, never an allocation. (The ≤1%-wall-time companion is
// BenchmarkTraceOverhead in internal/obs.)
func TestAllocRegressionTrace(t *testing.T) {
	const n, fanout = 32, 4
	run := func(rounds int) func() {
		return func() {
			cfg := Config{N: n, Bandwidth: 32, Model: Unicast, Seed: 7, Parallelism: 1, Sink: nil}
			if _, err := RunProcs(cfg, gossipBody(rounds, fanout)); err != nil {
				t.Fatal(err)
			}
		}
	}
	short := testing.AllocsPerRun(5, run(10))
	long := testing.AllocsPerRun(5, run(50))
	perRound := (long - short) / 40
	t.Logf("nil-sink allocs: 10 rounds %.0f, 50 rounds %.0f (%.2f/extra round)", short, long, perRound)
	if perRound > 8 {
		t.Errorf("nil-Sink engine allocates %.2f/round, want ~0 (trace instrumentation leaked onto the hot path)", perRound)
	}
}

// TestTraceAnnotateUntracedFree pins the Annotate contract: on an
// untraced run the markers are free — no state accumulates and no
// allocation happens per call.
func TestTraceAnnotateUntracedFree(t *testing.T) {
	cfg := Config{N: 4, Bandwidth: 8, Model: Unicast, Seed: 5, Parallelism: 1}
	_, err := RunProcs(cfg, func(p *Proc) error {
		annotate := func(int) error {
			p.Annotate("phase")
			if p.Traced() {
				return fmt.Errorf("Traced() = true without a sink")
			}
			return nil
		}
		if err := p.Rounds(2, annotate, nil); err != nil {
			return err
		}
		return annotate(2)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestModelText checks the name encoding trace headers carry: every
// model round-trips through its name, and an unknown name is refused.
func TestModelText(t *testing.T) {
	for _, m := range []Model{Unicast, Broadcast, Congest} {
		text, err := m.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var got Model
		if err := got.UnmarshalText(text); err != nil || got != m {
			t.Errorf("%v: decoded %v, %v", m, got, err)
		}
	}
	var m Model
	if err := m.UnmarshalText([]byte("CLIQUE-MULTICAST")); err == nil {
		t.Errorf("unknown model name decoded as %v", m)
	}
}
