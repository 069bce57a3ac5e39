package obs

import (
	"errors"
	"maps"
	"strings"
	"testing"

	"repro/internal/core"
)

// feed folds a stream into a fresh builder, failing on any violation.
func feed(t *testing.T, evs []SpanEvent) *FleetBuilder {
	t.Helper()
	b := NewFleetBuilder()
	for i, ev := range evs {
		if err := b.Observe(ev); err != nil {
			t.Fatalf("event %d (%s): %v", i, ev.Event, err)
		}
	}
	return b
}

// TestFleetBuilderLifecycle folds a two-cell run — one clean cell, one
// that expires once and then lands — and checks every derived leg.
func TestFleetBuilderLifecycle(t *testing.T) {
	b := feed(t, []SpanEvent{
		{TMs: 1000, Event: FleetRunEnqueued, Cells: 2},
		{TMs: 1010, Event: FleetGranted, Key: "a", Worker: "w0", Attempt: 1},
		{TMs: 1015, Event: FleetGranted, Key: "b", Worker: "w1", Attempt: 1},
		{TMs: 1100, Event: FleetResultSubmitted, Key: "a", Worker: "w0", Attempt: 1, ExecMs: 80},
		{TMs: 1100, Event: FleetCompleted, Key: "a", Worker: "w0", Outcome: "ok"},
		{TMs: 2015, Event: FleetExpiredRequeued, Key: "b", Attempt: 1},
		{TMs: 2515, Event: FleetGranted, Key: "b", Worker: "w0", Attempt: 2},
		{TMs: 2600, Event: FleetResultSubmitted, Key: "b", Worker: "w0", Attempt: 2, ExecMs: 70},
		{TMs: 2600, Event: FleetCompleted, Key: "b", Worker: "w0", Outcome: "detected"},
	})
	ft := b.Fleet()
	if ft.Cells != 2 || ft.Grants != 3 || ft.Resumes != 0 {
		t.Fatalf("trace counts: %+v", ft)
	}
	wantEvents := map[string]int{FleetRunEnqueued: 1, FleetGranted: 3, FleetResultSubmitted: 2, FleetCompleted: 2, FleetExpiredRequeued: 1}
	if !maps.Equal(ft.Events, wantEvents) {
		t.Fatalf("event tally %v, want %v", ft.Events, wantEvents)
	}
	if ft.StartMs != 1000 || ft.EndMs != 2600 {
		t.Fatalf("window [%d,%d], want [1000,2600]", ft.StartMs, ft.EndMs)
	}

	a := b.Span("a")
	if a.Outcome != "ok" || a.E2EMs() != 100 || len(a.Attempts) != 1 {
		t.Fatalf("span a: %+v", a)
	}
	at := a.Attempts[0]
	if at.QueuedMs != 10 || at.ExecMs != 80 || at.SubmitMs != 10 || at.End != EndCompleted {
		t.Fatalf("a attempt: %+v", at)
	}

	sp := b.Span("b")
	if sp.Outcome != "detected" || len(sp.Attempts) != 2 {
		t.Fatalf("span b: %+v", sp)
	}
	if sp.Attempts[0].End != EndExpiredRequeued || sp.Attempts[0].EndMs != 2015 {
		t.Fatalf("b attempt 1: %+v", sp.Attempts[0])
	}
	// The second queued leg is measured from the requeue, not the enqueue.
	if sp.Attempts[1].QueuedMs != 500 || sp.Attempts[1].Attempt != 2 {
		t.Fatalf("b attempt 2: %+v", sp.Attempts[1])
	}

	if err := ReconcileFleet(ft, []CellOutcome{{"a", "ok"}, {"b", "detected"}}); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
}

// TestFleetBuilderResume covers the two restart windows: an open attempt
// is abandoned by run_resumed, and a terminal cell may be re-granted
// only when a resume landed after its terminal event (the crash between
// the completion span and the durable cell record).
func TestFleetBuilderResume(t *testing.T) {
	b := feed(t, []SpanEvent{
		{TMs: 0, Event: FleetRunEnqueued, Cells: 2},
		{TMs: 10, Event: FleetGranted, Key: "a", Worker: "w0"},
		{TMs: 50, Event: FleetCompleted, Key: "a", Outcome: "ok"},
		{TMs: 60, Event: FleetGranted, Key: "b", Worker: "w0"},
		// SIGKILL: the completion span for "a" hit the ledger but its
		// RecCell did not; "b" was mid-lease.
		{TMs: 500, Event: FleetRunResumed, Cells: 2},
	})
	if sp := b.Span("b"); sp.open() != nil || sp.Attempts[0].End != EndAbandoned {
		t.Fatalf("b after resume: %+v", sp)
	}
	// The voided lease ends at the last record before the resume (its
	// own grant), not at the resume: the downtime is no worker's.
	if end := b.Span("b").Attempts[0].EndMs; end != 60 {
		t.Fatalf("b's abandoned attempt ends at %d, want 60 (the last record before the resume)", end)
	}
	// "a" may be re-granted (terminal before the resume)...
	if err := b.Observe(SpanEvent{TMs: 510, Event: FleetGranted, Key: "a", Worker: "w1"}); err != nil {
		t.Fatal(err)
	}
	if sp := b.Span("a"); sp.Outcome != "" || sp.DoneMs != 0 {
		t.Fatalf("a not reopened: %+v", sp)
	}
	for _, ev := range []SpanEvent{
		{TMs: 520, Event: FleetCompleted, Key: "a", Outcome: "ok"},
		{TMs: 530, Event: FleetGranted, Key: "b", Worker: "w1"},
		{TMs: 540, Event: FleetCompleted, Key: "b", Outcome: "ok"},
	} {
		if err := b.Observe(ev); err != nil {
			t.Fatal(err)
		}
	}
	// ...but a second grant of "a" now, with no intervening resume, is a
	// violation: its terminal generation caught up.
	if err := b.Observe(SpanEvent{TMs: 550, Event: FleetGranted, Key: "a", Worker: "w1"}); err == nil {
		t.Fatal("grant after same-generation terminal accepted")
	}

	ft := b.Fleet()
	if ft.Resumes != 1 {
		t.Fatalf("resumes = %d", ft.Resumes)
	}
	if err := ReconcileFleet(ft, []CellOutcome{{"a", "ok"}, {"b", "ok"}}); err != nil {
		t.Fatalf("reconcile resumed run: %v", err)
	}
	s := Summarize(ft)
	if s.Abandoned != 1 || s.Resumes != 1 || s.Attempts != 4 {
		t.Fatalf("summary: %+v", s)
	}
}

// TestFleetBuilderViolations pins the state machine's refusals.
func TestFleetBuilderViolations(t *testing.T) {
	run := SpanEvent{TMs: 0, Event: FleetRunEnqueued, Cells: 1}
	grant := SpanEvent{TMs: 1, Event: FleetGranted, Key: "a", Worker: "w0"}
	for _, tc := range []struct {
		name string
		evs  []SpanEvent
	}{
		{"duplicate run_enqueued", []SpanEvent{run, run}},
		{"cell-count conflict", []SpanEvent{run, {TMs: 5, Event: FleetRunResumed, Cells: 2}}},
		{"grant while open", []SpanEvent{run, grant, {TMs: 2, Event: FleetGranted, Key: "a"}}},
		{"grant after terminal", []SpanEvent{run, grant,
			{TMs: 2, Event: FleetCompleted, Key: "a", Outcome: "ok"},
			{TMs: 3, Event: FleetGranted, Key: "a"}}},
		{"requeue without grant", []SpanEvent{run, {TMs: 1, Event: FleetExpiredRequeued, Key: "a"}}},
		{"requeue without open attempt", []SpanEvent{run, grant,
			{TMs: 2, Event: FleetCompleted, Key: "a", Outcome: "ok"},
			{TMs: 3, Event: FleetExpiredRequeued, Key: "a"}}},
		{"quarantine without outcome", []SpanEvent{run, grant,
			{TMs: 2, Event: FleetExpiredQuarantined, Key: "a"}}},
		{"completion without grant", []SpanEvent{run, {TMs: 1, Event: FleetCompleted, Key: "a", Outcome: "ok"}}},
		{"completion without outcome", []SpanEvent{run, grant, {TMs: 2, Event: FleetCompleted, Key: "a"}}},
		{"duplicate terminal", []SpanEvent{run, grant,
			{TMs: 2, Event: FleetCompleted, Key: "a", Outcome: "ok"},
			{TMs: 3, Event: FleetCompleted, Key: "a", Outcome: "ok"}}},
		{"unknown event", []SpanEvent{run, {TMs: 1, Event: "lease_vibed", Key: "a"}}},
	} {
		b := NewFleetBuilder()
		var err error
		accepted := 0
		for _, ev := range tc.evs {
			if err = b.Observe(ev); err != nil {
				break
			}
			accepted++
		}
		if err == nil {
			t.Errorf("%s: stream accepted", tc.name)
		}
		tallied := 0
		for _, n := range b.Fleet().Events {
			tallied += n
		}
		if tallied != accepted {
			t.Errorf("%s: %d events tallied, %d accepted", tc.name, tallied, accepted)
		}
	}

	// A stale result for a cell with no open attempt is informational,
	// not a violation (the queue accepts racing results).
	b := feed(t, []SpanEvent{run, grant, {TMs: 2, Event: FleetExpiredRequeued, Key: "a"}})
	if err := b.Observe(SpanEvent{TMs: 3, Event: FleetResultSubmitted, Key: "a", Worker: "w0", ExecMs: 9}); err != nil {
		t.Fatalf("stale result_submitted rejected: %v", err)
	}
	if got := b.Span("a").Attempts[0].ExecMs; got != 0 {
		t.Fatalf("stale result stamped a closed attempt: exec=%d", got)
	}
}

// TestReconcileFleetNegatives drives every identity to a failure.
func TestReconcileFleetNegatives(t *testing.T) {
	mk := func() *FleetBuilder {
		return feed(t, []SpanEvent{
			{TMs: 0, Event: FleetRunEnqueued, Cells: 1},
			{TMs: 1, Event: FleetGranted, Key: "a", Worker: "w0"},
			{TMs: 2, Event: FleetCompleted, Key: "a", Outcome: "ok"},
		})
	}
	ok := []CellOutcome{{"a", "ok"}}
	if err := ReconcileFleet(mk().Fleet(), ok); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for _, tc := range []struct {
		name  string
		ft    func() *FleetTrace
		cells []CellOutcome
		want  string
	}{
		{"declared count", mk().Fleet, []CellOutcome{{"a", "ok"}, {"b", "ok"}}, "declares"},
		{"missing span", func() *FleetTrace {
			ft := mk().Fleet()
			ft.Cells = 1
			delete(ft.Spans, "a")
			ft.Spans["zz"] = &CellSpan{Key: "zz", Outcome: "ok", Attempts: []AttemptSpan{{Attempt: 1, End: EndCompleted}}}
			return ft
		}, ok, "has no span"},
		{"outcome mismatch", mk().Fleet, []CellOutcome{{"a", "diverged"}}, "outcome"},
		{"no attempts", func() *FleetTrace {
			ft := mk().Fleet()
			ft.Spans["a"].Attempts = nil
			ft.Grants = 0
			return ft
		}, ok, "no attempts"},
		{"open attempt", func() *FleetTrace {
			ft := mk().Fleet()
			ft.Spans["a"].Attempts[0].End = ""
			return ft
		}, ok, "never closed"},
		{"grant total", func() *FleetTrace {
			ft := mk().Fleet()
			ft.Grants++
			return ft
		}, ok, "lease grants"},
	} {
		err := ReconcileFleet(tc.ft(), tc.cells)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestSummarizeAndCriticalPath checks the span-derived throughput
// accounting and the completion-instant ranking on a hand-built run.
func TestSummarizeAndCriticalPath(t *testing.T) {
	b := feed(t, []SpanEvent{
		{TMs: 0, Event: FleetRunEnqueued, Cells: 3},
		{TMs: 100, Event: FleetGranted, Key: "fast", Worker: "w0"},
		{TMs: 100, Event: FleetGranted, Key: "slow", Worker: "w1"},
		{TMs: 300, Event: FleetResultSubmitted, Key: "fast", Worker: "w0", ExecMs: 150},
		{TMs: 300, Event: FleetCompleted, Key: "fast", Outcome: "ok"},
		{TMs: 400, Event: FleetGranted, Key: "retry", Worker: "w0"},
		{TMs: 900, Event: FleetInfraRequeued, Key: "retry"},
		{TMs: 1400, Event: FleetGranted, Key: "retry", Worker: "w0"},
		{TMs: 1500, Event: FleetCompleted, Key: "retry", Outcome: "ok"},
		{TMs: 2000, Event: FleetCompleted, Key: "slow", Outcome: "infra"},
	})
	ft := b.Fleet()
	s := Summarize(ft)
	if s.Cells != 3 || s.Attempts != 4 || s.Requeues != 1 || s.Quarantines != 0 {
		t.Fatalf("summary counts: %+v", s)
	}
	if s.Outcomes["ok"] != 2 || s.Outcomes["infra"] != 1 {
		t.Fatalf("outcomes: %+v", s.Outcomes)
	}
	if s.WallMs != 2000 || s.CellsPerSec != 1.5 {
		t.Fatalf("throughput: wall=%d cells/s=%v", s.WallMs, s.CellsPerSec)
	}
	if s.Exec.Count != 1 || s.Exec.MaxMs != 150 {
		t.Fatalf("exec stats: %+v", s.Exec)
	}
	if s.EndToEnd.MinMs != 300 || s.EndToEnd.MaxMs != 2000 || s.EndToEnd.P50Ms != 1500 {
		t.Fatalf("e2e stats: %+v", s.EndToEnd)
	}
	if len(s.Workers) != 2 || s.Workers[0].Worker != "w0" || s.Workers[1].Worker != "w1" {
		t.Fatalf("workers: %+v", s.Workers)
	}
	// w0 held leases for 200 + 500 + 100 = 800ms of the 2000ms wall.
	if w0 := s.Workers[0]; w0.Attempts != 3 || w0.BusyMs != 800 || w0.Utilization != 0.4 {
		t.Fatalf("w0: %+v", w0)
	}

	path := CriticalPath(ft, 2)
	if len(path) != 2 || path[0].Key != "slow" || path[1].Key != "retry" {
		keys := make([]string, len(path))
		for i, sp := range path {
			keys[i] = sp.Key
		}
		t.Fatalf("critical path: %v, want [slow retry]", keys)
	}
	if all := CriticalPath(ft, 0); len(all) != 3 {
		t.Fatalf("unbounded critical path has %d cells", len(all))
	}
}

// TestHottestDiffEdgeCases pins the typed refusals on degenerate
// traces: empty, traffic-free, single-round, and mismatched lengths.
func TestHottestDiffEdgeCases(t *testing.T) {
	empty := &Trace{}
	if _, err := Hottest(empty, 3); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("Hottest(empty) = %v, want ErrEmptyTrace", err)
	}
	quiet := &Trace{Rounds: []core.RoundTrace{{Round: 0, Span: 4}}}
	if _, err := Hottest(quiet, 3); !errors.Is(err, ErrNoTraffic) {
		t.Errorf("Hottest(no traffic) = %v, want ErrNoTraffic", err)
	}
	single := &Trace{Rounds: []core.RoundTrace{{Round: 0, Sends: 2, SentBits: 48}}}
	if _, err := Hottest(single, 0); err == nil {
		t.Error("Hottest(k=0) accepted")
	}
	hot, err := Hottest(single, 5)
	if err != nil || len(hot) != 1 || hot[0].SentBits != 48 {
		t.Errorf("Hottest(single round) = %+v, %v", hot, err)
	}

	if _, err := Diff(empty, single); !errors.Is(err, ErrEmptyTrace) || !strings.Contains(err.Error(), "first") {
		t.Errorf("Diff(empty, x) = %v", err)
	}
	if _, err := Diff(single, empty); !errors.Is(err, ErrEmptyTrace) || !strings.Contains(err.Error(), "second") {
		t.Errorf("Diff(x, empty) = %v", err)
	}
	// Mismatched round/phase counts are the diff's output, not an error.
	long := &Trace{Rounds: []core.RoundTrace{
		{Round: 0, Sends: 1, SentBits: 8, Marks: []core.Mark{{Node: 0, Name: "p0"}}},
		{Round: 1, Sends: 1, SentBits: 8, Marks: []core.Mark{{Node: 0, Name: "p1"}}},
	}}
	diffs, err := Diff(single, long)
	if err != nil || len(diffs) != 2 {
		t.Fatalf("Diff(mismatched) = %+v, %v", diffs, err)
	}
	if diffs[1].A != nil || diffs[1].B == nil {
		t.Errorf("unpaired phase: %+v", diffs[1])
	}
}
