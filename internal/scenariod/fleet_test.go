package scenariod

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// foldLedgerSpans rebuilds the fleet-trace/v1 span stream of one run
// ledger, along with the report outcomes in matrix-expansion order —
// exactly what `cliquetrace fleet` does.
func foldLedgerSpans(t *testing.T, path string) (*obs.FleetTrace, []obs.CellOutcome) {
	t.Helper()
	_, recs, err := scenario.LoadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	var spec RunSpec
	results := map[string]scenario.CellResult{}
	b := obs.NewFleetBuilder()
	for _, rec := range recs {
		switch rec.T {
		case scenario.RecSpec:
			if err := json.Unmarshal(rec.Spec, &spec); err != nil {
				t.Fatalf("spec record: %v", err)
			}
		case scenario.RecCell:
			results[rec.Key] = *rec.Cell
		case scenario.RecSpan:
			if err := b.Observe(obs.SpanEvent{
				TMs: rec.TMs, Event: rec.Event, Key: rec.Key, Worker: rec.Worker,
				Attempt: rec.Attempt, Outcome: rec.Outcome, ExecMs: rec.ExecMs, Cells: rec.Cells,
			}); err != nil {
				t.Fatalf("span stream violation: %v", err)
			}
		}
	}
	m, err := spec.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	var outcomes []obs.CellOutcome
	for _, c := range m.Expand() {
		cr, ok := results[c.Key()]
		if !ok {
			t.Fatalf("ledger incomplete: no result for %s", c.Key())
		}
		outcomes = append(outcomes, obs.CellOutcome{Key: c.Key(), Outcome: cr.Outcome})
	}
	return b.Fleet(), outcomes
}

// TestFleetSpansReconcileEndToEnd runs a full matrix through the
// service and proves the durable span stream is a faithful second
// account: rebuilt from the ledger alone, it reconciles exactly against
// the canonical report, and the span-derived latency histograms land on
// a real /metrics scrape.
func TestFleetSpansReconcileEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{LedgerDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	client := NewClient(ts.URL)

	sub, err := client.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		w := &Worker{Client: client, Name: "w-fleet", PollEvery: 5 * time.Millisecond}
		done <- w.Run(ctx)
	}()
	if err := client.Stream(sub.RunID, func(StreamEvent) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := client.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	ft, outcomes := foldLedgerSpans(t, filepath.Join(dir, "run-"+sub.RunID+".jsonl"))
	if err := obs.ReconcileFleet(ft, outcomes); err != nil {
		t.Fatalf("ledger-rebuilt spans: %v", err)
	}
	sum := obs.Summarize(ft)
	if sum.Cells != 2 || sum.Attempts < 2 || len(sum.Workers) != 1 || sum.Workers[0].Worker != "w-fleet" {
		t.Fatalf("summary: %+v", sum)
	}
	if sum.Exec.Count == 0 {
		t.Fatalf("no executing legs recorded: %+v", sum.Exec)
	}

	// The in-memory builder (the metrics source) agrees with the ledger.
	r := s.getRun(sub.RunID)
	r.fleetMu.Lock()
	live := r.fleet.Fleet()
	liveErr := obs.ReconcileFleet(live, outcomes)
	r.fleetMu.Unlock()
	if liveErr != nil {
		t.Fatalf("live spans: %v", liveErr)
	}

	// Real scrape: the span-derived series are on /metrics. The
	// execute histogram only sees attempts whose measured execution
	// was >= 1ms — on a fast machine that can be fewer than the cell
	// count, so the expectation comes from the spans themselves.
	execLegs := 0
	for _, cs := range ft.Spans {
		for _, a := range cs.Attempts {
			if a.ExecMs > 0 {
				execLegs++
			}
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"scenariod_cell_queue_wait_ms_count 2",
		"scenariod_cell_e2e_ms_count 2",
		fmt.Sprintf("scenariod_cell_execute_ms_count %d", execLegs),
		`scenariod_worker_busy_ms_total{worker="w-fleet"}`,
		`scenariod_worker_utilization{worker="w-fleet"}`,
		`scenariod_run_cells_per_second{run="` + sub.RunID + `"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestFleetSpansSurviveCrash is the SIGKILL-equivalent chaos test for
// the span stream: a server dies mid-run (abandoned, never closed) with
// one cell completed and one mid-lease; a second server on the same
// ledger directory resumes and finishes. The rebuilt span stream must
// reconcile exactly against the final report — the crashed lease shows
// up as an abandoned attempt, not a hole in the accounting.
func TestFleetSpansSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()
	clock := NewFakeClock(time.Unix(9000, 0))

	s1, err := New(Config{LedgerDir: dir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	client1 := NewClient(ts1.URL)
	sub, err := client1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// One cell completes cleanly before the crash.
	lease, err := client1.Lease("w-lucky")
	if err != nil || lease.Status != LeaseJob {
		t.Fatalf("lease: %v %+v", err, lease)
	}
	g := lease.Job
	cell, err := scenario.CellFromNames(g.Family, g.N, g.Engine, g.Protocol, g.Seed)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(40 * time.Millisecond)
	res := scenario.RunCell(cell, scenario.CellOptions{}, nil)
	if _, err := client1.Result(ResultRequest{
		RunID: g.RunID, Key: g.Key, LeaseID: g.LeaseID,
		Worker: "w-lucky", Attempt: g.Attempt, ExecMs: 40, Cell: res,
	}); err != nil {
		t.Fatal(err)
	}
	// The second cell is leased when the server dies: no Close, no
	// Sync — the SIGKILL analogue (appends are unbuffered writes, so
	// the ledger holds every span event up to the kill instant).
	clock.Advance(10 * time.Millisecond)
	if lease, err = client1.Lease("w-doomed"); err != nil || lease.Status != LeaseJob {
		t.Fatalf("doomed lease: %v %+v", err, lease)
	}
	ts1.Close()

	clock.Advance(5 * time.Second)
	s2, err := New(Config{LedgerDir: dir, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()
	client2 := NewClient(ts2.URL)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		w := &Worker{Client: client2, Name: "w-rescue", PollEvery: 5 * time.Millisecond}
		done <- w.Run(ctx)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := client2.Report(sub.RunID); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never completed after crash recovery")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := client2.Drain(); err != nil {
		t.Fatal(err)
	}
	<-done

	ft, outcomes := foldLedgerSpans(t, filepath.Join(dir, "run-"+sub.RunID+".jsonl"))
	if err := obs.ReconcileFleet(ft, outcomes); err != nil {
		t.Fatalf("reconcile after crash: %v", err)
	}
	if ft.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", ft.Resumes)
	}
	sum := obs.Summarize(ft)
	// Three attempts total: the pre-crash completion, the doomed lease
	// (abandoned by run_resumed), and the rescue worker's.
	if sum.Abandoned != 1 || sum.Attempts != 3 || sum.Cells != 2 {
		t.Fatalf("summary after crash: %+v", sum)
	}
	var doomed *obs.AttemptSpan
	for _, key := range ft.Keys {
		for i, a := range ft.Spans[key].Attempts {
			if a.Worker == "w-doomed" {
				doomed = &ft.Spans[key].Attempts[i]
			}
		}
	}
	if doomed == nil || doomed.End != obs.EndAbandoned {
		t.Fatalf("doomed attempt: %+v", doomed)
	}

	// The resumed server's live builder reconciles too.
	r := s2.getRun(sub.RunID)
	r.fleetMu.Lock()
	liveErr := obs.ReconcileFleet(r.fleet.Fleet(), outcomes)
	r.fleetMu.Unlock()
	if liveErr != nil {
		t.Fatalf("resumed live spans: %v", liveErr)
	}
}
