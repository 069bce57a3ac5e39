package scenariod

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/scenario"
)

// tinySpec is a 2-cell matrix cheap enough for end-to-end tests.
func tinySpec() RunSpec {
	return RunSpec{Quick: true, BaseSeed: 7, Families: "gnp", Protocols: "triangle,connectivity", Engines: "par4", Sizes: []int{10}}
}

// directReport runs the same spec through RunMatrixOpts — the
// single-process path the service must agree with byte-for-byte.
func directReport(t *testing.T, spec RunSpec) []byte {
	t.Helper()
	m, err := spec.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.RunMatrixOpts(m, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep.Canonicalize()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func marshalReport(t *testing.T, rep *scenario.Report) []byte {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// startServer wires a Server into an httptest endpoint.
func startServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })
	return s, NewClient(ts.URL)
}

// Submit → worker → stream → report: the service's report is
// byte-identical to the direct single-process run.
func TestServerEndToEnd(t *testing.T) {
	_, client := startServer(t, Config{LedgerDir: t.TempDir()})
	sub, err := client.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if sub.Cells != 2 {
		t.Fatalf("submitted cells = %d, want 2", sub.Cells)
	}

	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan error, 1)
	go func() {
		w := &Worker{Client: client, Name: "w0", Cache: cache, PollEvery: 10 * time.Millisecond}
		workerDone <- w.Run(ctx)
	}()

	var cells []scenario.CellResult
	var summary *scenario.Summary
	err = client.Stream(sub.RunID, func(ev StreamEvent) error {
		switch ev.Type {
		case EventCell:
			cells = append(cells, *ev.Cell)
		case EventDone:
			summary = ev.Summary
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(cells) != 2 || summary == nil {
		t.Fatalf("stream delivered %d cells, summary=%v", len(cells), summary)
	}
	if summary.Cells != 2 || summary.Divergences != 0 || summary.Infra != 0 {
		t.Fatalf("summary: %+v", summary)
	}

	rep, err := client.Report(sub.RunID)
	if err != nil {
		t.Fatal(err)
	}
	got, want := marshalReport(t, rep), directReport(t, tinySpec())
	if string(got) != string(want) {
		t.Fatalf("service report differs from direct run:\n got %s\nwant %s", got, want)
	}

	// Drain: the worker exits, new submissions shed.
	if err := client.Drain(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-workerDone:
		if err != nil {
			t.Fatalf("worker exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit on drain")
	}
	if _, err := client.Submit(tinySpec()); err == nil {
		t.Fatal("submit accepted while draining")
	} else if se, ok := err.(*StatusError); !ok || se.Status != 503 {
		t.Fatalf("draining submit: %v, want 503", err)
	}
}

// An incomplete run answers 409 to report fetches, with progress.
func TestServerReportConflictWhileRunning(t *testing.T) {
	_, client := startServer(t, Config{})
	sub, err := client.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Report(sub.RunID)
	se, ok := err.(*StatusError)
	if !ok || se.Status != 409 {
		t.Fatalf("report of incomplete run: %v, want 409", err)
	}
}

// The admission bound sheds with an explicit 503, and admits again once
// the queue clears.
func TestServerShedsOverCellBound(t *testing.T) {
	_, client := startServer(t, Config{MaxQueuedCells: 3})
	sub, err := client.Submit(tinySpec()) // 2 cells in flight
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(tinySpec()); err == nil {
		t.Fatal("over-bound submit accepted")
	} else if se, ok := err.(*StatusError); !ok || se.Status != 503 {
		t.Fatalf("over-bound submit: %v, want 503", err)
	}
	// Complete the in-flight cells by hand; the bound frees up.
	for i := 0; i < 2; i++ {
		lease, err := client.Lease("manual")
		if err != nil || lease.Status != LeaseJob {
			t.Fatalf("lease %d: %v %+v", i, err, lease)
		}
		g := lease.Job
		cell, err := scenario.CellFromNames(g.Family, g.N, g.Engine, g.Protocol, g.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Result(ResultRequest{RunID: g.RunID, Key: g.Key, LeaseID: g.LeaseID, Cell: okResult(cell)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Submit(tinySpec()); err != nil {
		t.Fatalf("submit after queue cleared: %v", err)
	}
	_ = sub
}

// A restarted server rebuilds runs from their ledgers: completed cells
// stay completed (not re-leased), the rest finish, and the final report
// matches the direct run byte-for-byte. The ledger also carries the
// heartbeat and lease lines that older servers wrote: they must verify,
// so the records after them survive the reload.
func TestServerLedgerRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec()

	s1, client1 := startServer(t, Config{LedgerDir: dir})
	sub, err := client1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Complete exactly one cell with its real computed result.
	lease, err := client1.Lease("w-before-crash")
	if err != nil || lease.Status != LeaseJob {
		t.Fatalf("lease: %v %+v", err, lease)
	}
	g := lease.Job
	cell, err := scenario.CellFromNames(g.Family, g.N, g.Engine, g.Protocol, g.Seed)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave the legacy records an older server appended for this
	// lease, through a second append handle on the run ledger.
	path := filepath.Join(dir, "run-"+sub.RunID+".jsonl")
	m, err := spec.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	info := scenario.LedgerInfo{BaseSeed: spec.BaseSeed, Faults: spec.FaultSpec().String(), Cells: len(m.Expand())}
	legacy, _, _, err := scenario.OpenLedger(path, info)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []scenario.LedgerRecord{
		{T: scenario.RecLease, Key: g.Key, Worker: "w-before-crash", Attempt: g.Attempt, DeadlineMs: 1_700_000_015_000},
		{T: scenario.RecHeartbeat, Key: g.Key, Worker: g.LeaseID},
	} {
		if err := legacy.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := legacy.Close(); err != nil {
		t.Fatal(err)
	}
	res := scenario.RunCell(cell, scenario.CellOptions{}, nil)
	if _, err := client1.Result(ResultRequest{RunID: g.RunID, Key: g.Key, LeaseID: g.LeaseID, Worker: "w-before-crash", Attempt: g.Attempt, Cell: res}); err != nil {
		t.Fatal(err)
	}
	// "Crash": flush ledgers and abandon the server.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, client2 := startServer(t, Config{LedgerDir: dir})
	defer s2.Close()
	st, err := client2.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Runs) != 1 || st.Runs[0].RunID != sub.RunID || st.Runs[0].Done != 1 || st.Runs[0].Pending != 1 {
		t.Fatalf("recovered status: %+v", st)
	}
	// Finish the run on the recovered server with a real worker.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		w := &Worker{Client: client2, Name: "w-after-restart", PollEvery: 10 * time.Millisecond}
		done <- w.Run(ctx)
	}()
	deadline := time.Now().Add(60 * time.Second)
	var rep *scenario.Report
	for {
		rep, err = client2.Report(sub.RunID)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never completed after recovery: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := client2.Drain(); err != nil {
		t.Fatal(err)
	}
	<-done
	got, want := marshalReport(t, rep), directReport(t, spec)
	if string(got) != string(want) {
		t.Fatalf("recovered report differs from direct run:\n got %s\nwant %s", got, want)
	}
}

// A malformed spec is a 400, not a crash or a queued husk.
func TestServerRejectsBadSpec(t *testing.T) {
	_, client := startServer(t, Config{})
	if _, err := client.Submit(RunSpec{Quick: true, Families: "no-such-family"}); err == nil {
		t.Fatal("bad spec accepted")
	} else if se, ok := err.(*StatusError); !ok || se.Status != 400 {
		t.Fatalf("bad spec: %v, want 400", err)
	}
}

// TestStreamOutlivesClientTimeout streams a run whose first cell lands
// after the client's request timeout has passed: the stream must
// neither time out waiting for the response headers nor while reading
// the body.
func TestStreamOutlivesClientTimeout(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	client.http.Timeout = 300 * time.Millisecond
	sub, err := client.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	time.AfterFunc(600*time.Millisecond, func() {
		w := &Worker{Client: NewClient(ts.URL), Name: "w-late", PollEvery: 5 * time.Millisecond}
		done <- w.Run(ctx)
	})
	cells := 0
	if err := client.Stream(sub.RunID, func(ev StreamEvent) error {
		if ev.Type == EventCell {
			cells++
		}
		return nil
	}); err != nil {
		t.Fatalf("stream: %v (after %d cells)", err, cells)
	}
	if cells != sub.Cells {
		t.Fatalf("streamed %d cells, want %d", cells, sub.Cells)
	}
	if err := client.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
