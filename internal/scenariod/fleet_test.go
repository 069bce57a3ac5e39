package scenariod

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
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
	ft, outcomes, err := ReadRunLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	return ft, outcomes
}

// requireScrapeMatchesLedger scrapes /metrics and checks that the live
// server reports the accounting obs.Summarize derives offline from the
// run's ledger: lease grants, every leg population, completed cells,
// throughput and each worker's utilization. The server holds this one
// run only, so its server-wide totals are the run's.
func requireScrapeMatchesLedger(t *testing.T, url, runID string, sum obs.FleetSummary) {
	t.Helper()
	got := map[string]float64{}
	for _, line := range strings.Split(scrape(t, url), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		got[line[:i]] = v
	}
	run := fmt.Sprintf("run=%q", runID)
	want := map[string]float64{
		`scenariod_lease_events_total{event="lease_granted"}`: float64(sum.Attempts),
		"scenariod_cells_completed_total":                     float64(sum.Cells),
		"scenariod_cell_queue_wait_ms_count{" + run + "}":     float64(sum.QueueWait.Count),
		"scenariod_cell_execute_ms_count{" + run + "}":        float64(sum.Exec.Count),
		"scenariod_cell_e2e_ms_count{" + run + "}":            float64(sum.EndToEnd.Count),
		"scenariod_run_cells_per_second{" + run + "}":         sum.CellsPerSec,
	}
	for _, w := range sum.Workers {
		want[fmt.Sprintf("scenariod_worker_utilization{%s,worker=%q}", run, w.Worker)] = w.Utilization
	}
	for series, v := range want {
		if g, ok := got[series]; !ok || g != v {
			t.Errorf("/metrics %s = %v (present: %v), ledger summary says %v", series, g, ok, v)
		}
	}
}

// TestFleetSpansReconcileEndToEnd runs a full matrix through the
// service and proves the durable span stream is a faithful second
// account: rebuilt from the ledger alone, it reconciles exactly against
// the canonical report, and a real /metrics scrape reports the same
// summary.
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

	// Real scrape: /metrics reads the same summary from the live fold.
	requireScrapeMatchesLedger(t, ts.URL, sub.RunID, sum)
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
	// The doomed lease was the last record before the crash, so it ends
	// at its own grant: the 5 s the server was down are no worker's
	// busy time, in the ledger summary or on the resumed /metrics.
	if doomed.EndMs != doomed.GrantMs {
		t.Errorf("doomed attempt ends %d ms after its grant, want 0 (the server was down)", doomed.EndMs-doomed.GrantMs)
	}
	for _, w := range sum.Workers {
		if w.Worker == "w-doomed" && (w.BusyMs != 0 || w.Utilization != 0) {
			t.Errorf("w-doomed busy %d ms, utilization %.2f: the downtime is billed to it", w.BusyMs, w.Utilization)
		}
	}
	doomedSeries := fmt.Sprintf("scenariod_worker_utilization{run=%q,worker=%q} ", sub.RunID, "w-doomed")
	if !strings.Contains(scrape(t, ts2.URL), "\n"+doomedSeries+"0\n") {
		t.Errorf("resumed /metrics does not read %s0", doomedSeries)
	}

	// The resumed server's live builder reconciles too, and its
	// /metrics covers the whole run, replayed spans included.
	r := s2.getRun(sub.RunID)
	r.fleetMu.Lock()
	liveErr := obs.ReconcileFleet(r.fleet.Fleet(), outcomes)
	r.fleetMu.Unlock()
	if liveErr != nil {
		t.Fatalf("resumed live spans: %v", liveErr)
	}
	requireScrapeMatchesLedger(t, ts2.URL, sub.RunID, sum)
}

// TestSubmitRacesScrape submits runs while /metrics is scraped: neither
// may wait on a lock the other holds. The watchdog turns a deadlock
// into a failure instead of a hung test binary.
func TestSubmitRacesScrape(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	spec, err := json.Marshal(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	call := func(method, path string, body []byte) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code
	}
	const rounds = 100
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < rounds; i++ {
					if code := call(http.MethodPost, "/v1/runs", spec); code != http.StatusOK {
						t.Errorf("submit: status %d", code)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < rounds; i++ {
					if code := call(http.MethodGet, "/metrics", nil); code != http.StatusOK {
						t.Errorf("scrape: status %d", code)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("Submit and a /metrics scrape deadlocked")
	}
}
