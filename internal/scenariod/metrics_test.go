package scenariod

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// scrape fetches /metrics and returns the exposition text.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func requireLine(t *testing.T, text, line string) {
	t.Helper()
	if !strings.Contains(text, line+"\n") {
		t.Errorf("metrics missing %q; got:\n%s", line, text)
	}
}

// TestMetricsExpiredThenRequeuedLease drives a lease through
// grant → expiry → requeue → regrant against a FakeClock, then sends a
// heartbeat for the superseded first lease through the HTTP API, and
// asserts the transitions and the 410 land in /metrics.
func TestMetricsExpiredThenRequeuedLease(t *testing.T) {
	clock := NewFakeClock(time.Unix(1_700_000_000, 0))
	s, err := New(Config{
		Clock: clock,
		Queue: QueueConfig{LeaseTTL: time.Second, MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffCap: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := s.Submit(tinySpec()); err != nil {
		t.Fatal(err)
	}

	grant := s.Lease("w0")
	if grant.Status != LeaseJob {
		t.Fatalf("lease status %q", grant.Status)
	}
	key := grant.Job.Key

	// Let the lease rot past its TTL; the sweep must requeue it.
	clock.Advance(2 * time.Second)
	if n := s.Sweep(); n != 0 {
		t.Fatalf("sweep finalized %d jobs, want 0 (requeue, not quarantine)", n)
	}
	// Past the backoff gate the same cell is leased again.
	clock.Advance(time.Second)
	grant2 := s.Lease("w1")
	if grant2.Status != LeaseJob || grant2.Job.Key != key || grant2.Job.Attempt != 2 {
		t.Fatalf("regrant = %+v, want attempt 2 of %s", grant2.Job, key)
	}

	// The first worker, unaware, heartbeats its superseded lease.
	err = NewClient(ts.URL).Heartbeat(grant.Job.RunID, key, grant.Job.LeaseID)
	if se, ok := err.(*StatusError); !ok || se.Status != http.StatusGone {
		t.Fatalf("superseded heartbeat: %v, want 410", err)
	}

	text := scrape(t, ts.URL)
	requireLine(t, text, `scenariod_lease_events_total{event="lease_granted"} 2`)
	requireLine(t, text, `scenariod_lease_events_total{event="heartbeat_lost"} 1`)
	requireLine(t, text, `scenariod_lease_events_total{event="lease_expired_requeued"} 1`)
	requireLine(t, text, `scenariod_lease_events_total{event="lease_expired_quarantined"} 0`)
	requireLine(t, text, `scenariod_backoff_retries_total 1`)
	requireLine(t, text, `scenariod_cells_completed_total 0`)
	requireLine(t, text, `scenariod_queue_depth 2`)
	requireLine(t, text, `scenariod_runs_active 1`)
}

// TestMetricsPprofGate checks /debug/pprof is absent by default and
// mounted behind EnablePprof.
func TestMetricsPprofGate(t *testing.T) {
	for _, enabled := range []bool{false, true} {
		s, err := New(Config{EnablePprof: enabled})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ts.Close()
		wantOK := enabled
		if gotOK := resp.StatusCode == http.StatusOK; gotOK != wantOK {
			t.Errorf("EnablePprof=%v: /debug/pprof/ status %d", enabled, resp.StatusCode)
		}
	}
}

// TestCacheMetrics checks the hit/miss counters on the shared graph
// cache.
func TestCacheMetrics(t *testing.T) {
	hits, misses := new(obs.Counter), new(obs.Counter)
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.SetMetrics(hits, misses)
	type payload struct{ V int }
	var out payload
	if c.get("k", &out) {
		t.Fatal("hit on empty cache")
	}
	c.put("k", payload{7})
	if !c.get("k", &out) || out.V != 7 {
		t.Fatal("miss after put")
	}
	if hits.Value() != 1 || misses.Value() != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits.Value(), misses.Value())
	}
}

// completeLeasedCell runs a leased cell and submits its result.
func completeLeasedCell(t *testing.T, client *Client, worker string, lease LeaseResponse) {
	t.Helper()
	g := lease.Job
	cell, err := scenario.CellFromNames(g.Family, g.N, g.Engine, g.Protocol, g.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Result(ResultRequest{
		RunID: g.RunID, Key: g.Key, LeaseID: g.LeaseID, Worker: worker, Attempt: g.Attempt,
		Cell: scenario.RunCell(cell, scenario.CellOptions{}),
	}); err != nil {
		t.Fatal(err)
	}
}

// scrapeValue returns the value of one series in a scrape.
func scrapeValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("/metrics line %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no series %s:\n%s", series, text)
	return 0
}

// TestMetricsScrapeReadsRunsOnce: a scrape summarizes each run at most
// once for all its families — an active run once per scrape that
// follows a span event, a finished run only on the first — and the
// families of one scrape read one instant, so the granted and completed
// counts agree even while a worker runs.
func TestMetricsScrapeReadsRunsOnce(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	client := NewClient(ts.URL)
	lease := func() LeaseResponse {
		l, err := client.Lease("w-manual")
		if err != nil || l.Status != LeaseJob {
			t.Fatalf("lease: %v %+v", err, l)
		}
		return l
	}

	// Run A finishes; run B has one cell leased.
	subA, err := client.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		completeLeasedCell(t, client, "w-manual", lease())
	}
	if _, err := client.Report(subA.RunID); err != nil {
		t.Fatalf("run A not finished: %v", err)
	}
	specB := tinySpec()
	specB.BaseSeed = 8
	subB, err := client.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	leased := lease()

	var calls atomic.Int64
	summarize = func(ft *obs.FleetTrace) obs.FleetSummary {
		calls.Add(1)
		return obs.Summarize(ft)
	}
	t.Cleanup(func() { summarize = obs.Summarize })
	countScrape := func(what string, want int64) string {
		t.Helper()
		calls.Store(0)
		text := scrape(t, ts.URL)
		if got := calls.Load(); got != want {
			t.Errorf("%s: %d Summarize calls in one scrape, want %d", what, got, want)
		}
		return text
	}
	text := countScrape("first scrape of a finished and an active run", 2)
	granted := scrapeValue(t, text, `scenariod_lease_events_total{event="lease_granted"}`)
	completed := scrapeValue(t, text, "scenariod_cells_completed_total")
	if granted != 3 || completed != 2 {
		t.Errorf("granted %v, completed %v; want 3 and 2", granted, completed)
	}
	completeLeasedCell(t, client, "w-manual", leased)
	countScrape("scrape after an event on the active run", 1)
	countScrape("scrape after no event", 0)

	// A worker finishes run B while the scrapes go on: one worker holds
	// at most one lease, so every scrape reads 0 or 1 granted-but-not-
	// completed cells.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		w := &Worker{Client: client, Name: "w-bg", PollEvery: time.Millisecond}
		done <- w.Run(ctx)
	}()
	for {
		_, reportErr := client.Report(subB.RunID)
		text := scrape(t, ts.URL)
		granted := scrapeValue(t, text, `scenariod_lease_events_total{event="lease_granted"}`)
		completed := scrapeValue(t, text, "scenariod_cells_completed_total")
		if d := granted - completed; d < 0 || d > 1 {
			t.Fatalf("one scrape reads %v granted and %v completed", granted, completed)
		}
		if reportErr == nil {
			break
		}
	}
	cancel()
	<-done
}
