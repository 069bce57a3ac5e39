package scenariod

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
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

// TestCacheMetrics checks the hit/miss counters on the shared
// content-addressed cache.
func TestCacheMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	hits := reg.Counter("scenariod_cache_hits_total", "verified cache reads")
	misses := reg.Counter("scenariod_cache_misses_total", "cache reads that fell through to recompute")
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
