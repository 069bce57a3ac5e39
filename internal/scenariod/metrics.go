package scenariod

import (
	"fmt"
	"maps"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// serverMetrics is the scenariod metrics inventory (DESIGN.md §14–15),
// served as Prometheus text at /metrics. Every cell-lifecycle series is
// read at scrape time from the runs' span folds through obs.Summarize —
// the accounting `cliquetrace fleet` prints from a ledger — so a
// resumed run's series cover its replayed spans too. A scrape reads
// every run's account once, and all its families render that one read.
// Every series is registered here, once, so nothing registers under a
// server or run lock.
type serverMetrics struct {
	s   *Server
	reg *obs.Registry
	// heartbeatsLost counts heartbeats answered 410; a lost lease is no
	// lifecycle transition and has no span event, so the handler counts it.
	heartbeatsLost atomic.Int64

	// scrapeMu serializes scrapes; runs holds the run accounts of the
	// scrape in progress.
	scrapeMu sync.Mutex
	runs     []runAccount
}

const heartbeatLost = "heartbeat_lost"

// leaseEvents labels scenariod_lease_events_total, in exposition order.
var leaseEvents = []string{
	obs.FleetGranted, heartbeatLost, obs.FleetExpiredRequeued, obs.FleetExpiredQuarantined, obs.FleetInfraRequeued, obs.FleetCompleted,
}

// runAccount is one run's fleet accounting, read from its span fold.
// Scrapes share it read-only.
type runAccount struct {
	id     string
	events map[string]int // the fold's tally of span events by name
	sum    obs.FleetSummary
}

// summarize is obs.Summarize; tests count its calls through it.
var summarize = obs.Summarize

// accounts returns every run's account, in submission order. A run's
// account is summarized again only after its fold has taken an event, so
// a finished run is summarized once.
func (s *Server) accounts() []runAccount {
	runs := s.runList()
	out := make([]runAccount, len(runs))
	for i, r := range runs {
		r.fleetMu.Lock()
		if r.acct == nil {
			ft := r.fleet.Fleet()
			r.acct = &runAccount{id: r.id, events: maps.Clone(ft.Events), sum: summarize(ft)}
		}
		out[i] = *r.acct
		r.fleetMu.Unlock()
	}
	return out
}

// ServeHTTP serves one scrape: it reads the runs' accounts once and
// renders every series from that read.
func (m *serverMetrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	m.scrapeMu.Lock()
	m.runs = m.s.accounts()
	m.reg.WritePrometheus(&b)
	m.runs = nil
	m.scrapeMu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// newServerMetrics registers the inventory on a fresh registry.
func newServerMetrics(s *Server) *serverMetrics {
	m := &serverMetrics{s: s, reg: obs.NewRegistry()}
	reg := m.reg
	reg.Family("scenariod_lease_events_total", "counter", "lease-lifecycle transitions by type", func() []obs.Sample {
		total := map[string]int{heartbeatLost: int(m.heartbeatsLost.Load())}
		for _, a := range m.runs {
			for ev, n := range a.events {
				total[ev] += n
			}
		}
		out := make([]obs.Sample, len(leaseEvents))
		for i, ev := range leaseEvents {
			out[i] = obs.Sample{Labels: fmt.Sprintf("event=%q", ev), Value: float64(total[ev])}
		}
		return out
	})
	total := func(name, help string, field func(obs.FleetSummary) int) {
		reg.Family(name, "counter", help, func() []obs.Sample {
			n := 0
			for _, a := range m.runs {
				n += field(a.sum)
			}
			return []obs.Sample{{Value: float64(n)}}
		})
	}
	total("scenariod_cells_completed_total", "cells that reached a final result (including quarantined)",
		func(sum obs.FleetSummary) int { return sum.Cells })
	total("scenariod_backoff_retries_total", "jobs returned to the pending pool behind a backoff gate (expiry or infra)",
		func(sum obs.FleetSummary) int { return sum.Requeues })
	reg.GaugeFunc("scenariod_queue_depth", "unfinished cells across all runs", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.unfinishedLocked())
	})
	reg.GaugeFunc("scenariod_runs_active", "submitted runs with unfinished cells", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		active := 0
		for _, r := range s.runs {
			if r.queue.Unfinished() > 0 {
				active++
			}
		}
		return float64(active)
	})
	reg.Family("scenariod_run_cells_per_second", "gauge", "per-run terminal cells per second over the run's span window", func() []obs.Sample {
		var out []obs.Sample
		for _, a := range m.runs {
			out = append(out, obs.Sample{Labels: fmt.Sprintf("run=%q", a.id), Value: a.sum.CellsPerSec})
		}
		return out
	})
	latency := func(name, help string, leg func(obs.FleetSummary) obs.DurationStats) {
		reg.Family(name, "summary", help, func() []obs.Sample {
			var out []obs.Sample
			for _, a := range m.runs {
				d, run := leg(a.sum), fmt.Sprintf("run=%q", a.id)
				if d.Count > 0 {
					out = append(out,
						obs.Sample{Labels: run + `,quantile="0.5"`, Value: float64(d.P50Ms)},
						obs.Sample{Labels: run + `,quantile="0.9"`, Value: float64(d.P90Ms)},
						obs.Sample{Labels: run + `,quantile="0.99"`, Value: float64(d.P99Ms)})
				}
				out = append(out, obs.Sample{Suffix: "_count", Labels: run, Value: float64(d.Count)})
			}
			return out
		})
	}
	latency("scenariod_cell_queue_wait_ms", "per-run pending wait (incl. backoff) before each lease grant",
		func(sum obs.FleetSummary) obs.DurationStats { return sum.QueueWait })
	latency("scenariod_cell_execute_ms", "per-run worker-reported executing leg of each attempt",
		func(sum obs.FleetSummary) obs.DurationStats { return sum.Exec })
	latency("scenariod_cell_e2e_ms", "per-run enqueue-to-terminal latency of each cell",
		func(sum obs.FleetSummary) obs.DurationStats { return sum.EndToEnd })
	reg.Family("scenariod_worker_utilization", "gauge", "per-run fraction of the run's span window each worker held leases", func() []obs.Sample {
		var out []obs.Sample
		for _, a := range m.runs {
			for _, w := range a.sum.Workers {
				out = append(out, obs.Sample{Labels: fmt.Sprintf("run=%q,worker=%q", a.id, w.Worker), Value: w.Utilization})
			}
		}
		return out
	})
	return m
}
