package scenariod

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// serverMetrics is the scenariod metrics inventory (DESIGN.md §14–15):
// lease-lifecycle counters labeled by transition, completed-cell and
// backoff-retry totals, scrape-time gauges for queue depth, active runs
// and average throughput, and the span-derived latency histograms and
// worker-utilization series of the fleet trace. Registered on an
// obs.Registry and served as Prometheus text at /metrics.
type serverMetrics struct {
	reg     *obs.Registry
	started time.Time
	byEvent map[string]*obs.Counter
	// heartbeatsLost counts heartbeats answered 410; a lost lease is no
	// lifecycle transition, so the handler counts it, not the queue.
	heartbeatsLost *obs.Counter

	cellsCompleted *obs.Counter
	backoffRetries *obs.Counter

	// Span-derived latency histograms (fleet-trace/v1 legs, not
	// wall-clock sampling): pending wait before each grant, the
	// worker-reported executing leg, and enqueue-to-terminal per cell.
	queueWait *obs.Histogram
	execute   *obs.Histogram
	e2e       *obs.Histogram

	// Per-worker lease-time accounting, registered lazily as workers
	// first appear (the registry panics on duplicates, so the map
	// tracks what exists).
	workerMu sync.Mutex
	workers  map[string]*obs.Counter
}

// newServerMetrics registers the inventory. The gauges read live server
// state at scrape time; started anchors the cells-per-second average.
func newServerMetrics(reg *obs.Registry, s *Server, started time.Time) *serverMetrics {
	m := &serverMetrics{reg: reg, started: started, byEvent: map[string]*obs.Counter{}, workers: map[string]*obs.Counter{}}
	for _, ev := range []string{
		obs.FleetGranted, "heartbeat_lost", obs.FleetExpiredRequeued, obs.FleetExpiredQuarantined, obs.FleetInfraRequeued, obs.FleetCompleted,
	} {
		m.byEvent[ev] = reg.Counter(
			fmt.Sprintf("scenariod_lease_events_total{event=%q}", ev),
			"lease-lifecycle transitions by type")
	}
	m.heartbeatsLost = m.byEvent["heartbeat_lost"]
	m.cellsCompleted = reg.Counter("scenariod_cells_completed_total",
		"cells that reached a final result (including quarantined)")
	m.backoffRetries = reg.Counter("scenariod_backoff_retries_total",
		"jobs returned to the pending pool behind a backoff gate (expiry or infra)")
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
	reg.GaugeFunc("scenariod_cells_per_second", "completed cells per second of uptime (lifetime average)", func() float64 {
		up := time.Since(started).Seconds()
		if up <= 0 {
			return 0
		}
		return float64(m.cellsCompleted.Value()) / up
	})
	latencyMs := []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000, 300000}
	m.queueWait = reg.Histogram("scenariod_cell_queue_wait_ms",
		"per-attempt pending wait (incl. backoff) before a lease grant, span-derived", latencyMs)
	m.execute = reg.Histogram("scenariod_cell_execute_ms",
		"worker-reported executing leg per attempt of a terminal cell, span-derived", latencyMs)
	m.e2e = reg.Histogram("scenariod_cell_e2e_ms",
		"enqueue-to-terminal latency per cell, span-derived", latencyMs)
	return m
}

// registerRun adds the per-run throughput gauge, derived from the run's
// folded spans (terminal cells over the span window).
func (m *serverMetrics) registerRun(r *run) {
	m.reg.GaugeFunc(fmt.Sprintf("scenariod_run_cells_per_second{run=%q}", r.id),
		"per-run completed cells per second over the run's span window", func() float64 {
			r.fleetMu.Lock()
			defer r.fleetMu.Unlock()
			ft := r.fleet.Fleet()
			terminal := 0
			for _, key := range ft.Keys {
				if ft.Spans[key].Outcome != "" {
					terminal++
				}
			}
			wall := float64(ft.EndMs-ft.StartMs) / 1000
			if wall <= 0 {
				return 0
			}
			return float64(terminal) / wall
		})
}

// observeSpan folds the latency/utilization observations one span
// event implies: a grant's queued leg, a sealed attempt's lease time
// attributed to its worker, and — once a cell is terminal — its
// executing legs and end-to-end latency. Nil arguments mean the event
// implied nothing for that series.
func (m *serverMetrics) observeSpan(granted, sealed *obs.AttemptSpan, terminal *obs.CellSpan) {
	if granted != nil {
		m.queueWait.Observe(float64(granted.QueuedMs))
	}
	if sealed != nil && sealed.Worker != "" && sealed.EndMs > sealed.GrantMs {
		m.workerBusy(sealed.Worker, sealed.EndMs-sealed.GrantMs)
	}
	if terminal != nil {
		m.e2e.Observe(float64(terminal.E2EMs()))
		for _, a := range terminal.Attempts {
			if a.ExecMs > 0 {
				m.execute.Observe(float64(a.ExecMs))
			}
		}
	}
}

// workerBusy accumulates lease time for one worker, registering its
// busy-time counter and utilization gauge on first sight.
func (m *serverMetrics) workerBusy(worker string, ms int64) {
	m.workerMu.Lock()
	c, ok := m.workers[worker]
	if !ok {
		c = m.reg.Counter(fmt.Sprintf("scenariod_worker_busy_ms_total{worker=%q}", worker),
			"lease time held per worker (ms), span-derived")
		m.workers[worker] = c
		m.reg.GaugeFunc(fmt.Sprintf("scenariod_worker_utilization{worker=%q}", worker),
			"fraction of server uptime the worker spent holding leases", func() float64 {
				up := time.Since(m.started).Milliseconds()
				if up <= 0 {
					return 0
				}
				u := float64(c.Value()) / float64(up)
				if u > 1 {
					u = 1
				}
				return u
			})
	}
	m.workerMu.Unlock()
	c.Add(ms)
}

// observe folds one queue transition into the counters.
func (m *serverMetrics) observe(ev obs.SpanEvent) {
	if c := m.byEvent[ev.Event]; c != nil {
		c.Inc()
	}
	switch ev.Event {
	case obs.FleetCompleted, obs.FleetExpiredQuarantined:
		m.cellsCompleted.Inc()
	case obs.FleetExpiredRequeued, obs.FleetInfraRequeued:
		m.backoffRetries.Inc()
	}
}
