package scenariod

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// Config tunes the server.
type Config struct {
	// LedgerDir is where per-run ledgers (run-<id>.jsonl, ledger v2 with
	// spec, span and cell records) live. Existing ledgers are reloaded on
	// startup — completed cells stay completed, outstanding leases are
	// void — so a restarted server resumes every interrupted run. ""
	// keeps runs in memory only.
	LedgerDir string
	// MaxQueuedCells bounds the unfinished cells across all runs; a
	// submission that would exceed it is shed with 503 so overload
	// degrades to an explicit, retryable refusal instead of an unbounded
	// queue. Default 100000.
	MaxQueuedCells int
	// Queue is the lease/retry discipline shared by every run.
	Queue QueueConfig
	// Clock is injectable for tests; nil = wall clock.
	Clock Clock
	// Logf sinks operational messages; nil = log.Printf.
	Logf func(format string, args ...any)
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// server's handler — off by default, a flag on cmd/scenariod.
	EnablePprof bool
}

// Server is the scenariod job-queue server. Create with New, expose
// via Handler, drive lease expiry with StartSweeper (or Sweep in
// tests), stop with Drain + Close.
type Server struct {
	cfg     Config
	clock   Clock
	logf    func(string, ...any)
	metrics *serverMetrics

	mu       sync.Mutex
	runs     map[string]*run
	order    []string
	draining bool
	seq      int
}

// run is one submitted matrix and its durable queue.
type run struct {
	id     string
	spec   RunSpec
	matrix *scenario.Matrix
	queue  *Queue
	led    *scenario.Ledger // nil when ephemeral
	cells  int

	// fleet folds the run's span stream (fleet-trace/v1) in memory:
	// the source of the span-derived latency histograms, the per-run
	// cells/sec gauge, and worker-utilization accounting. Guarded by
	// fleetMu (the builder is not concurrency-safe); events arrive in
	// committed order thanks to the queue's emitMu.
	fleetMu sync.Mutex
	fleet   *obs.FleetBuilder

	mu        sync.Mutex
	log       []StreamEvent // completed cells in completion order, then done
	subs      map[int]chan StreamEvent
	subSeq    int
	doneCells int
	complete  bool
}

// New builds a server and reloads any runs found in cfg.LedgerDir.
func New(cfg Config) (*Server, error) {
	if cfg.MaxQueuedCells <= 0 {
		cfg.MaxQueuedCells = 100000
	}
	cfg.Queue = cfg.Queue.withDefaults()
	clock := cfg.Clock
	if clock == nil {
		clock = realClock{}
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	s := &Server{cfg: cfg, clock: clock, logf: logf, runs: map[string]*run{}}
	s.metrics = newServerMetrics(obs.NewRegistry(), s, time.Now())
	if cfg.LedgerDir != "" {
		if err := os.MkdirAll(cfg.LedgerDir, 0o755); err != nil {
			return nil, fmt.Errorf("scenariod: ledger dir: %w", err)
		}
		if err := s.reload(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// reload restores every run whose ledger survives in LedgerDir. A
// ledger that cannot be restored (no spec record, mismatched binding)
// is left on disk and skipped with a log line — refusing to serve is
// worse than refusing to guess.
func (s *Server) reload() error {
	entries, err := os.ReadDir(s.cfg.LedgerDir)
	if err != nil {
		return fmt.Errorf("scenariod: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "run-") && strings.HasSuffix(name, ".jsonl") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		id := strings.TrimSuffix(strings.TrimPrefix(name, "run-"), ".jsonl")
		path := filepath.Join(s.cfg.LedgerDir, name)
		r, err := s.loadRun(id, path)
		if err != nil {
			s.logf("scenariod: skipping ledger %s: %v", path, err)
			continue
		}
		s.runs[id] = r
		s.order = append(s.order, id)
		if n, err := strconv.Atoi(id); err == nil && n >= s.seq {
			s.seq = n + 1
		}
	}
	return nil
}

// loadRun rebuilds one run from its ledger: the spec record names the
// matrix, the binding is verified, completed cells are preloaded, and
// the append handle is reopened (truncating any torn tail).
func (s *Server) loadRun(id, path string) (*run, error) {
	info, recs, err := scenario.LoadLedger(path)
	if err != nil {
		return nil, err
	}
	var spec RunSpec
	found := false
	for _, rec := range recs {
		if rec.T == scenario.RecSpec {
			if err := json.Unmarshal(rec.Spec, &spec); err != nil {
				return nil, fmt.Errorf("bad spec record: %v", err)
			}
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("no spec record")
	}
	m, err := spec.Matrix()
	if err != nil {
		return nil, err
	}
	cells := m.Expand()
	want := scenario.LedgerInfo{BaseSeed: spec.BaseSeed, Faults: spec.FaultSpec().String(), Cells: len(cells)}
	if info != want {
		return nil, fmt.Errorf("ledger binding %+v does not match spec %+v", info, want)
	}
	led, prior, others, err := scenario.OpenLedger(path, want)
	if err != nil {
		return nil, err
	}
	r := s.newRun(id, spec, m, led)
	// Replay the durable span stream into the fresh builder (persist:
	// false — the records are already in the ledger), then mark the
	// resume: run_resumed voids any attempt left open by the crash and
	// re-declares the cell count, closing the crash window between the
	// spec record and the run_enqueued span.
	for _, rec := range others {
		if rec.T != scenario.RecSpan {
			continue
		}
		s.spanEvent(r, obs.SpanEvent{
			TMs: rec.TMs, Event: rec.Event, Key: rec.Key, Worker: rec.Worker,
			Attempt: rec.Attempt, Outcome: rec.Outcome, ExecMs: rec.ExecMs, Cells: rec.Cells,
		}, false)
	}
	s.spanEvent(r, obs.SpanEvent{
		TMs: s.clock.Now().UnixMilli(), Event: obs.FleetRunResumed, Cells: len(cells),
	}, true)
	for key, cr := range prior {
		if r.queue.Preload(key, cr) {
			crc := cr
			r.log = append(r.log, StreamEvent{Type: EventCell, Cell: &crc})
			r.doneCells++
		}
	}
	r.finishIfDone()
	return r, nil
}

// newRun wires a run's queue to the server's completion pipeline.
func (s *Server) newRun(id string, spec RunSpec, m *scenario.Matrix, led *scenario.Ledger) *run {
	cells := m.Expand()
	r := &run{
		id:     id,
		spec:   spec,
		matrix: m,
		queue: NewQueue(cells, QueueConfig{
			LeaseTTL:    s.cfg.Queue.LeaseTTL,
			MaxAttempts: s.cfg.Queue.MaxAttempts,
			BackoffBase: s.cfg.Queue.BackoffBase,
			BackoffCap:  s.cfg.Queue.BackoffCap,
			Seed:        spec.BaseSeed,
		}, s.clock),
		led:   led,
		cells: len(cells),
		fleet: obs.NewFleetBuilder(),
		subs:  map[int]chan StreamEvent{},
	}
	r.queue.SetOnDone(func(j *Job) { s.jobDone(r, j) })
	r.queue.SetOnEvent(func(ev obs.SpanEvent) {
		s.metrics.observe(ev)
		s.spanEvent(r, ev, true)
	})
	s.metrics.registerRun(r)
	return r
}

// Metrics returns the server's registry — the one /metrics renders.
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// spanEventEnds maps a span event to the attempt end state it seals —
// the guard that keeps a worker's lease time from being folded twice
// (a cell completed by a stale result has no attempt sealed by the
// completion event; its last attempt was already folded at requeue).
var spanEventEnds = map[string]string{
	obs.FleetExpiredRequeued:    obs.EndExpiredRequeued,
	obs.FleetInfraRequeued:      obs.EndInfraRequeued,
	obs.FleetExpiredQuarantined: obs.EndExpiredQuarantined,
	obs.FleetCompleted:          obs.EndCompleted,
}

// spanEvent folds one fleet-trace/v1 event into the run's span builder,
// derives the latency/utilization observations it implies, and — when
// persist is set — appends it to the run ledger interleaved with the
// resume records (the replay path passes persist=false: those events
// are already durable). Builder refusals are logged, never fatal: a
// broken span stream must not take the queue down, and the reconcile
// gate will surface it.
func (s *Server) spanEvent(r *run, ev obs.SpanEvent, persist bool) {
	r.fleetMu.Lock()
	err := r.fleet.Observe(ev)
	var granted, sealed *obs.AttemptSpan
	var terminal *obs.CellSpan
	if err == nil && ev.Key != "" {
		if sp := r.fleet.Span(ev.Key); sp != nil && len(sp.Attempts) > 0 {
			last := sp.Attempts[len(sp.Attempts)-1]
			switch {
			case ev.Event == obs.FleetGranted:
				granted = &last
			case last.End != "" && last.End == spanEventEnds[ev.Event]:
				sealed = &last
			}
			if sp.Outcome != "" && spanEventEnds[ev.Event] != "" {
				snap := *sp
				snap.Attempts = append([]obs.AttemptSpan(nil), sp.Attempts...)
				terminal = &snap
			}
		}
	}
	r.fleetMu.Unlock()
	if err != nil {
		s.logf("scenariod: run %s: span %s: %v", r.id, ev.Event, err)
	}
	s.metrics.observeSpan(granted, sealed, terminal)
	if persist && r.led != nil {
		if lerr := r.led.Append(scenario.LedgerRecord{
			T: scenario.RecSpan, Key: ev.Key, Worker: ev.Worker, Attempt: ev.Attempt,
			Event: ev.Event, TMs: ev.TMs, Outcome: ev.Outcome, ExecMs: ev.ExecMs, Cells: ev.Cells,
		}); lerr != nil {
			s.logf("scenariod: run %s: %v", r.id, lerr)
		}
	}
}

// jobDone is the exactly-once completion hook: persist the cell, then
// publish it (and, on the last cell, the done event) to subscribers.
func (s *Server) jobDone(r *run, j *Job) {
	if r.led != nil {
		if err := r.led.AppendCell(j.Key, *j.Result); err != nil {
			s.logf("scenariod: run %s: %v", r.id, err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = append(r.log, StreamEvent{Type: EventCell, Cell: j.Result})
	r.doneCells++
	for _, ch := range r.subs {
		select {
		case ch <- r.log[len(r.log)-1]:
		default:
		}
	}
	r.finishIfDoneLocked()
}

func (r *run) finishIfDone() { r.mu.Lock(); defer r.mu.Unlock(); r.finishIfDoneLocked() }

// finishIfDoneLocked publishes the done event and closes subscriber
// channels once every cell has completed. Called with r.mu held.
func (r *run) finishIfDoneLocked() {
	if r.complete || r.doneCells != r.cells {
		return
	}
	r.complete = true
	if r.led != nil {
		r.led.Sync()
	}
	rep, ok := r.reportLocked()
	ev := StreamEvent{Type: EventDone}
	if ok {
		ev.Summary = &rep.Summary
	}
	r.log = append(r.log, ev)
	for id, ch := range r.subs {
		select {
		case ch <- ev:
		default:
		}
		close(ch)
		delete(r.subs, id)
	}
}

// reportLocked assembles the canonical report. Only valid once complete.
func (r *run) reportLocked() (*scenario.Report, bool) {
	results, ok := r.queue.Results()
	if !ok {
		return nil, false
	}
	rep := scenario.BuildReport(r.matrix, results, r.spec.FaultSpec().String())
	rep.Canonicalize()
	return rep, true
}

// subscribe registers a stream consumer: the backlog is replayed into a
// channel wide enough to hold the whole run, then live events follow.
// The returned cancel must be called when the consumer goes away.
func (r *run) subscribe() (<-chan StreamEvent, func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ch := make(chan StreamEvent, r.cells+2)
	for _, ev := range r.log {
		ch <- ev
	}
	if r.complete {
		close(ch)
		return ch, func() {}
	}
	r.subSeq++
	id := r.subSeq
	r.subs[id] = ch
	return ch, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if _, ok := r.subs[id]; ok {
			delete(r.subs, id)
		}
	}
}

// Sweep expires overdue leases on every run (requeue or quarantine),
// returning how many jobs were finalized (quarantined) by this pass.
func (s *Server) Sweep() int {
	s.mu.Lock()
	runs := make([]*run, 0, len(s.order))
	for _, id := range s.order {
		runs = append(runs, s.runs[id])
	}
	s.mu.Unlock()
	total := 0
	for _, r := range runs {
		total += r.queue.Sweep()
	}
	return total
}

// StartSweeper drives Sweep on a ticker until ctx is done.
func (s *Server) StartSweeper(ctx context.Context, every time.Duration) {
	if every <= 0 {
		every = time.Second
	}
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				s.Sweep()
			}
		}
	}()
}

// Drain stops admitting runs and granting leases. In-flight leases may
// still heartbeat and deliver results, so current cells finish and the
// ledger captures them; workers polling for work are told to exit.
func (s *Server) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
}

// Quiesced reports whether no lease is outstanding — the signal a
// draining server waits for before shutting down, so in-flight cells
// land in the ledger instead of being abandoned mid-compute.
func (s *Server) Quiesced() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.runs {
		if _, leased, _ := r.queue.Counts(); leased > 0 {
			return false
		}
	}
	return true
}

// Draining reports drain state.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close flushes and closes every run ledger (the end of a drain).
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, id := range s.order {
		if led := s.runs[id].led; led != nil {
			led.Sync()
			if err := led.Close(); err != nil && first == nil {
				first = err
			}
			s.runs[id].led = nil
		}
	}
	return first
}

// unfinishedLocked totals unfinished cells across runs (admission control).
func (s *Server) unfinishedLocked() int {
	total := 0
	for _, r := range s.runs {
		total += r.queue.Unfinished()
	}
	return total
}

// Submit admits a run: expand the matrix, open its ledger (header +
// spec record), enqueue the cells. Shed (nil, error) when draining or
// over the cell bound.
func (s *Server) Submit(spec RunSpec) (*SubmitResponse, error) {
	m, err := spec.Matrix()
	if err != nil {
		return nil, &apiError{http.StatusBadRequest, err.Error()}
	}
	cells := m.Expand()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, &apiError{http.StatusServiceUnavailable, "draining: not accepting new runs"}
	}
	if inFlight := s.unfinishedLocked(); inFlight+len(cells) > s.cfg.MaxQueuedCells {
		return nil, &apiError{http.StatusServiceUnavailable,
			fmt.Sprintf("queue full: %d cells in flight, %d submitted, bound %d", inFlight, len(cells), s.cfg.MaxQueuedCells)}
	}
	id := strconv.Itoa(s.seq)
	s.seq++
	var led *scenario.Ledger
	if s.cfg.LedgerDir != "" {
		path := filepath.Join(s.cfg.LedgerDir, "run-"+id+".jsonl")
		info := scenario.LedgerInfo{BaseSeed: spec.BaseSeed, Faults: spec.FaultSpec().String(), Cells: len(cells)}
		var err error
		led, _, _, err = scenario.OpenLedger(path, info)
		if err != nil {
			return nil, &apiError{http.StatusInternalServerError, err.Error()}
		}
		raw, err := json.Marshal(spec)
		if err == nil {
			err = led.Append(scenario.LedgerRecord{T: scenario.RecSpec, Spec: raw})
		}
		if err != nil {
			led.Close()
			return nil, &apiError{http.StatusInternalServerError, err.Error()}
		}
	}
	r := s.newRun(id, spec, m, led)
	s.spanEvent(r, obs.SpanEvent{
		TMs: s.clock.Now().UnixMilli(), Event: obs.FleetRunEnqueued, Cells: len(cells),
	}, true)
	s.runs[id] = r
	s.order = append(s.order, id)
	return &SubmitResponse{RunID: id, Cells: len(cells)}, nil
}

// Lease grants the next eligible cell across runs, oldest run first.
func (s *Server) Lease(worker string) LeaseResponse {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return LeaseResponse{Status: LeaseDrain}
	}
	runs := make([]*run, 0, len(s.order))
	for _, id := range s.order {
		runs = append(runs, s.runs[id])
	}
	s.mu.Unlock()
	for _, r := range runs {
		// The queue's observer appends the grant's lease_granted span
		// record (worker, attempt, instant) to the ledger.
		j, ok := r.queue.Lease(worker)
		if !ok {
			continue
		}
		return LeaseResponse{Status: LeaseJob, Job: &JobGrant{
			RunID:      r.id,
			Key:        j.Key,
			Family:     j.Cell.Family.Name,
			N:          j.Cell.N,
			Engine:     j.Cell.Engine.Name,
			Protocol:   j.Cell.Protocol.Name,
			Seed:       j.Cell.Seed,
			Faults:     r.spec.Faults,
			LeaseID:    j.LeaseID,
			Attempt:    j.Attempts,
			LeaseTTLMs: s.cfg.Queue.LeaseTTL.Milliseconds(),
			// Three missed heartbeats lose the lease.
			HeartbeatMs: (s.cfg.Queue.LeaseTTL / 3).Milliseconds(),
		}}
	}
	return LeaseResponse{Status: LeaseEmpty}
}

func (s *Server) getRun(id string) *run {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

// apiError carries an HTTP status through the handler plumbing.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return
	}
	w.Write(append(data, '\n'))
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if ae, ok := err.(*apiError); ok {
		status = ae.status
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// Handler exposes the HTTP/JSON API (endpoints in DESIGN.md §12).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		var spec RunSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			writeErr(w, &apiError{http.StatusBadRequest, "bad run spec: " + err.Error()})
			return
		}
		resp, err := s.Submit(spec)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Worker == "" {
			writeErr(w, &apiError{http.StatusBadRequest, "lease request needs a worker id"})
			return
		}
		writeJSON(w, http.StatusOK, s.Lease(req.Worker))
	})
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, &apiError{http.StatusBadRequest, "bad heartbeat"})
			return
		}
		run := s.getRun(req.RunID)
		if run == nil {
			writeErr(w, &apiError{http.StatusNotFound, "unknown run " + req.RunID})
			return
		}
		if err := run.queue.Heartbeat(req.Key, req.LeaseID); err != nil {
			if errors.Is(err, ErrLeaseLost) {
				s.metrics.heartbeatsLost.Inc()
			}
			writeErr(w, &apiError{http.StatusGone, err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/result", func(w http.ResponseWriter, r *http.Request) {
		var req ResultRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, &apiError{http.StatusBadRequest, "bad result"})
			return
		}
		run := s.getRun(req.RunID)
		if run == nil {
			writeErr(w, &apiError{http.StatusNotFound, "unknown run " + req.RunID})
			return
		}
		// Span the submission before Complete so the stream reads
		// granted → result_submitted → cell_completed. Submissions for
		// already-final cells (idempotent duplicates) carry no new
		// information and are not spanned.
		if st, known := run.queue.State(req.Key); known && st != JobDone {
			s.spanEvent(run, obs.SpanEvent{
				TMs: s.clock.Now().UnixMilli(), Event: obs.FleetResultSubmitted,
				Key: req.Key, Worker: req.Worker, Attempt: req.Attempt, ExecMs: req.ExecMs,
			}, true)
		}
		recorded, err := run.queue.Complete(req.Key, req.LeaseID, req.Cell)
		if err != nil {
			writeErr(w, &apiError{http.StatusNotFound, err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, ResultResponse{Recorded: recorded})
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		s.Sweep()
		s.mu.Lock()
		resp := StatusResponse{Draining: s.draining}
		runs := make([]*run, 0, len(s.order))
		for _, id := range s.order {
			runs = append(runs, s.runs[id])
		}
		s.mu.Unlock()
		for _, r := range runs {
			pending, leased, done := r.queue.Counts()
			resp.Runs = append(resp.Runs, RunStatus{
				RunID: r.id, Spec: r.spec, Cells: r.cells,
				Pending: pending, Leased: leased, Done: done,
				Complete: done == r.cells,
			})
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/runs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		run := s.getRun(r.PathValue("id"))
		if run == nil {
			writeErr(w, &apiError{http.StatusNotFound, "unknown run " + r.PathValue("id")})
			return
		}
		run.mu.Lock()
		rep, ok := run.reportLocked()
		run.mu.Unlock()
		if !ok {
			_, _, done := run.queue.Counts()
			writeErr(w, &apiError{http.StatusConflict,
				fmt.Sprintf("run incomplete: %d/%d cells", done, run.cells)})
			return
		}
		writeJSON(w, http.StatusOK, rep)
	})
	mux.HandleFunc("GET /v1/runs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		run := s.getRun(r.PathValue("id"))
		if run == nil {
			writeErr(w, &apiError{http.StatusNotFound, "unknown run " + r.PathValue("id")})
			return
		}
		ch, cancel := run.subscribe()
		defer cancel()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		for {
			select {
			case ev, ok := <-ch:
				if !ok {
					return
				}
				if err := enc.Encode(ev); err != nil {
					return
				}
				if flusher != nil {
					flusher.Flush()
				}
				if ev.Type == EventDone {
					return
				}
			case <-r.Context().Done():
				return
			}
		}
	})
	mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, _ *http.Request) {
		s.Drain()
		writeJSON(w, http.StatusOK, map[string]string{"status": "draining"})
	})
	mux.Handle("GET /metrics", s.metrics.reg.Handler())
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
