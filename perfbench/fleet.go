package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/scenariod"
)

// tap wraps scenariod's Server.Handler(). It times every request by
// endpoint, notes each lease grant as its response leaves the server
// and each result as it arrives, and closes ready once every worker has
// asked for a lease.
type tap struct {
	inner http.Handler
	rec   *recorder // nil on untraced passes

	mu         sync.Mutex
	want       int
	polled     map[string]bool
	ready      chan struct{}
	grantAt    map[string]time.Time // by cell key
	grantSpan  map[string]int64     // recorder time of the grant, by cell key
	cellMs     []float64            // grant → result, one per result
	svcMs      []float64            // grant → result minus the worker's ExecMs
	leaseCalls int
	grants     int
	leaseMs    []float64
	resultMs   []float64
}

func newTap(inner http.Handler, workers int, rec *recorder) *tap {
	return &tap{
		inner: inner, rec: rec, want: workers,
		polled: map[string]bool{}, ready: make(chan struct{}),
		grantAt: map[string]time.Time{}, grantSpan: map[string]int64{},
	}
}

// captureWriter keeps a copy of the response body it passes through.
type captureWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.body.Write(p)
	return c.ResponseWriter.Write(p)
}

// readBody reads a request body and puts an unread copy back.
func readBody(r *http.Request) []byte {
	data, _ := io.ReadAll(r.Body) // a short read leaves the server to reject the request
	r.Body = io.NopCloser(bytes.NewReader(data))
	return data
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var spanStart int64
	if t.rec != nil {
		spanStart = t.rec.now()
	}
	switch r.URL.Path {
	case "/v1/lease":
		var req scenariod.LeaseRequest
		_ = json.Unmarshal(readBody(r), &req) // malformed requests are the server's to refuse
		cw := &captureWriter{ResponseWriter: w}
		t.inner.ServeHTTP(cw, r)
		var resp scenariod.LeaseResponse
		_ = json.Unmarshal(cw.body.Bytes(), &resp)
		t.lease(req.Worker, resp, start, spanStart)
	case "/v1/result":
		var req scenariod.ResultRequest
		_ = json.Unmarshal(readBody(r), &req)
		t.inner.ServeHTTP(w, r)
		t.result(req, start, spanStart)
	default:
		t.inner.ServeHTTP(w, r)
		if t.rec != nil {
			t.rec.add(span{Name: "scenariod.handler " + r.URL.Path, Start: spanStart, End: t.rec.now()})
		}
	}
}

func (t *tap) lease(worker string, resp scenariod.LeaseResponse, start time.Time, spanStart int64) {
	end := time.Now()
	var spanEnd int64
	if t.rec != nil {
		spanEnd = t.rec.now()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.leaseCalls++
	t.leaseMs = append(t.leaseMs, float64(end.Sub(start).Nanoseconds())/1e6)
	if worker != "" && !t.polled[worker] {
		t.polled[worker] = true
		if len(t.polled) == t.want {
			close(t.ready)
		}
	}
	if resp.Status != scenariod.LeaseJob || resp.Job == nil {
		return
	}
	t.grants++
	t.grantAt[resp.Job.Key] = end
	if t.rec != nil {
		t.grantSpan[resp.Job.Key] = spanEnd
		t.rec.add(span{Name: "scenariod.lease", Cell: resp.Job.Seed, Start: spanStart, End: spanEnd})
	}
}

func (t *tap) result(req scenariod.ResultRequest, arrived time.Time, spanStart int64) {
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.resultMs = append(t.resultMs, float64(end.Sub(arrived).Nanoseconds())/1e6)
	granted, ok := t.grantAt[req.Key]
	if !ok {
		return
	}
	delete(t.grantAt, req.Key)
	grantSpan := t.grantSpan[req.Key]
	delete(t.grantSpan, req.Key)
	cellMs := float64(arrived.Sub(granted).Nanoseconds()) / 1e6
	t.cellMs = append(t.cellMs, cellMs)
	t.svcMs = append(t.svcMs, cellMs-float64(req.ExecMs))
	if t.rec != nil {
		// The cell span runs from the grant leaving the server to the
		// result arriving; the worker's executing leg is its child, so
		// the span's self time is the service overhead.
		cell := span{Name: "scenariod.cell", Cell: req.Cell.Seed, Start: grantSpan, End: spanStart}
		cell.ID = t.rec.add(cell)
		t.rec.add(span{Name: "worker.exec", Parent: cell.ID, Cell: req.Cell.Seed,
			Start: spanStart - req.ExecMs*1e6, End: spanStart})
		t.rec.add(span{Name: "scenariod.result", Cell: req.Cell.Seed, Start: spanStart, End: t.rec.now()})
	}
}

// workerProc is one fleet worker: this benchmark's own binary, started
// in worker mode. Workers run in their own processes because a cell
// installs its fault plan and trace sink as process-wide engine
// defaults, so two cells may not run in one process at once.
type workerProc struct {
	name   string
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stats  string
	exited chan struct{}
	err    error // valid once exited is closed
}

// workerStats is what a worker process reports when it exits.
type workerStats struct {
	CacheHits   int64     `json:"cache_hits"`
	CacheMisses int64     `json:"cache_misses"`
	Proc        procStats `json:"proc"`
	PeakKiB     int64     `json:"-"`
}

// fleetRig is the fleet workload's set-up: a scenariod server with its
// ledgers in a run directory, listening on a loopback port the kernel
// picks, and worker processes that share one cold cache.
type fleetRig struct {
	srv     *scenariod.Server
	tap     *tap
	hs      *http.Server
	served  chan error
	cancel  context.CancelFunc
	url     string
	workers []*workerProc
	ledger  string
	closed  bool
	stats   []workerStats
	stopErr error
}

// startRig builds the rig in dir and returns once every worker has
// polled the server for work.
func startRig(dir string, nworkers int, traceDir string, rec *recorder) (*fleetRig, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary for the workers: %w", err)
	}
	rig := &fleetRig{ledger: filepath.Join(dir, "ledger")}
	rig.srv, err = scenariod.New(scenariod.Config{
		LedgerDir: rig.ledger,
		Logf:      func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rig.srv.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	rig.url = "http://" + ln.Addr().String()
	rig.tap = newTap(rig.srv.Handler(), nworkers, rec)
	rig.hs = &http.Server{Handler: rig.tap}
	rig.served = make(chan error, 1)
	go func() { rig.served <- rig.hs.Serve(ln) }()
	var ctx context.Context
	ctx, rig.cancel = context.WithCancel(context.Background())
	rig.srv.StartSweeper(ctx, time.Second)

	died := make(chan string, nworkers)
	for i := 0; i < nworkers; i++ {
		wp, err := startWorker(self, fmt.Sprintf("w%d", i), rig.url, dir, traceDir, died)
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.workers = append(rig.workers, wp)
	}
	timeout := time.NewTimer(60 * time.Second)
	defer timeout.Stop()
	select {
	case <-rig.tap.ready:
		return rig, nil
	case name := <-died:
		rig.close()
		return nil, fmt.Errorf("worker %s exited during set-up", name)
	case <-timeout.C:
		rig.close()
		return nil, errors.New("workers did not poll the server within 60s")
	}
}

func startWorker(self, name, url, dir, traceDir string, died chan<- string) (*workerProc, error) {
	wp := &workerProc{name: name, stats: filepath.Join(dir, name+".stats.json"), exited: make(chan struct{})}
	args := []string{"worker", "-server", url, "-name", name, "-cache", filepath.Join(dir, "cache"),
		"-stats", wp.stats}
	if traceDir != "" {
		args = append(args, "-trace-dir", traceDir)
	}
	wp.cmd = exec.Command(self, args...)
	wp.cmd.Stdout = os.Stderr
	wp.cmd.Stderr = os.Stderr
	var err error
	if wp.stdin, err = wp.cmd.StdinPipe(); err != nil {
		return nil, fmt.Errorf("worker %s: %w", name, err)
	}
	if err := wp.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting worker %s: %w", name, err)
	}
	go func() {
		wp.err = wp.cmd.Wait()
		close(wp.exited)
		died <- name
	}()
	return wp, nil
}

// close stops leasing, stops and waits for every worker, shuts the
// listener and flushes the ledgers. It runs once; later calls return
// the first call's outcome.
func (r *fleetRig) close() ([]workerStats, error) {
	if r.closed {
		return r.stats, r.stopErr
	}
	r.closed = true
	r.srv.Drain()
	var errs []error
	for _, wp := range r.workers {
		wp.stdin.Close()
	}
	for _, wp := range r.workers {
		select {
		case <-wp.exited:
		case <-time.After(30 * time.Second):
			wp.cmd.Process.Kill()
			<-wp.exited
			errs = append(errs, fmt.Errorf("worker %s did not exit within 30s of the drain", wp.name))
			continue
		}
		if wp.err != nil {
			errs = append(errs, fmt.Errorf("worker %s: %v", wp.name, wp.err))
			continue
		}
		st, err := readWorkerStats(wp)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		r.stats = append(r.stats, st)
	}
	r.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.hs.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("stopping HTTP server: %w", err))
	}
	if err := <-r.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, fmt.Errorf("HTTP server: %w", err))
	}
	if err := r.srv.Close(); err != nil {
		errs = append(errs, fmt.Errorf("closing ledgers: %w", err))
	}
	if len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, err := range errs {
			msgs[i] = err.Error()
		}
		r.stopErr = errors.New(strings.Join(msgs, "; "))
	}
	return r.stats, r.stopErr
}

func readWorkerStats(wp *workerProc) (workerStats, error) {
	var st workerStats
	data, err := os.ReadFile(wp.stats)
	if err != nil {
		return st, fmt.Errorf("worker %s stats: %w", wp.name, err)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("worker %s stats: %w", wp.name, err)
	}
	if ru, ok := wp.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		st.PeakKiB = ru.Maxrss // KiB on Linux
	}
	return st, nil
}

// fleetRun is a fleet pass's set-up: the matrix slice it submits and the
// rig that serves it.
type fleetRun struct {
	traceDir string
	spec     scenariod.RunSpec
	cells    []scenario.Cell
	rig      *fleetRig
}

// setUpFleet readies a fresh rig — so the shared cache starts cold — in
// the run directory dir. With a recorder, the workers archive engine
// traces and the tap records spans.
func setUpFleet(w workload, seed int64, nworkers int, dir string, rec *recorder) (*fleetRun, error) {
	fr := &fleetRun{spec: w.spec(seed)}
	m, err := fr.spec.Matrix()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	fr.cells = m.Expand()
	if rec != nil {
		fr.traceDir = filepath.Join(dir, "traces")
	}
	if fr.rig, err = startRig(dir, nworkers, fr.traceDir, rec); err != nil {
		return nil, err
	}
	return fr, nil
}

// runFleetPass submits the workload's matrix slice to a fresh rig and
// fetches the canonical report, with one client in a closed loop. A
// traced pass also reads the run's fleet-trace/v1 spans back from its
// ledger and the workers' engine traces.
func runFleetPass(w workload, seed int64, nworkers int, work string, traced bool) (*pass, error) {
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	dir, err := os.MkdirTemp(work, "fleet-")
	if err != nil {
		return nil, fmt.Errorf("creating run directory: %w", err)
	}
	defer os.RemoveAll(dir)
	fr, err := setUpFleet(w, seed, nworkers, dir, rec)
	if err != nil {
		return nil, err
	}
	defer fr.rig.close()
	p := &pass{Cells: len(fr.cells), Spans: rec}

	rig := fr.rig
	client := scenariod.NewClient(rig.url)
	before := readProcStats()
	t1 := time.Now()
	rep, runID, err := submitAndFetch(client, fr.spec, rec)
	if err != nil {
		return nil, err
	}
	p.WallNs = time.Since(t1).Nanoseconds()
	p.Proc = readProcStats().sub(before)
	stats, err := rig.close()
	if err != nil {
		return nil, err
	}
	for _, st := range stats {
		p.Proc = p.Proc.add(st.Proc)
		p.WorkerPeakKiB += st.PeakKiB
	}

	rig.tap.mu.Lock()
	p.CellMs = append([]float64(nil), rig.tap.cellMs...)
	rig.tap.mu.Unlock()
	if len(rep.Cells) != len(fr.cells) {
		return nil, fmt.Errorf("report has %d cells, the matrix %d", len(rep.Cells), len(fr.cells))
	}
	outcomes := map[int64]string{}
	for _, c := range rep.Cells {
		outcomes[c.Seed] = c.Outcome
		if c.Outcome == scenario.OutcomeDiverged || c.Outcome == scenario.OutcomeInfra {
			p.Failures = append(p.Failures, fmt.Sprintf("cell %s n=%d %s %s: %s %s%s",
				c.Family, c.N, c.Engine, c.Protocol, c.Outcome, c.Error, c.Divergence))
		}
	}
	if len(p.CellMs) != len(fr.cells) {
		p.Failures = append(p.Failures, fmt.Sprintf("timed %d grant-to-result cells, the matrix has %d", len(p.CellMs), len(fr.cells)))
	}
	if p.Print, err = reportFingerprint(rep); err != nil {
		return nil, err
	}
	if !traced {
		return p, nil
	}

	led, err := readRunLedger(filepath.Join(rig.ledger, "run-"+runID+".jsonl"), fr.cells, rep)
	if err != nil {
		return nil, err
	}
	p.Failures = append(p.Failures, led.Failures...)
	et, err := readTraces(fr.traceDir, outcomes)
	if err != nil {
		return nil, err
	}
	p.Failures = append(p.Failures, et.Failures...)
	sum := led.Summary
	p.Checks = append(p.Checks, et.summary(), fmt.Sprintf(
		"fleet spans: %d cells, %d attempts, %d lease grants checked by obs.ReconcileFleet against the canonical report",
		sum.Cells, sum.Attempts, led.Grants))
	et.countInto(p.Print.Counts)
	p.Layers = fleetLayers(led, et, rig.tap, stats, nworkers, p.WallNs)
	return p, nil
}

// submitAndFetch is the closed-loop client: submit the run, follow its
// event stream to the end, fetch the canonical report.
func submitAndFetch(client *scenariod.Client, spec scenariod.RunSpec, rec *recorder) (*scenario.Report, string, error) {
	timed := func(name string, f func() error) error {
		if rec == nil {
			return f()
		}
		start := rec.now()
		err := f()
		rec.add(span{Name: name, Start: start, End: rec.now()})
		return err
	}
	var sub *scenariod.SubmitResponse
	if err := timed("client.submit", func() (err error) { sub, err = client.Submit(spec); return err }); err != nil {
		return nil, "", fmt.Errorf("submitting run: %w", err)
	}
	if err := timed("client.stream", func() error {
		return client.Stream(sub.RunID, func(scenariod.StreamEvent) error { return nil })
	}); err != nil {
		return nil, "", fmt.Errorf("streaming run %s: %w", sub.RunID, err)
	}
	var rep *scenario.Report
	if err := timed("client.report", func() (err error) { rep, err = client.Report(sub.RunID); return err }); err != nil {
		return nil, "", fmt.Errorf("fetching report of run %s: %w", sub.RunID, err)
	}
	return rep, sub.RunID, nil
}

// runLedger is what the benchmark reads back from a fleet run's ledger.
type runLedger struct {
	Bytes    int64
	Grants   int
	Summary  obs.FleetSummary
	Cells    map[string]scenario.CellResult // as the workers submitted them, timings included
	Failures []string
}

// readRunLedger folds the ledger's fleet-trace/v1 spans with
// obs.FleetBuilder, summarises them, and gates them with
// obs.ReconcileFleet against the canonical report.
func readRunLedger(path string, cells []scenario.Cell, rep *scenario.Report) (*runLedger, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("run ledger: %w", err)
	}
	_, recs, err := scenario.LoadLedger(path)
	if err != nil {
		return nil, err
	}
	led := &runLedger{Bytes: info.Size(), Cells: map[string]scenario.CellResult{}}
	b := obs.NewFleetBuilder()
	for _, rec := range recs {
		switch rec.T {
		case scenario.RecSpan:
			if err := b.Observe(obs.SpanEvent{
				TMs: rec.TMs, Event: rec.Event, Key: rec.Key, Worker: rec.Worker,
				Attempt: rec.Attempt, Outcome: rec.Outcome, ExecMs: rec.ExecMs, Cells: rec.Cells,
			}); err != nil {
				led.Failures = append(led.Failures, fmt.Sprintf("fleet span stream: %v", err))
			}
		case scenario.RecCell:
			if rec.Cell != nil {
				led.Cells[rec.Key] = *rec.Cell
			}
		}
	}
	outcomes := make([]obs.CellOutcome, len(cells))
	for i, c := range cells {
		outcomes[i] = obs.CellOutcome{Key: c.Key(), Outcome: rep.Cells[i].Outcome}
	}
	ft := b.Fleet()
	if err := obs.ReconcileFleet(ft, outcomes); err != nil {
		led.Failures = append(led.Failures, err.Error())
	}
	led.Summary = obs.Summarize(ft)
	led.Grants = ft.Grants
	return led, nil
}

// fleetLayers computes a fleet traced pass's per-layer metrics. Legs run
// inside the workers, so leg times come from the cell records the
// workers submitted (oracle_ns, engine_ns; graph generation is not
// part of them), and the service metrics from the tap and the ledger.
func fleetLayers(led *runLedger, et *engineTotals, tp *tap, stats []workerStats, nworkers int, wallNs int64) map[string]float64 {
	lt := legTimes{ModuleLegNs: map[string]int64{}, ModuleLocalNs: map[string]int64{}, ModuleLoopNs: map[string]int64{}}
	for _, c := range led.Cells {
		module := moduleOf[c.Protocol]
		lt.OracleNs += c.OracleNs
		lt.EngineNs += c.EngineNs
		lt.ModuleLegNs[module] += c.OracleNs + c.EngineNs
		loop := et.CellLoopNs[c.Seed]
		lt.ModuleLoopNs[module] += loop
		lt.ModuleLocalNs[module] += c.EngineNs - loop
	}
	l := layerValues(lt, et, nworkers, wallNs)

	sum := led.Summary
	l["scenariod.queue_wait_ms_p50"] = float64(sum.QueueWait.P50Ms)
	l["scenariod.exec_ms_p50"] = float64(sum.Exec.P50Ms)
	l["scenariod.requeues"] = float64(sum.Requeues)
	var util float64
	for _, wu := range sum.Workers {
		util += wu.Utilization
	}
	if len(sum.Workers) > 0 {
		l["scenariod.worker_util"] = util / float64(len(sum.Workers))
	}
	if sum.Cells > 0 {
		l["scenariod.ledger_kb_per_cell"] = float64(led.Bytes) / 1024 / float64(sum.Cells)
	}

	tp.mu.Lock()
	defer tp.mu.Unlock()
	var svc float64
	for _, v := range tp.svcMs {
		svc += v
	}
	if len(tp.svcMs) > 0 {
		l["scenariod.svc_ms_per_cell"] = svc / float64(len(tp.svcMs))
	}
	l["scenariod.lease_ms_p50"] = median(tp.leaseMs)
	l["scenariod.result_ms_p50"] = median(tp.resultMs)
	if tp.leaseCalls > 0 {
		l["scenariod.lease_hit_ratio"] = float64(tp.grants) / float64(tp.leaseCalls)
	}
	var hits, lookups int64
	for _, st := range stats {
		hits += st.CacheHits
		lookups += st.CacheHits + st.CacheMisses
	}
	if lookups > 0 {
		l["scenariod.cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
	return l
}
