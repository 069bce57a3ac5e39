package scenariod

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/scenario"
)

// maxLeaseErrors bounds consecutive failed lease calls before a worker
// gives up on the server.
const maxLeaseErrors = 25

// Worker is one shard of a scenariod fleet: it leases cells, runs each
// differential pair once through scenario.RunCell (with graphs from the
// shared graph cache when configured), heartbeats while computing, and
// submits results. Several worker processes pointed at one server
// shard a matrix between them; killing any of them costs only its
// currently leased cells, which the server requeues at the next sweep.
// The queue's requeue is the fleet's only retry: an infra result goes
// back to the queue, which leases the cell again after its backoff.
type Worker struct {
	Client *Client
	Name   string
	// Cache, if non-nil, serves generated graphs from disk (shared
	// across worker processes); both legs of every cell still run.
	Cache *Cache
	// CellTimeout is the per-leg deadline (scenario
	// CellOptions.Timeout); a timed-out leg makes the cell infra.
	CellTimeout time.Duration
	// TraceDir, when non-empty, archives an engine-trace/v1 NDJSON
	// trace per engine-leg run under the directory (scenario
	// CellOptions.TraceDir; files are named by cell seed, so a shared
	// directory across workers stays collision-free).
	TraceDir string
	// PollEvery paces lease polls when the queue is empty; default 200ms.
	PollEvery time.Duration
	// Logf sinks progress lines; nil = silent.
	Logf func(format string, args ...any)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Run leases and executes cells until the server drains, ctx is
// cancelled, or the server stays unreachable for maxLeaseErrors polls.
func (w *Worker) Run(ctx context.Context) error {
	poll := w.PollEvery
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	errs := 0
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		resp, err := w.Client.Lease(w.Name)
		if err != nil {
			errs++
			if errs >= maxLeaseErrors {
				return fmt.Errorf("scenariod: worker %s: server unreachable: %w", w.Name, err)
			}
			w.sleep(ctx, poll)
			continue
		}
		errs = 0
		switch resp.Status {
		case LeaseDrain:
			w.logf("worker %s: server draining, exiting", w.Name)
			return nil
		case LeaseEmpty:
			w.sleep(ctx, poll)
		case LeaseJob:
			w.runJob(ctx, *resp.Job)
		default:
			return fmt.Errorf("scenariod: worker %s: unknown lease status %q", w.Name, resp.Status)
		}
	}
}

func (w *Worker) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// runJob executes one granted cell: rebuild the cell from its
// serialized coordinates, heartbeat in the background while both legs
// run, submit the result. A malformed grant (names this worker's binary
// does not know) is reported back as an infra result rather than left
// to expire — the server quarantines it after MaxAttempts grants.
func (w *Worker) runJob(ctx context.Context, g JobGrant) {
	start := time.Now()
	res := w.execute(ctx, g)
	// Floor at 1ms: the span model reads ExecMs > 0 as "this attempt
	// ran", and a sub-millisecond cell did run.
	execMs := max(time.Since(start).Milliseconds(), 1)
	if _, err := w.Client.Result(ResultRequest{
		RunID: g.RunID, Key: g.Key, LeaseID: g.LeaseID,
		Worker: w.Name, Attempt: g.Attempt, ExecMs: execMs, Cell: res,
	}); err != nil {
		w.logf("worker %s: result %s: %v", w.Name, g.Key, err)
		return
	}
	w.logf("worker %s: %s/%d/%s/%s -> %s", w.Name, g.Family, g.N, g.Engine, g.Protocol, res.Outcome)
}

func (w *Worker) execute(ctx context.Context, g JobGrant) scenario.CellResult {
	infra := func(msg string) scenario.CellResult {
		return scenario.CellResult{
			Family: g.Family, N: g.N, Engine: g.Engine, Protocol: g.Protocol, Seed: g.Seed,
			Outcome: scenario.OutcomeInfra, Error: msg,
		}
	}
	cell, err := scenario.CellFromNames(g.Family, g.N, g.Engine, g.Protocol, g.Seed)
	if err != nil {
		return infra(err.Error())
	}
	spec, err := fault.ParseSpec(g.Faults)
	if err != nil {
		return infra(err.Error())
	}

	// Heartbeat until the cell finishes. A lost lease stops the
	// heartbeat but not the computation: the result is deterministic
	// and the server accepts it for any still-unfinished job.
	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		every := time.Duration(g.HeartbeatMs) * time.Millisecond
		if every <= 0 {
			every = 5 * time.Second
		}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if err := w.Client.Heartbeat(g.RunID, g.Key, g.LeaseID); err != nil {
					w.logf("worker %s: heartbeat %s: %v", w.Name, g.Key, err)
					return
				}
			}
		}
	}()

	opt := scenario.CellOptions{Faults: spec, Timeout: w.CellTimeout, TraceDir: w.TraceDir}
	if w.Cache != nil {
		cell.Family.Gen = w.Cache.CachedGen(cell.Family.Name, cell.Family.Gen)
	}
	res := scenario.RunCell(cell, opt)
	stopHB()
	<-hbDone
	return res
}
