package scenario

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// RunOptions is a matrix run: the options every cell runs under, the
// worker-pool width and the resume ledger. The zero value runs every
// cell guarded, on a clean channel, GOMAXPROCS cells at a time, without
// deadline, retries or ledger.
type RunOptions struct {
	CellOptions
	// Shards is the worker-pool width over cells; 0 = GOMAXPROCS.
	Shards int
	// Ledger is the path of an append-only JSONL run ledger. When set,
	// each cell is recorded as it completes, and a re-run with the same
	// matrix and options resumes: ledgered cells are not re-executed and
	// their recorded results (timings included) flow into the final
	// report unchanged, so an interrupted run completes to a report
	// identical to an uninterrupted one.
	Ledger string
}

// RunMatrixOpts runs each cell of the matrix that the ledger has not
// already recorded on a core.ParallelFor pool of Shards workers. Every
// cell goes through runCell, the per-cell function RunCell runs, and is
// ledgered as soon as it completes; the report lists the cells in
// matrix-expansion order. The error sources are the ledger (I/O, or a
// ledger written by a different run) and the trace archive of
// opt.TraceDir. Once an append fails, the shards start no further cell,
// and the error is returned when the cells already running have
// finished. A trace that cannot be written fails the run once its cells
// are done.
func RunMatrixOpts(m *Matrix, opt RunOptions) (*Report, error) {
	cells := m.Expand()
	shards := core.ResolveParallelism(opt.Shards)

	led, prior, err := openLedger(opt.Ledger, m, opt)
	if err != nil {
		return nil, err
	}
	if led != nil {
		defer led.Close()
	}

	results := make([]CellResult, len(cells))
	pending := make([]int, 0, len(cells))
	for i, c := range cells {
		if cr, ok := prior[cellKey(c)]; ok {
			results[i] = cr
		} else {
			pending = append(pending, i)
		}
	}

	wallStart := time.Now()
	engineLeg, closeSink := engineLegOf(opt.Faults, opt.TraceDir)
	appendErrs := make([]error, len(pending))
	var appendFailed atomic.Bool
	core.ParallelFor(shards, len(pending), func(k int) {
		if appendFailed.Load() {
			return
		}
		i := pending[k]
		results[i] = runCell(cells[i], opt.CellOptions, engineLeg, nil)
		if led != nil {
			if appendErrs[k] = led.AppendCell(cellKey(cells[i]), results[i]); appendErrs[k] != nil {
				appendFailed.Store(true)
			}
		}
	})
	closeErr := closeSink()
	for _, err := range appendErrs {
		if err != nil {
			return nil, err
		}
	}
	if closeErr != nil {
		return nil, fmt.Errorf("scenario: trace archive: %w", closeErr)
	}

	rep := BuildReport(m, results, opt.Faults.String())
	rep.Shards = shards
	rep.Summary.WallNs = time.Since(wallStart).Nanoseconds()
	return rep, nil
}

// runLegGuarded wraps runLeg in a dedicated goroutine with panic capture
// and an optional deadline. Panics inside engine node bodies are already
// converted to node errors by core (see core.Proc); this guard
// additionally catches panics in the adapter code and in local reference
// computations, and bounds the leg's wall time. A timed-out goroutine is
// abandoned, not cancelled — its writes land in its own legOut, which is
// discarded. A leg that finishes after its deadline is timed out even if
// its result is ready when the deadline is observed: select picks at
// random between ready cases, so without that check an overrun leg would
// pass or fail by chance.
func runLegGuarded(c Cell, leg Leg, timeout time.Duration) legOut {
	timedOut := func() legOut {
		return legOut{err: fmt.Errorf("leg timed out after %v", timeout), infra: true, attempts: 1}
	}
	ch := make(chan legOut, 1)
	start := time.Now()
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- legOut{err: fmt.Errorf("leg panic: %v", r), infra: true, attempts: 1}
			}
		}()
		out := runLeg(c, leg)
		out.attempts = 1
		if timeout > 0 && time.Since(start) > timeout {
			out = timedOut()
		}
		ch <- out
	}()
	if timeout <= 0 {
		return <-ch
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case out := <-ch:
		return out
	case <-t.C:
		return timedOut()
	}
}
