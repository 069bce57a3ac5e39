package scenario

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// RunOptions extends the matrix run with the resilience knobs of the
// fault-injection harness. The zero value reproduces RunMatrix exactly.
type RunOptions struct {
	// Shards is the worker-pool width over cells; 0 = GOMAXPROCS.
	Shards int
	// Timeout is the per-leg deadline; 0 disables it. A timed-out leg's
	// goroutine is abandoned (the engine has no preemption), so timeouts
	// classify the cell as infra rather than waiting forever.
	Timeout time.Duration
	// Retries is how many times an infra-failed leg (panic, timeout) is
	// re-run in quarantine — sequentially, outside the parallel wave —
	// before the cell is recorded as infra.
	Retries int
	// RetryBackoff is the base pause before each quarantine retry:
	// attempt a sleeps Backoff(RetryBackoff, RetryBackoffCap, a, cell
	// seed, cell key) — capped exponential with deterministic jitter —
	// so retries of a transiently overloaded box spread out instead of
	// hammering it immediately. 0 keeps the historical immediate retry.
	RetryBackoff time.Duration
	// RetryBackoffCap clamps the retry backoff; 0 = 32·RetryBackoff.
	RetryBackoffCap time.Duration
	// Sleep is the pause hook used by the retry backoff; nil =
	// time.Sleep. Tests inject a recorder so backoff schedules are
	// asserted without real sleeps.
	Sleep func(time.Duration)
	// Faults is the adversary. When active, every cell runs with
	// Leg.Faulty set on both legs (hardened protocol variants,
	// fault-stable outputs) and the plan's factory goes into the engine
	// legs' Env only; the oracle legs stay clean and define the
	// expected outputs.
	Faults fault.Spec
	// Ledger is the path of an append-only JSONL run ledger. When set,
	// completed cells are recorded as each engine pass finishes, and a
	// re-run with the same matrix and options resumes: ledgered cells
	// are not re-executed and their recorded results (timings included)
	// flow into the final report unchanged, so an interrupted run
	// completes to a report identical to an uninterrupted one.
	Ledger string
	// TraceDir, when non-empty, archives an engine-trace/v1 NDJSON file
	// per engine-leg run under the directory (obs.DirSink naming:
	// trace-s<seed>.ndjson). Only the engine legs are traced — the
	// oracle legs stay untraced, exactly as they stay clean under
	// faults — and because tracing cannot change Outputs or Stats
	// (core's traced-vs-untraced invariant), a traced matrix classifies
	// identically to an untraced one.
	TraceDir string
}

// RunMatrixOpts is the resilient matrix runner: guarded legs (panic
// capture + optional deadline), quarantine retries, fault injection, and
// ledger resume on top of RunMatrix's differential pass structure. The
// only error source is the ledger (I/O, or a ledger written by a
// different run).
func RunMatrixOpts(m *Matrix, opt RunOptions) (*Report, error) {
	cells := m.Expand()
	shards := core.ResolveParallelism(opt.Shards)
	faulty := opt.Faults.Active()

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
	oracle := make([]legOut, len(cells))
	engine := make([]legOut, len(cells))

	// Pass 1: the sequential scalar oracle leg of every pending cell,
	// always on a clean channel.
	runWave(shards, pending, opt, cells, oracleLeg(faulty), oracle)

	// Pass 2..k: engine legs, one pass per configuration, carrying the
	// adversary when the run is faulted. Each configuration's cells are
	// classified — and ledgered — as its pass completes, so an
	// interrupted run resumes at engine-pass granularity.
	engineLeg, closeSink := engineLegOf(opt.Faults, opt.TraceDir)
	defer closeSink()
	for _, eng := range m.Engines {
		idx := make([]int, 0, len(pending))
		for _, i := range pending {
			if cells[i].Engine.Name == eng.Name {
				idx = append(idx, i)
			}
		}
		runWave(shards, idx, opt, cells, engineLeg, engine)
		for _, i := range idx {
			results[i] = classify(cells[i], oracle[i], engine[i], faulty)
			if led != nil {
				if err := led.AppendCell(cellKey(cells[i]), results[i]); err != nil {
					return nil, err
				}
			}
		}
	}

	rep := &Report{
		Schema:   ReportSchema,
		Date:     time.Now().Format("20060102"),
		BaseSeed: m.BaseSeed,
		Shards:   shards,
		Cells:    results,
	}
	if faulty {
		rep.Faults = opt.Faults.String()
	}
	rep.Summary = summarize(rep, m)
	rep.Summary.WallNs = time.Since(wallStart).Nanoseconds()
	return rep, nil
}

// runWave executes one pass's legs: a parallel wave over the worker
// pool, then quarantine rounds in which legs that failed on
// infrastructure (panic, timeout) are retried one at a time — isolated,
// so a cell that wedges a worker or trips a panic cannot take wave
// neighbors down with it. Protocol-level errors are never retried: they
// are deterministic by the replay guarantee and belong to the outcome
// classification, not the retry loop.
func runWave(shards int, idx []int, opt RunOptions, cells []Cell, leg Leg, out []legOut) {
	if len(idx) == 0 {
		return
	}
	core.ParallelFor(shards, len(idx), func(k int) {
		out[idx[k]] = runLegGuarded(cells[idx[k]], leg, opt.Timeout)
	})
	sleep := opt.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	for attempt := 1; attempt <= opt.Retries; attempt++ {
		for _, i := range idx {
			if !out[i].infra {
				continue
			}
			if d := Backoff(opt.RetryBackoff, opt.RetryBackoffCap, attempt, cells[i].Seed, cellKey(cells[i])); d > 0 {
				sleep(d)
			}
			r := runLegGuarded(cells[i], leg, opt.Timeout)
			r.attempts = attempt + 1
			out[i] = r
		}
	}
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
