package scenario

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
)

// cellKey identifies a cell across runs: full coordinates plus the
// derived seed (which already folds in the base seed).
func cellKey(c Cell) string {
	return fmt.Sprintf("%s|%d|%s|%s|%d", c.Family.Name, c.N, c.Engine.Name, c.Protocol.Name, c.Seed)
}

// Key is the cross-run identity of a cell: it is the ledger key and the
// scenariod job key.
func (c Cell) Key() string { return cellKey(c) }

// CellFromNames reconstructs a matrix cell from its serialized
// coordinates — the inverse of the decomposition the scenariod server
// performs when it turns a submitted matrix into durable jobs. The
// names resolve against the standing family/engine/protocol sets, so a
// worker process rebuilds exactly the cell the server expanded.
func CellFromNames(family string, n int, engine, protocol string, seed int64) (Cell, error) {
	f, ok := FamilyByName(family)
	if !ok {
		return Cell{}, fmt.Errorf("scenario: unknown family %q", family)
	}
	e, ok := EngineByName(engine)
	if !ok {
		return Cell{}, fmt.Errorf("scenario: unknown engine config %q", engine)
	}
	p, ok := ProtocolByName(protocol)
	if !ok {
		return Cell{}, fmt.Errorf("scenario: unknown protocol %q", protocol)
	}
	return Cell{Family: f, N: n, Engine: e, Protocol: p, Seed: seed}, nil
}

// CellOptions are the options every cell of a run executes under: the
// matrix runner (RunOptions embeds them) and the scenariod worker pass
// them to the same per-cell function. The zero value runs both legs
// guarded, on a clean channel, without deadline, retries or trace.
type CellOptions struct {
	// Faults is the adversary. When active, every cell runs with
	// Leg.Faulty set on both legs (hardened protocol variants,
	// fault-stable outputs) and the plan's factory goes into the engine
	// leg's Env only; the oracle leg stays clean and defines the
	// expected outputs.
	Faults fault.Spec
	// Timeout is the per-leg deadline; 0 disables it. A timed-out leg's
	// goroutine is abandoned (the engine has no preemption), so timeouts
	// classify the cell as infra rather than waiting forever.
	Timeout time.Duration
	// Retries is how many times an infra-failed leg (panic, timeout) is
	// re-run, at once, in the same shard, before the cell is recorded
	// as infra. A timed-out leg's retry so runs under full shard load,
	// beside its abandoned first attempt. scenariod workers leave it 0:
	// on a fleet, the queue's requeue is the retry.
	Retries int
	// TraceDir, when non-empty, archives an engine-trace/v1 NDJSON file
	// per engine-leg run under the directory (obs.DirSink naming:
	// trace-s<seed>.ndjson). Only the engine legs are traced — the
	// oracle legs stay untraced, exactly as they stay clean under
	// faults — and because tracing cannot change Outputs or Stats
	// (core's traced-vs-untraced invariant), a traced cell classifies
	// identically to an untraced one.
	TraceDir string
}

// RunCell executes one cell's differential pair — oracle leg on the
// sequential scalar engine, engine leg under the cell's configuration,
// panic/timeout guards, retries, the adversary on the engine leg only —
// and classifies the outcome. It is the per-cell
// function RunMatrixOpts runs for every cell, so a cell run alone
// produces the CellResult a full matrix run records, timings aside —
// the property the scenariod chaos tests lean on. A trace archive that
// fails to close leaves its trace missing; the CellResult does not
// report it.
func RunCell(c Cell, opt CellOptions) CellResult {
	engineLeg, closeSink := engineLegOf(opt.Faults, opt.TraceDir)
	defer closeSink()
	return runCell(c, opt, engineLeg)
}

// runCell is RunCell with the engine leg built once per run by the
// caller, so a matrix run shares one trace archive across its cells.
func runCell(c Cell, opt CellOptions, engineLeg Leg) CellResult {
	faulty := opt.Faults.Active()
	o := runLegRetries(c, oracleLeg(faulty), opt)
	e := runLegRetries(c, engineLeg, opt)
	return classify(c, o, e, faulty)
}

// engineLegOf is the engine side of every cell of a run, before runLeg
// fills in the cell's configuration: the run's adversary and, with a
// trace directory, a DirSink archiving one trace per engine run. The
// returned func closes the archive and reports its first error; call it
// once the legs are done.
func engineLegOf(faults fault.Spec, traceDir string) (Leg, func() error) {
	leg := Leg{Faulty: faults.Active(), Env: core.Env{Faults: faults.Factory()}}
	if traceDir == "" {
		return leg, func() error { return nil }
	}
	ds := obs.NewDirSink(traceDir)
	leg.Env.Sink = ds.Factory()
	return leg, ds.Close
}

// runLegRetries is the retry loop of every leg: infra failures (panic,
// timeout) re-run at once, up to opt.Retries times; protocol errors
// never retry — they are deterministic by the replay guarantee and
// belong to the outcome classification.
func runLegRetries(c Cell, leg Leg, opt CellOptions) legOut {
	out := runLegGuarded(c, leg, opt.Timeout)
	for attempt := 1; attempt <= opt.Retries && out.infra; attempt++ {
		r := runLegGuarded(c, leg, opt.Timeout)
		r.attempts = attempt + 1
		out = r
	}
	return out
}
