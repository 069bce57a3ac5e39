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

// CachedLeg is a cacheable oracle-leg execution: everything classify
// needs from the oracle side of a cell. The oracle leg is a pure
// function of (family, n, seed, protocol, bandwidth, faulty) — it always
// runs the sequential scalar engine — which is what makes it
// content-addressable across engine configurations and across runs.
type CachedLeg struct {
	Output string     `json:"output"`
	Stats  core.Stats `json:"stats"`
	Edges  int        `json:"edges"`
}

// LegCache is the oracle-leg cache hook of RunCell. Implementations
// must verify integrity on read (a corrupted entry degrades to a miss
// and a recompute — never to a wrong oracle); scenariod's
// content-addressed cache is the standing implementation.
type LegCache interface {
	GetOracle(c Cell, faulty bool) (CachedLeg, bool)
	PutOracle(c Cell, faulty bool, leg CachedLeg)
}

// CellOptions carries the per-cell slice of RunOptions for the
// single-cell execution path (the scenariod worker). The zero value
// runs both legs guarded, without deadline, retries, or cache.
type CellOptions struct {
	Faults          fault.Spec
	Timeout         time.Duration
	Retries         int
	RetryBackoff    time.Duration
	RetryBackoffCap time.Duration
	Sleep           func(time.Duration)
	Cache           LegCache
	// TraceDir mirrors RunOptions.TraceDir for the single-cell path:
	// the engine leg (only) is traced into an engine-trace/v1 NDJSON
	// file under the directory.
	TraceDir string
}

// RunCell executes one cell's differential pair exactly as
// RunMatrixOpts would — oracle leg on the sequential scalar engine,
// engine leg under the cell's configuration, panic/timeout guards,
// quarantine retries with backoff, the adversary on the engine leg
// only — and classifies the outcome. With a LegCache, the
// oracle leg is served from the cache when possible (its wall time is
// then recorded as 0) and stored after a successful miss. Because every
// leg is deterministic in the cell coordinates, the resulting
// CellResult is identical to the one a full matrix run would produce,
// timings aside — the property the scenariod chaos tests lean on.
func RunCell(c Cell, opt CellOptions) CellResult {
	faulty := opt.Faults.Active()
	var o legOut
	cached := false
	if opt.Cache != nil {
		if leg, ok := opt.Cache.GetOracle(c, faulty); ok {
			o = legOut{res: &LegResult{Output: leg.Output, Stats: leg.Stats}, edges: leg.Edges, attempts: 1}
			cached = true
		}
	}
	if !cached {
		o = runLegRetries(c, oracleLeg(faulty), opt)
		if opt.Cache != nil && o.err == nil && o.res != nil {
			opt.Cache.PutOracle(c, faulty, CachedLeg{Output: o.res.Output, Stats: o.res.Stats, Edges: o.edges})
		}
	}

	engineLeg, closeSink := engineLegOf(opt.Faults, opt.TraceDir)
	defer closeSink()
	e := runLegRetries(c, engineLeg, opt)
	return classify(c, o, e, faulty)
}

// engineLegOf is the engine side of every cell of a run, before runLeg
// fills in the cell's configuration: the run's adversary and, with a
// trace directory, a DirSink archiving one trace per engine run. The
// returned func closes the archive; call it once the legs are done.
func engineLegOf(faults fault.Spec, traceDir string) (Leg, func()) {
	leg := Leg{Faulty: faults.Active(), Env: core.Env{Faults: faults.Factory()}}
	if traceDir == "" {
		return leg, func() {}
	}
	ds := obs.NewDirSink(traceDir)
	leg.Env.Sink = ds.Factory()
	return leg, func() { ds.Close() }
}

// runLegRetries is the single-cell mirror of runWave's quarantine loop:
// infra failures (panic, timeout) retry up to opt.Retries times with
// the capped-backoff pause; protocol errors never retry — they are
// deterministic by the replay guarantee.
func runLegRetries(c Cell, leg Leg, opt CellOptions) legOut {
	out := runLegGuarded(c, leg, opt.Timeout)
	sleep := opt.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	for attempt := 1; attempt <= opt.Retries && out.infra; attempt++ {
		if d := Backoff(opt.RetryBackoff, opt.RetryBackoffCap, attempt, c.Seed, cellKey(c)); d > 0 {
			sleep(d)
		}
		r := runLegGuarded(c, leg, opt.Timeout)
		r.attempts = attempt + 1
		out = r
	}
	return out
}
