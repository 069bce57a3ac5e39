package core

import "fmt"

// Round-level tracing (DESIGN.md §14). A Sink installed on Config.Sink
// (directly, or through Env.Sink) receives one RoundTrace record per
// engine round, emitted from the engine's sequential delivery pass, plus a RunMeta header and a
// RunFooter carrying the final Stats. The tracer is a second,
// independent auditor of the paper's accounting: summing the records
// reconciles exactly with Stats (obs.Reconcile pins the identities),
// and a nil Sink costs nothing — zero allocations per round, no
// tracing work on the hot path (TestAllocRegressionTrace).
//
// # Wire names
//
// The json tags on Mark, RunMeta, RoundTrace, RunFooter and FaultStats
// (with Stats' untagged field names and Model's text encoding) are the
// field names of the engine-trace/v1 NDJSON stream, written down here
// and nowhere else: obs frames each record with its line type and
// encodes and decodes the record itself (its TestTraceWireFormat pins
// the bytes). A new trace field is one tagged field here.
//
// # Determinism contract
//
// Every RoundTrace field except WallNs and Workers is a pure function
// of (protocol, Config minus Parallelism): records are built during the
// sequential collection/delivery pass in ascending node order, and
// marks stamped by concurrently-stepped nodes are merged in ascending
// node id (stamp order within a node), so traces are bit-identical
// across Parallelism settings. WallNs is wall time (nondeterministic by
// nature; obs keeps it out of the deterministic field set). Workers
// records the per-worker dispatch counts of the round and therefore
// varies with — and documents — the worker width.

// Mark is a phase marker stamped by a protocol via Proc.Annotate: the
// stamping node, the round of the stamp, and a protocol-chosen name.
// Analysis (internal/obs) treats marks as phase boundaries for
// per-phase rounds·bits profiles.
type Mark struct {
	Node  int    `json:"node"`
	Round int    `json:"round"`
	Name  string `json:"name"`
}

// RunMeta describes the run a trace belongs to; it is the header record
// of an engine-trace/v1 stream.
type RunMeta struct {
	N           int   `json:"n"`
	Bandwidth   int   `json:"bandwidth"`
	Model       Model `json:"model"`
	Seed        int64 `json:"seed"`
	Parallelism int   `json:"parallelism"`      // resolved worker count of this run
	Faulty      bool  `json:"faulty,omitempty"` // a fault plan is active
}

// RoundTrace is one record of the round-level trace. The engine reuses
// a single RoundTrace (and its slices) across rounds, so a Sink that
// retains records must copy them (obs.Recorder does).
//
// Reconciliation identities (obs.Reconcile asserts all of them):
//
//	sum(SentBits)               == Stats.TotalBits
//	count(Sends>0||Delivered>0) == Stats.Rounds
//	sum(Span)                   == Stats.Steps
//	max(MaxLinkBits)            == Stats.MaxLinkBits
//	sum(CutBits)                == Stats.CutBits
//	sum(per-round fault deltas) == *Result.Faults (field by field)
type RoundTrace struct {
	Round int `json:"round"` // engine round this record covers
	Span  int `json:"span"`  // rounds covered: always 1, so sum(Span) == Stats.Steps

	Sends         int   `json:"sends"`              // messages collected from senders (a broadcast counts once)
	SentBits      int64 `json:"sent_bits"`          // bits metered as sent (the Stats.TotalBits delta)
	Delivered     int   `json:"delivered"`          // messages that landed in inboxes this round
	DeliveredBits int64 `json:"delivered_bits"`     // bits that landed (per recipient; a broadcast counts per inbox)
	MaxLinkBits   int   `json:"max_link_bits"`      // max bits on one directed link within this record
	CutBits       int64 `json:"cut_bits,omitempty"` // bits crossing Config.CutSide this record

	Active int `json:"active"`           // live nodes stepped at the start of the record
	Halted int `json:"halted,omitempty"` // nodes that halted during the record

	// Faults holds the adversary's intervention deltas for this record
	// (all zero without a plan); summing over records reproduces
	// Result.Faults exactly.
	Faults FaultStats `json:"faults,omitzero"`

	// Workers is the per-worker dispatch count of the record's step
	// fan-out: Workers[g] nodes were stepped by worker g. Deterministic
	// given (live set, worker width) but — deliberately — not across
	// widths; it is how a trace documents its engine configuration.
	Workers []int `json:"workers,omitempty"`

	// Marks are the phase markers stamped during the record, merged in
	// ascending node id, stamp order within a node.
	Marks []Mark `json:"marks,omitempty"`

	// WallNs is the wall time of the record's step+delivery. It is the
	// only nondeterministic field besides Workers; analysis excludes it
	// from every determinism check.
	WallNs int64 `json:"wall_ns"`
}

// RunFooter closes a trace: the run's final Stats, the adversary's
// totals (nil without a plan), and how many adversarially delayed or
// duplicated messages were still in flight when the run halted (their
// bits were metered as sent but never delivered).
type RunFooter struct {
	Stats   Stats       `json:"stats"`
	Faults  *FaultStats `json:"faults,omitempty"`
	Pending int         `json:"pending,omitempty"`
}

// Sink receives the round-level trace of a run. All three methods are
// invoked from the engine's sequential delivery pass — never
// concurrently — in stream order: TraceStart once, TraceRound per
// engine iteration, TraceEnd once on successful completion (a run that
// fails with an error produces a truncated trace with no footer).
// Implementations must copy any RoundTrace they retain; the engine
// reuses the record and its slices.
type Sink interface {
	TraceStart(m RunMeta)
	TraceRound(r *RoundTrace)
	TraceEnd(f *RunFooter)
}

// Annotate stamps a phase marker into the current round's trace record.
// It is a no-op when the run is untraced — zero cost, so protocols may
// annotate unconditionally with static names. Markers from distinct
// nodes merge deterministically (ascending node id); by convention the
// repo's protocols stamp global phase boundaries from node 0 only
// (crash-exempt under every fault plan), so a trace carries one
// boundary per phase.
func (p *Proc) Annotate(name string) {
	if !p.traced {
		return
	}
	p.marks = append(p.marks, Mark{Node: p.id, Round: p.round, Name: name})
}

// Annotatef is Annotate with formatting; the format is evaluated only
// when the run is traced, so dynamic phase names ("phase 3") cost
// nothing on untraced runs.
func (p *Proc) Annotatef(format string, args ...interface{}) {
	if !p.traced {
		return
	}
	p.marks = append(p.marks, Mark{Node: p.id, Round: p.round, Name: fmt.Sprintf(format, args...)})
}

// Traced reports whether this run has a trace sink attached — the guard
// protocols use before assembling expensive annotation payloads.
func (p *Proc) Traced() bool { return p.traced }

// beginTrace resets the scratch record and snapshots the accounting
// the record's deltas are computed against. Called at the top of each
// engine iteration, before crash resolution and stepping (crashes
// counted in step land in this record's fault deltas).
func (e *engine) beginTrace() {
	e.rt.Sends = 0
	e.rt.SentBits = 0
	e.rt.Delivered = 0
	e.rt.DeliveredBits = 0
	e.rt.MaxLinkBits = 0
	e.rt.CutBits = 0
	e.rt.Faults = FaultStats{}
	e.rt.Workers = e.rt.Workers[:0]
	e.rt.Marks = e.rt.Marks[:0]
	e.prevBits = e.stats.TotalBits
	e.prevCut = e.stats.CutBits
	e.prevFaults = e.faults
	e.traceActive = len(e.live)
}

// emitTrace finalizes the scratch record for the round that just
// delivered and hands it to the sink.
func (e *engine) emitTrace(round int, wallNs int64) {
	rt := &e.rt
	rt.Round = round
	rt.Span = 1
	rt.SentBits = e.stats.TotalBits - e.prevBits
	rt.CutBits = e.stats.CutBits - e.prevCut
	rt.Faults = FaultStats{
		Drops:       e.faults.Drops - e.prevFaults.Drops,
		Corruptions: e.faults.Corruptions - e.prevFaults.Corruptions,
		Delays:      e.faults.Delays - e.prevFaults.Delays,
		Duplicates:  e.faults.Duplicates - e.prevFaults.Duplicates,
		Collisions:  e.faults.Collisions - e.prevFaults.Collisions,
		Crashes:     e.faults.Crashes - e.prevFaults.Crashes,
	}
	rt.Active = e.traceActive
	rt.Halted = e.traceActive - len(e.live)
	rt.Workers = dispatchCounts(e.traceActive, e.workers, rt.Workers)
	rt.WallNs = wallNs
	e.sink.TraceRound(rt)
}

// collectMarks sweeps the phase markers stamped by this record's
// stepped nodes into the scratch record, in ascending node id.
func (e *engine) collectMarks() {
	for _, i := range e.stepped {
		p := &e.procs[i]
		if len(p.marks) > 0 {
			e.rt.Marks = append(e.rt.Marks, p.marks...)
			p.marks = p.marks[:0]
		}
	}
}

// dispatchCounts reproduces the engine's chunked fan-out shape: n nodes
// over at most `workers` workers in contiguous chunks of ceil(n/w),
// exactly as workerPool.run and ParallelFor assign them. Appended onto
// buf[:0] so the caller's slice is reused across rounds.
func dispatchCounts(n, workers int, buf []int) []int {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return append(buf, n)
	}
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		buf = append(buf, hi-lo)
	}
	return buf
}
