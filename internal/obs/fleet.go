package obs

import (
	"errors"
	"fmt"
	"sort"
)

// fleet-trace/v1: the cell-lifecycle span model of the scenariod fleet
// (DESIGN.md §15). Where engine-trace/v1 accounts for one protocol run
// round by round, fleet-trace/v1 accounts for one scenariod run cell by
// cell: every lease-lifecycle transition the service observes becomes a
// span event, the events fold into per-cell spans whose attempts carry
// {queued, leased, executing, submitting} leg durations, and a
// Reconcile-style gate (ReconcileFleet) proves the folded spans exactly
// match the canonical report — same zero-tolerance discipline as the
// engine trace's trace-vs-Stats gate. The durable encoding is one span
// event per line, as RecSpan records interleaved with the
// scenario-ledger/v2 stream (so spans survive SIGKILL and rebuild on
// restart alongside the cells).
const FleetTraceVersion = "fleet-trace/v1"

// Span event names. The scenariod queue emits the lease-lifecycle ones
// directly, and they double as the event labels of its lease metrics.
const (
	FleetRunEnqueued        = "run_enqueued"              // run admitted; Cells declares the cell count
	FleetRunResumed         = "run_resumed"               // server restart reloaded the run; open attempts are void
	FleetGranted            = "lease_granted"             // a worker leased the cell (attempt begins)
	FleetResultSubmitted    = "result_submitted"          // a worker delivered a result; ExecMs is its executing leg
	FleetExpiredRequeued    = "lease_expired_requeued"    // lease expired below the attempt cap; cell requeued
	FleetExpiredQuarantined = "lease_expired_quarantined" // lease expired at the cap; cell quarantined as infra
	FleetInfraRequeued      = "infra_requeued"            // infra result below the cap; cell requeued
	FleetCompleted          = "cell_completed"            // terminal result recorded; Outcome carries it
)

// Attempt end states (AttemptSpan.End).
const (
	EndCompleted          = "completed"           // the cell reached its terminal result during this attempt
	EndExpiredRequeued    = "expired_requeued"    // the lease expired; the cell went back to pending
	EndExpiredQuarantined = "expired_quarantined" // the lease expired at the attempt cap
	EndInfraRequeued      = "infra_requeued"      // the attempt reported infra below the cap
	EndAbandoned          = "abandoned"           // a server restart voided the lease (run_resumed)
)

// SpanEvent is one fleet-trace/v1 line: a timestamped cell-lifecycle
// transition. Key is empty on run-level events; Worker/Attempt,
// Outcome, ExecMs and Cells are populated per event type (see the event
// constants).
type SpanEvent struct {
	TMs     int64  `json:"t_ms"`
	Event   string `json:"event"`
	Key     string `json:"key,omitempty"`
	Worker  string `json:"worker,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	ExecMs  int64  `json:"exec_ms,omitempty"`
	Cells   int    `json:"cells,omitempty"`
}

// AttemptSpan is one lease of one cell: the queued leg that preceded
// the grant, the lease interval [GrantMs, EndMs], and — when the worker
// reported back — the executing leg inside it, with the residue
// attributed to submitting (result marshaling, HTTP, queue handoff).
type AttemptSpan struct {
	Attempt  int    `json:"attempt"` // 1-based ordinal within the cell (== grant count so far)
	Worker   string `json:"worker,omitempty"`
	QueuedMs int64  `json:"queued_ms"` // pending wait (incl. backoff) before this grant
	GrantMs  int64  `json:"grant_ms"`
	EndMs    int64  `json:"end_ms,omitempty"`
	End      string `json:"end,omitempty"`
	ExecMs   int64  `json:"exec_ms,omitempty"`   // worker-reported executing leg
	SubmitMs int64  `json:"submit_ms,omitempty"` // lease time minus executing, floored at 0
}

// CellSpan is the folded lifecycle of one cell: every attempt, and the
// terminal outcome once one lands.
type CellSpan struct {
	Key        string        `json:"key"`
	EnqueuedMs int64         `json:"enqueued_ms"`
	Attempts   []AttemptSpan `json:"attempts"`
	Outcome    string        `json:"outcome,omitempty"`
	DoneMs     int64         `json:"done_ms,omitempty"`

	// terminalGen is the resume generation at which the terminal
	// outcome landed: a crash between the completion span and the cell's
	// resume record legitimately re-runs the cell after the next
	// run_resumed, and only then.
	terminalGen int
}

// open returns the cell's open attempt, if any.
func (sp *CellSpan) open() *AttemptSpan {
	if n := len(sp.Attempts); n > 0 && sp.Attempts[n-1].End == "" {
		return &sp.Attempts[n-1]
	}
	return nil
}

// E2EMs is the cell's end-to-end latency: enqueue to terminal result.
// Zero until the cell is terminal.
func (sp *CellSpan) E2EMs() int64 {
	if sp.Outcome == "" {
		return 0
	}
	if d := sp.DoneMs - sp.EnqueuedMs; d > 0 {
		return d
	}
	return 0
}

// FleetTrace is the folded span stream of one run.
type FleetTrace struct {
	Cells   int   // declared cell count (run_enqueued / run_resumed)
	Resumes int   // server restarts observed
	Grants  int   // lease grants across all cells
	StartMs int64 // earliest event
	EndMs   int64 // latest event
	Spans   map[string]*CellSpan
	Keys    []string // cell keys in first-grant order
}

// FleetBuilder folds span events, in stream order, into a FleetTrace.
// Not safe for concurrent use; callers serialize. Observe returns an
// error on any transition the lifecycle state machine forbids — a
// non-nil error means the stream is not a faithful fleet trace.
type FleetBuilder struct {
	ft        FleetTrace
	haveRun   bool
	haveFirst bool
	enqueueMs int64
	ready     map[string]int64 // requeue instants: next queued leg starts here
}

// NewFleetBuilder returns an empty builder.
func NewFleetBuilder() *FleetBuilder {
	return &FleetBuilder{
		ft:    FleetTrace{Spans: map[string]*CellSpan{}},
		ready: map[string]int64{},
	}
}

// Fleet returns the trace folded so far.
func (b *FleetBuilder) Fleet() *FleetTrace { return &b.ft }

// Span returns the folded span of one cell (nil if never granted).
func (b *FleetBuilder) Span(key string) *CellSpan { return b.ft.Spans[key] }

// closeAttempt seals an open attempt with its end state and derives the
// submitting residue for completed attempts.
func closeAttempt(a *AttemptSpan, end string, tMs int64) {
	a.End = end
	a.EndMs = tMs
	if end == EndCompleted && a.ExecMs > 0 {
		if d := (a.EndMs - a.GrantMs) - a.ExecMs; d > 0 {
			a.SubmitMs = d
		}
	}
}

// Observe folds one span event.
func (b *FleetBuilder) Observe(ev SpanEvent) error {
	if !b.haveFirst || ev.TMs < b.ft.StartMs {
		b.ft.StartMs = ev.TMs
		b.haveFirst = true
	}
	if ev.TMs > b.ft.EndMs {
		b.ft.EndMs = ev.TMs
	}
	switch ev.Event {
	case FleetRunEnqueued, FleetRunResumed:
		if ev.Cells > 0 {
			if b.ft.Cells != 0 && b.ft.Cells != ev.Cells {
				return fmt.Errorf("obs: fleet: %s declares %d cells, run already declared %d", ev.Event, ev.Cells, b.ft.Cells)
			}
			b.ft.Cells = ev.Cells
		}
		if ev.Event == FleetRunEnqueued {
			if b.haveRun {
				return errors.New("obs: fleet: duplicate run_enqueued")
			}
			b.haveRun = true
			b.enqueueMs = ev.TMs
		} else {
			b.ft.Resumes++
			// A restart voids every outstanding lease: the queue rebuilt
			// from the ledger has no memory of them, so the next grant
			// (if any) opens a fresh attempt.
			for _, key := range b.ft.Keys {
				sp := b.ft.Spans[key]
				if a := sp.open(); a != nil {
					closeAttempt(a, EndAbandoned, ev.TMs)
					b.ready[key] = ev.TMs
				}
			}
		}
	case FleetGranted:
		sp := b.ft.Spans[ev.Key]
		if sp == nil {
			sp = &CellSpan{Key: ev.Key, EnqueuedMs: b.enqueueMs}
			if !b.haveRun {
				sp.EnqueuedMs = ev.TMs
			}
			b.ft.Spans[ev.Key] = sp
			b.ft.Keys = append(b.ft.Keys, ev.Key)
		}
		if sp.Outcome != "" {
			// A terminal span re-granted is only legal when a crash fell
			// between the completion span and the durable cell record —
			// detectable as a resume after the terminal event.
			if sp.terminalGen >= b.ft.Resumes {
				return fmt.Errorf("obs: fleet: cell %s granted after terminal outcome %q", ev.Key, sp.Outcome)
			}
			sp.Outcome, sp.DoneMs = "", 0
		}
		if sp.open() != nil {
			return fmt.Errorf("obs: fleet: cell %s granted while an attempt is open", ev.Key)
		}
		ready := sp.EnqueuedMs
		if t, ok := b.ready[ev.Key]; ok {
			ready = t
		}
		queued := ev.TMs - ready
		if queued < 0 {
			queued = 0
		}
		sp.Attempts = append(sp.Attempts, AttemptSpan{
			Attempt: len(sp.Attempts) + 1, Worker: ev.Worker,
			QueuedMs: queued, GrantMs: ev.TMs,
		})
		b.ft.Grants++
	case FleetResultSubmitted:
		// Informational: stamp the executing leg onto the submitting
		// worker's open attempt. A result racing its own expired lease
		// (the queue accepts those) has no open attempt — nothing to
		// stamp, and the completion event carries the terminal state.
		if sp := b.ft.Spans[ev.Key]; sp != nil {
			if a := sp.open(); a != nil && (ev.Worker == "" || a.Worker == ev.Worker) {
				a.ExecMs = ev.ExecMs
			}
		}
	case FleetExpiredRequeued, FleetInfraRequeued:
		sp := b.ft.Spans[ev.Key]
		if sp == nil {
			return fmt.Errorf("obs: fleet: %s for never-granted cell %s", ev.Event, ev.Key)
		}
		a := sp.open()
		if a == nil {
			return fmt.Errorf("obs: fleet: %s for cell %s with no open attempt", ev.Event, ev.Key)
		}
		end := EndExpiredRequeued
		if ev.Event == FleetInfraRequeued {
			end = EndInfraRequeued
		}
		closeAttempt(a, end, ev.TMs)
		b.ready[ev.Key] = ev.TMs
	case FleetExpiredQuarantined:
		sp := b.ft.Spans[ev.Key]
		if sp == nil {
			return fmt.Errorf("obs: fleet: quarantine for never-granted cell %s", ev.Key)
		}
		a := sp.open()
		if a == nil {
			return fmt.Errorf("obs: fleet: quarantine for cell %s with no open attempt", ev.Key)
		}
		if ev.Outcome == "" {
			return fmt.Errorf("obs: fleet: quarantine for cell %s carries no outcome", ev.Key)
		}
		closeAttempt(a, EndExpiredQuarantined, ev.TMs)
		sp.Outcome, sp.DoneMs, sp.terminalGen = ev.Outcome, ev.TMs, b.ft.Resumes
	case FleetCompleted:
		sp := b.ft.Spans[ev.Key]
		if sp == nil {
			return fmt.Errorf("obs: fleet: completion for never-granted cell %s", ev.Key)
		}
		if sp.Outcome != "" {
			return fmt.Errorf("obs: fleet: duplicate terminal event for cell %s", ev.Key)
		}
		if ev.Outcome == "" {
			return fmt.Errorf("obs: fleet: completion for cell %s carries no outcome", ev.Key)
		}
		// A stale-but-accepted result can complete a cell that is
		// pending (no open attempt) or leased by a successor; either
		// way the open attempt, if any, ends here.
		if a := sp.open(); a != nil {
			closeAttempt(a, EndCompleted, ev.TMs)
		}
		sp.Outcome, sp.DoneMs, sp.terminalGen = ev.Outcome, ev.TMs, b.ft.Resumes
	default:
		return fmt.Errorf("obs: fleet: unknown span event %q", ev.Event)
	}
	return nil
}

// CellOutcome is one row of the canonical report as the fleet gate sees
// it: the cell key and its terminal outcome. (A neutral type: obs does
// not import the scenario package.)
type CellOutcome struct {
	Key     string
	Outcome string
}

// ReconcileFleet checks every fleet-trace/v1 identity between the
// folded spans and the canonical report: one span per report cell, span
// terminal state == report outcome cell by cell, at least one attempt
// per span, every attempt closed, attempts per cell summing to the
// lease-grant total, and the declared cell count matching the report.
// Nil means the span stream is a faithful second account of the run —
// including across SIGKILL-interrupted, resumed runs.
func ReconcileFleet(ft *FleetTrace, cells []CellOutcome) error {
	if ft.Cells != len(cells) {
		return fmt.Errorf("obs: fleet reconcile: run declares %d cells, report has %d", ft.Cells, len(cells))
	}
	if len(ft.Spans) != len(cells) {
		return fmt.Errorf("obs: fleet reconcile: %d cell spans, report has %d cells", len(ft.Spans), len(cells))
	}
	grants := 0
	for _, c := range cells {
		sp := ft.Spans[c.Key]
		if sp == nil {
			return fmt.Errorf("obs: fleet reconcile: report cell %s has no span", c.Key)
		}
		if sp.Outcome != c.Outcome {
			return fmt.Errorf("obs: fleet reconcile: cell %s span outcome %q, report outcome %q", c.Key, sp.Outcome, c.Outcome)
		}
		if len(sp.Attempts) == 0 {
			return fmt.Errorf("obs: fleet reconcile: cell %s has no attempts", c.Key)
		}
		for _, a := range sp.Attempts {
			if a.End == "" {
				return fmt.Errorf("obs: fleet reconcile: cell %s attempt %d never closed", c.Key, a.Attempt)
			}
		}
		grants += len(sp.Attempts)
	}
	if grants != ft.Grants {
		return fmt.Errorf("obs: fleet reconcile: %d attempts across spans, %d lease grants observed", grants, ft.Grants)
	}
	return nil
}

// DurationStats summarizes a leg-duration population (milliseconds).
type DurationStats struct {
	Count  int
	MinMs  int64
	MaxMs  int64
	MeanMs float64
	P50Ms  int64
	P90Ms  int64
	P99Ms  int64
}

// summarizeMs computes nearest-rank quantiles over ms samples.
func summarizeMs(ms []int64) DurationStats {
	if len(ms) == 0 {
		return DurationStats{}
	}
	sorted := append([]int64(nil), ms...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	sum := int64(0)
	for _, v := range sorted {
		sum += v
	}
	q := func(p float64) int64 {
		i := int(p*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return DurationStats{
		Count: len(sorted), MinMs: sorted[0], MaxMs: sorted[len(sorted)-1],
		MeanMs: float64(sum) / float64(len(sorted)),
		P50Ms:  q(0.50), P90Ms: q(0.90), P99Ms: q(0.99),
	}
}

// WorkerUtil is one worker's share of the run: attempts held, lease
// time accumulated, and that time as a fraction of the run's wall
// clock.
type WorkerUtil struct {
	Worker      string
	Attempts    int
	BusyMs      int64
	Utilization float64
}

// FleetSummary is the throughput accounting of one run, derived
// entirely from spans (not wall-clock sampling).
type FleetSummary struct {
	Cells       int // terminal cells
	Attempts    int
	Requeues    int // expired + infra requeues
	Quarantines int
	Abandoned   int // attempts voided by restarts
	Resumes     int
	Outcomes    map[string]int
	WallMs      int64
	CellsPerSec float64
	QueueWait   DurationStats // per attempt
	Exec        DurationStats // per attempt with a reported executing leg
	EndToEnd    DurationStats // per terminal cell: enqueue → terminal
	Workers     []WorkerUtil  // sorted by name
}

// Summarize folds a fleet trace into its throughput accounting.
func Summarize(ft *FleetTrace) FleetSummary {
	s := FleetSummary{Outcomes: map[string]int{}, Resumes: ft.Resumes}
	var queued, exec, e2e []int64
	busy := map[string]*WorkerUtil{}
	for _, key := range ft.Keys {
		sp := ft.Spans[key]
		for _, a := range sp.Attempts {
			s.Attempts++
			queued = append(queued, a.QueuedMs)
			if a.ExecMs > 0 {
				exec = append(exec, a.ExecMs)
			}
			switch a.End {
			case EndExpiredRequeued, EndInfraRequeued:
				s.Requeues++
			case EndExpiredQuarantined:
				s.Quarantines++
			case EndAbandoned:
				s.Abandoned++
			}
			if a.Worker != "" {
				w := busy[a.Worker]
				if w == nil {
					w = &WorkerUtil{Worker: a.Worker}
					busy[a.Worker] = w
				}
				w.Attempts++
				if a.EndMs > a.GrantMs {
					w.BusyMs += a.EndMs - a.GrantMs
				}
			}
		}
		if sp.Outcome != "" {
			s.Cells++
			s.Outcomes[sp.Outcome]++
			e2e = append(e2e, sp.E2EMs())
		}
	}
	s.WallMs = ft.EndMs - ft.StartMs
	if s.WallMs > 0 {
		s.CellsPerSec = float64(s.Cells) / (float64(s.WallMs) / 1000)
	}
	s.QueueWait, s.Exec, s.EndToEnd = summarizeMs(queued), summarizeMs(exec), summarizeMs(e2e)
	for _, w := range busy {
		if s.WallMs > 0 {
			w.Utilization = float64(w.BusyMs) / float64(s.WallMs)
		}
		s.Workers = append(s.Workers, *w)
	}
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].Worker < s.Workers[j].Worker })
	return s
}

// CriticalPath ranks the run's terminal cells by completion instant,
// latest first (ties break toward the higher end-to-end latency, then
// the key, so the ranking is deterministic): the head of the list is
// the cell that gated the run's wall clock, and its attempt timeline is
// the critical path.
func CriticalPath(ft *FleetTrace, k int) []*CellSpan {
	var cells []*CellSpan
	for _, key := range ft.Keys {
		if sp := ft.Spans[key]; sp.Outcome != "" {
			cells = append(cells, sp)
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].DoneMs != cells[j].DoneMs {
			return cells[i].DoneMs > cells[j].DoneMs
		}
		if a, b := cells[i].E2EMs(), cells[j].E2EMs(); a != b {
			return a > b
		}
		return cells[i].Key < cells[j].Key
	})
	if k > 0 && k < len(cells) {
		cells = cells[:k]
	}
	return cells
}
