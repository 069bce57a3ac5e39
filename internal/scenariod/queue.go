// Package scenariod is the scenario matrix as a long-running,
// crash-tolerant service: a job-queue server that decomposes a
// submitted matrix into durable per-cell jobs, leases them to sharded
// worker processes with heartbeats and deadlines, requeues the cells of
// crashed or silent workers, quarantines poison cells after a capped
// number of attempts, caches generated graphs with hash-verified
// reads, and streams incremental per-cell results to clients. Because every cell is deterministic in
// its coordinates (the scenario package's replay guarantee), a run that
// survives any number of worker crashes completes to a report
// byte-identical to an uninterrupted one — the process-level complement
// to the in-protocol message-fault adversary of internal/fault.
// Formats, endpoints, and failure semantics are documented in
// DESIGN.md §12.
package scenariod

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// Job states.
const (
	JobPending = "pending" // waiting for a lease (possibly backoff-gated)
	JobLeased  = "leased"  // held by a worker, deadline armed
	JobDone    = "done"    // result recorded (ok/detected/diverged/infra)
)

// ErrLeaseLost is returned to a heartbeat whose lease has expired or
// been superseded; the worker should stop heartbeating (its result, if
// it still arrives, is accepted as long as the job is unfinished).
var ErrLeaseLost = errors.New("scenariod: lease lost")

// ErrUnknownJob is returned for operations on keys the queue never issued.
var ErrUnknownJob = errors.New("scenariod: unknown job")

// Job is one durable per-cell unit of work.
type Job struct {
	Index int    // position in matrix-expansion order
	Key   string // scenario cell key
	Cell  scenario.Cell

	State     string
	Attempts  int       // lease grants handed out so far
	NotBefore time.Time // backoff gate: not leasable before this instant
	LeaseID   string
	Worker    string
	Deadline  time.Time // lease expiry; heartbeats push it forward

	Result *scenario.CellResult
}

// QueueConfig tunes the lease and retry discipline.
type QueueConfig struct {
	// LeaseTTL is how long a lease lives without a heartbeat; default 15s.
	LeaseTTL time.Duration
	// MaxAttempts caps lease grants per job: a cell whose lease expires
	// (crash, hang) or that reports an infra failure is requeued with
	// backoff until the cap, then quarantined as an infra result — one
	// poison cell can never hang a matrix. Default 3.
	MaxAttempts int
	// BackoffBase/BackoffCap shape the requeue pause: capped exponential
	// with deterministic jitter (scenario.Backoff). Defaults 250ms / 8s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed feeds the backoff jitter.
	Seed int64
}

func (c QueueConfig) withDefaults() QueueConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 250 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 8 * time.Second
	}
	return c
}

// Queue is the durable lease queue over one run's cells. All methods
// are safe for concurrent use; completion callbacks fire outside the
// lock, in completion order.
type Queue struct {
	// emitMu serializes whole transitions (lock → mutate → unlock →
	// deliver callbacks) across goroutines, so onEvent observes
	// transitions in the order they committed even when, say, a sweep's
	// requeue and a lease's re-grant of the same cell race: without it,
	// both could drain their event batches under mu and then deliver
	// them interleaved. Ordered delivery is what lets the server append
	// span events to the ledger in a replayable order. Acquired before
	// mu, never the other way.
	emitMu sync.Mutex

	mu    sync.Mutex
	clock Clock
	cfg   QueueConfig
	jobs  []*Job
	byKey map[string]*Job
	done  int
	seq   int

	// onDone, if set, fires exactly once per job as it completes.
	onDone func(*Job)

	// onEvent, if set, observes every lease-lifecycle transition as its
	// fleet-trace/v1 span event; like onDone it fires outside the lock,
	// in transition order.
	onEvent func(obs.SpanEvent)
	events  []obs.SpanEvent
}

// NewQueue decomposes cells (in matrix-expansion order) into jobs.
func NewQueue(cells []scenario.Cell, cfg QueueConfig, clock Clock) *Queue {
	if clock == nil {
		clock = realClock{}
	}
	q := &Queue{clock: clock, cfg: cfg.withDefaults(), byKey: make(map[string]*Job, len(cells))}
	for i, c := range cells {
		j := &Job{Index: i, Key: c.Key(), Cell: c, State: JobPending}
		q.jobs = append(q.jobs, j)
		q.byKey[j.Key] = j
	}
	return q
}

// SetOnDone installs the completion callback (the server's ledger
// append + stream publish). Must be set before workers start.
func (q *Queue) SetOnDone(fn func(*Job)) { q.onDone = fn }

// SetOnEvent installs the lease-lifecycle observer (the server's
// metrics and span stream). Must be set before workers start.
func (q *Queue) SetOnEvent(fn func(obs.SpanEvent)) { q.onEvent = fn }

// eventLocked queues a transition for delivery after the lock drops,
// stamped with the transition instant. Terminal transitions (the job
// just reached JobDone with a result) carry the outcome.
func (q *Queue) eventLocked(event string, j *Job, now time.Time) {
	if q.onEvent == nil {
		return
	}
	ev := obs.SpanEvent{TMs: now.UnixMilli(), Event: event, Key: j.Key, Worker: j.Worker, Attempt: j.Attempts}
	if j.State == JobDone && j.Result != nil {
		ev.Outcome = j.Result.Outcome
	}
	q.events = append(q.events, ev)
}

// takeEventsLocked drains the pending transition list.
func (q *Queue) takeEventsLocked() []obs.SpanEvent {
	evs := q.events
	q.events = nil
	return evs
}

// emit delivers queued transitions outside the lock.
func (q *Queue) emit(evs []obs.SpanEvent) {
	for _, ev := range evs {
		q.onEvent(ev)
	}
}

// Preload marks a cell completed before any leasing — the ledger-reload
// path after a server restart. It does not fire onDone (the result is
// already durable). Unknown keys are ignored and reported false.
func (q *Queue) Preload(key string, res scenario.CellResult) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.byKey[key]
	if !ok || j.State == JobDone {
		return ok
	}
	res2 := res
	j.Result = &res2
	j.State = JobDone
	q.done++
	return true
}

// Lease grants the lowest-index eligible pending job to worker: state
// pending, backoff gate passed, after expired leases are swept. The
// returned Job is a snapshot.
func (q *Queue) Lease(worker string) (Job, bool) {
	q.emitMu.Lock()
	defer q.emitMu.Unlock()
	var finished []*Job
	q.mu.Lock()
	now := q.clock.Now()
	finished = q.expireLocked(now)
	var grant Job
	ok := false
	for _, j := range q.jobs {
		if j.State != JobPending || j.NotBefore.After(now) {
			continue
		}
		j.State = JobLeased
		j.Attempts++
		j.Worker = worker
		q.seq++
		j.LeaseID = fmt.Sprintf("%s#%d", worker, q.seq)
		j.Deadline = now.Add(q.cfg.LeaseTTL)
		q.eventLocked(obs.FleetGranted, j, now)
		grant, ok = *j, true
		break
	}
	evs := q.takeEventsLocked()
	q.mu.Unlock()
	q.emit(evs)
	q.fire(finished)
	return grant, ok
}

// Heartbeat extends the deadline of a live lease. A heartbeat carrying
// a stale lease ID (the lease expired and the job moved on) gets
// ErrLeaseLost. It emits no event: neither outcome is a lifecycle
// transition (the server counts lost heartbeats itself).
func (q *Queue) Heartbeat(key, leaseID string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.byKey[key]
	if !ok {
		return ErrUnknownJob
	}
	now := q.clock.Now()
	if j.State != JobLeased || j.LeaseID != leaseID || j.Deadline.Before(now) {
		return ErrLeaseLost
	}
	j.Deadline = now.Add(q.cfg.LeaseTTL)
	return nil
}

// Complete records a worker's result. Results are accepted for any
// unfinished job even when the submitting lease has been superseded —
// cell results are deterministic in the cell coordinates, so a slow
// worker racing its own expired lease cannot record a conflicting
// answer, and discarding its finished work would only waste compute.
// Done jobs treat duplicates as idempotent no-ops. An infra-outcome
// result below the attempt cap requeues the job with capped backoff +
// jitter instead of recording — the retry path for transiently
// overloaded workers — and quarantines as infra at the cap. The bool
// reports whether the job reached its final state by this call.
func (q *Queue) Complete(key, leaseID string, res scenario.CellResult) (bool, error) {
	q.emitMu.Lock()
	defer q.emitMu.Unlock()
	var finished []*Job
	recorded := false
	q.mu.Lock()
	j, ok := q.byKey[key]
	if !ok {
		q.mu.Unlock()
		return false, ErrUnknownJob
	}
	now := q.clock.Now()
	switch {
	case j.State == JobDone:
		// idempotent duplicate
	case res.Outcome == scenario.OutcomeInfra && j.Attempts < q.cfg.MaxAttempts:
		q.eventLocked(obs.FleetInfraRequeued, j, now)
		q.requeueLocked(j, now)
	default:
		res2 := res
		j.Result = &res2
		j.State = JobDone
		j.LeaseID = leaseID
		q.done++
		q.eventLocked(obs.FleetCompleted, j, now)
		finished = append(finished, j)
		recorded = true
	}
	evs := q.takeEventsLocked()
	q.mu.Unlock()
	q.emit(evs)
	q.fire(finished)
	return recorded, nil
}

// Sweep expires overdue leases: requeue with backoff below the attempt
// cap, quarantine as an infra result at the cap. It returns how many
// jobs changed state. The server calls it from its ticker and before
// lease/status reads; tests call it manually against a FakeClock.
func (q *Queue) Sweep() int {
	q.emitMu.Lock()
	defer q.emitMu.Unlock()
	q.mu.Lock()
	finished := q.expireLocked(q.clock.Now())
	evs := q.takeEventsLocked()
	q.mu.Unlock()
	q.emit(evs)
	q.fire(finished)
	return len(finished)
}

// expireLocked requeues or quarantines every leased job whose deadline
// passed, returning the jobs that reached their final state.
func (q *Queue) expireLocked(now time.Time) []*Job {
	var finished []*Job
	for _, j := range q.jobs {
		if j.State != JobLeased || !j.Deadline.Before(now) {
			continue
		}
		if j.Attempts >= q.cfg.MaxAttempts {
			res := q.quarantineResult(j)
			j.Result = &res
			j.State = JobDone
			q.done++
			// Result and state first: the quarantine event is terminal,
			// so it must carry the (infra) outcome.
			q.eventLocked(obs.FleetExpiredQuarantined, j, now)
			finished = append(finished, j)
			continue
		}
		q.eventLocked(obs.FleetExpiredRequeued, j, now)
		q.requeueLocked(j, now)
	}
	return finished
}

// requeueLocked returns a job to the pending pool behind its backoff gate.
func (q *Queue) requeueLocked(j *Job, now time.Time) {
	j.State = JobPending
	j.LeaseID = ""
	j.Deadline = time.Time{}
	j.NotBefore = now.Add(scenario.Backoff(q.cfg.BackoffBase, q.cfg.BackoffCap, j.Attempts, q.cfg.Seed, j.Key))
}

// quarantineResult is the infra record of a poison cell: every one of
// its MaxAttempts leases expired without a result, so the cell says
// nothing about the protocol — but it can no longer hang the matrix.
func (q *Queue) quarantineResult(j *Job) scenario.CellResult {
	return scenario.CellResult{
		Family:   j.Cell.Family.Name,
		N:        j.Cell.N,
		Engine:   j.Cell.Engine.Name,
		Protocol: j.Cell.Protocol.Name,
		Seed:     j.Cell.Seed,
		Outcome:  scenario.OutcomeInfra,
		Error: fmt.Sprintf("quarantined: %d leases expired without a result (last worker %q)",
			j.Attempts, j.Worker),
		Attempts: j.Attempts,
	}
}

// fire delivers completion callbacks outside the queue lock.
func (q *Queue) fire(finished []*Job) {
	if q.onDone == nil {
		return
	}
	for _, j := range finished {
		q.onDone(j)
	}
}

// State reports a job's current state ("" , false for unknown keys) —
// the server's result handler uses it to skip span records for
// duplicate submissions on already-final cells.
func (q *Queue) State(key string) (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.byKey[key]
	if !ok {
		return "", false
	}
	return j.State, true
}

// Done reports whether every job has completed.
func (q *Queue) Done() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.done == len(q.jobs)
}

// Counts returns the pending/leased/done totals.
func (q *Queue) Counts() (pending, leased, done int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, j := range q.jobs {
		switch j.State {
		case JobPending:
			pending++
		case JobLeased:
			leased++
		case JobDone:
			done++
		}
	}
	return
}

// Unfinished returns how many jobs have not completed — the quantity
// the server's bounded admission control sheds on.
func (q *Queue) Unfinished() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.jobs) - q.done
}

// Results returns the cell results in matrix-expansion order, and
// whether the run is complete (it returns nil until then: a partial
// report would not be canonical).
func (q *Queue) Results() ([]scenario.CellResult, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.done != len(q.jobs) {
		return nil, false
	}
	out := make([]scenario.CellResult, len(q.jobs))
	for i, j := range q.jobs {
		out[i] = *j.Result
	}
	return out, true
}
