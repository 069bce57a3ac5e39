package obs

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
)

// Typed analysis errors. Hottest and Diff used to return silently
// useless answers on degenerate traces (an empty ranking, a diff of
// nothing); callers that forward their output now get a typed refusal
// to branch on instead.
var (
	// ErrEmptyTrace: the trace has no round records at all (a header-only
	// or truncated-to-nothing file).
	ErrEmptyTrace = errors.New("obs: trace has no round records")
	// ErrNoTraffic: the trace has rounds but none with communication, so
	// there is no traffic to rank.
	ErrNoTraffic = errors.New("obs: trace has no communication rounds")
)

// Trace analysis: summing, reconciliation against the authoritative
// Stats (the tracer as a second auditor of the paper's accounting),
// per-phase profiles keyed on Proc.Annotate marks, hot-spot ranking and
// run diffing. All of it operates on the deterministic field set only —
// WallNs never influences a verdict.

// Totals aggregates a record stream.
type Totals struct {
	Steps         int // engine rounds covered: one per record
	Rounds        int // communication rounds (Sends>0 || Delivered>0)
	Sends         int
	Delivered     int
	SentBits      int64
	DeliveredBits int64
	CutBits       int64
	MaxLinkBits   int
	WallNs        int64 // wall time over all records (nondeterministic)
	Faults        core.FaultStats
}

// add folds one record into t: the one place a record's fields are
// accumulated, for whole runs (Sum) and phases (Phases) alike.
func (t *Totals) add(r *core.RoundTrace) {
	t.Steps++
	if r.Sends > 0 || r.Delivered > 0 {
		t.Rounds++
	}
	t.Sends += r.Sends
	t.Delivered += r.Delivered
	t.SentBits += r.SentBits
	t.DeliveredBits += r.DeliveredBits
	t.CutBits += r.CutBits
	t.MaxLinkBits = max(t.MaxLinkBits, r.MaxLinkBits)
	t.WallNs += r.WallNs
	t.Faults.Drops += r.Faults.Drops
	t.Faults.Corruptions += r.Faults.Corruptions
	t.Faults.Delays += r.Faults.Delays
	t.Faults.Duplicates += r.Faults.Duplicates
	t.Faults.Collisions += r.Faults.Collisions
	t.Faults.Crashes += r.Faults.Crashes
}

// Sum folds a trace's records into Totals.
func Sum(tr *Trace) Totals {
	var t Totals
	for i := range tr.Rounds {
		t.add(&tr.Rounds[i])
	}
	return t
}

// Reconcile checks every engine-trace/v1 identity between the summed
// records and the footer's authoritative Stats (core/trace.go lists
// them). It returns nil when the trace is a faithful second account of
// the run, an error naming the first violated identity otherwise. A
// truncated trace (nil Footer) cannot be reconciled.
func Reconcile(tr *Trace) error {
	if tr.Footer == nil {
		return fmt.Errorf("obs: truncated trace (no end record); nothing to reconcile against")
	}
	sums := Sum(tr)
	st := tr.Footer.Stats
	if sums.SentBits != st.TotalBits {
		return fmt.Errorf("obs: reconcile: sum(sent_bits) = %d, Stats.TotalBits = %d", sums.SentBits, st.TotalBits)
	}
	if sums.Rounds != st.Rounds {
		return fmt.Errorf("obs: reconcile: communication rounds = %d, Stats.Rounds = %d", sums.Rounds, st.Rounds)
	}
	if sums.Steps != st.Steps {
		return fmt.Errorf("obs: reconcile: records = %d, Stats.Steps = %d", sums.Steps, st.Steps)
	}
	if sums.MaxLinkBits != st.MaxLinkBits {
		return fmt.Errorf("obs: reconcile: max(max_link_bits) = %d, Stats.MaxLinkBits = %d", sums.MaxLinkBits, st.MaxLinkBits)
	}
	if sums.CutBits != st.CutBits {
		return fmt.Errorf("obs: reconcile: sum(cut_bits) = %d, Stats.CutBits = %d", sums.CutBits, st.CutBits)
	}
	switch f := tr.Footer.Faults; {
	case f == nil:
		if sums.Faults != (core.FaultStats{}) {
			return fmt.Errorf("obs: reconcile: fault deltas %+v in a fault-free run", sums.Faults)
		}
	case sums.Faults != *f:
		return fmt.Errorf("obs: reconcile: sum(fault deltas) = %+v, Result.Faults = %+v", sums.Faults, *f)
	}
	return nil
}

// Phase is one annotated segment of a run: it opens at the record
// carrying a node-0 mark (the repo's convention for global phase
// boundaries — node 0 is crash-exempt under every fault plan) and runs
// until the next boundary. Records before the first boundary form the
// implicit "start" phase. Its Totals fold the segment's records.
type Phase struct {
	Name       string
	StartRound int
	Totals
}

// Phases splits a trace into its annotated phases. A trace with no
// node-0 marks yields a single "start" phase covering everything; a
// trace with none at all still profiles, it just cannot be broken down.
func Phases(tr *Trace) []Phase {
	var phases []Phase
	for i := range tr.Rounds {
		r := &tr.Rounds[i]
		for _, m := range r.Marks {
			if m.Node == 0 {
				phases = append(phases, Phase{Name: m.Name, StartRound: r.Round})
				break // one boundary per record: sub-record splits don't exist
			}
		}
		if len(phases) == 0 {
			phases = append(phases, Phase{Name: "start", StartRound: r.Round})
		}
		phases[len(phases)-1].add(r)
	}
	return phases
}

// Hot is a record flagged by Hottest, with its position in the stream.
type Hot struct {
	Index int
	core.RoundTrace
}

// Hottest returns the k records carrying the most sent bits, heaviest
// first; ties break toward the earlier round so the ranking is
// deterministic. Records with no traffic never rank. An empty trace is
// ErrEmptyTrace, a trace with rounds but no communication ErrNoTraffic,
// and k < 1 a plain error — all conditions the old signature rendered
// as a silent empty ranking.
func Hottest(tr *Trace, k int) ([]Hot, error) {
	if k < 1 {
		return nil, fmt.Errorf("obs: Hottest: k = %d, want >= 1", k)
	}
	if len(tr.Rounds) == 0 {
		return nil, ErrEmptyTrace
	}
	hot := make([]Hot, 0, len(tr.Rounds))
	for i, r := range tr.Rounds {
		if r.SentBits > 0 || r.Delivered > 0 {
			hot = append(hot, Hot{Index: i, RoundTrace: r})
		}
	}
	if len(hot) == 0 {
		return nil, ErrNoTraffic
	}
	sort.SliceStable(hot, func(a, b int) bool {
		if hot[a].SentBits != hot[b].SentBits {
			return hot[a].SentBits > hot[b].SentBits
		}
		return hot[a].Round < hot[b].Round
	})
	if k < len(hot) {
		hot = hot[:k]
	}
	return hot, nil
}

// PhaseDiff pairs the phases of two runs positionally; a nil side means
// the other run has more phases. Mismatched names at the same position
// are preserved — the CLI surfaces them rather than guessing an
// alignment.
type PhaseDiff struct {
	A, B *Phase
}

// Diff aligns two traces' phase profiles for comparison (sequential vs
// parallel, fault-free vs faulty, two protocol tiers on one workload).
// Either side empty is ErrEmptyTrace (wrapped, naming the side): a diff
// against nothing used to render as one-sided rows that read like the
// other run had phases the first lacked. Mismatched round or phase
// counts are fine — that asymmetry is the diff's output, not an error.
func Diff(a, b *Trace) ([]PhaseDiff, error) {
	if len(a.Rounds) == 0 {
		return nil, fmt.Errorf("first trace: %w", ErrEmptyTrace)
	}
	if len(b.Rounds) == 0 {
		return nil, fmt.Errorf("second trace: %w", ErrEmptyTrace)
	}
	pa, pb := Phases(a), Phases(b)
	n := len(pa)
	if len(pb) > n {
		n = len(pb)
	}
	out := make([]PhaseDiff, n)
	for i := range out {
		if i < len(pa) {
			out[i].A = &pa[i]
		}
		if i < len(pb) {
			out[i].B = &pb[i]
		}
	}
	return out, nil
}
