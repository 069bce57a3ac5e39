package scenario

import (
	"testing"
	"time"

	"repro/internal/graph"
)

// Backoff is a pure function: capped exponential in the attempt, with
// deterministic jitter in [ceil/2, ceil] keyed by (seed, key, attempt).
func TestBackoffShape(t *testing.T) {
	base, cp := 100*time.Millisecond, time.Second
	for attempt := 1; attempt <= 8; attempt++ {
		d := Backoff(base, cp, attempt, 7, "cell-key")
		if d2 := Backoff(base, cp, attempt, 7, "cell-key"); d2 != d {
			t.Fatalf("attempt %d: not deterministic: %v vs %v", attempt, d, d2)
		}
		ceil := base << (attempt - 1)
		if ceil > cp || ceil <= 0 {
			ceil = cp
		}
		if d < ceil/2 || d > ceil {
			t.Fatalf("attempt %d: %v outside jitter window [%v, %v]", attempt, d, ceil/2, ceil)
		}
	}
}

// Different cells land on different points of the jitter window, so a
// fleet retrying after a shared brownout spreads out instead of
// stampeding in lockstep.
func TestBackoffJitterVariesByKey(t *testing.T) {
	base, cp := 100*time.Millisecond, 10*time.Second
	varies := false
	for attempt := 1; attempt <= 4 && !varies; attempt++ {
		varies = Backoff(base, cp, attempt, 7, "cell-a") != Backoff(base, cp, attempt, 7, "cell-b")
	}
	if !varies {
		t.Fatal("jitter identical across keys on every attempt")
	}
	varies = false
	for attempt := 1; attempt <= 4 && !varies; attempt++ {
		varies = Backoff(base, cp, attempt, 7, "cell-a") != Backoff(base, cp, attempt, 8, "cell-a")
	}
	if !varies {
		t.Fatal("jitter identical across seeds on every attempt")
	}
}

func TestBackoffEdges(t *testing.T) {
	if d := Backoff(0, time.Second, 5, 1, "k"); d != 0 {
		t.Fatalf("zero base: %v, want 0 (historical immediate retry)", d)
	}
	if d := Backoff(time.Millisecond, 0, 30, 1, "k"); d > 32*time.Millisecond {
		t.Fatalf("default cap: %v exceeds 32x base", d)
	}
	// Huge attempt counts must not overflow into a negative duration.
	if d := Backoff(time.Second, time.Minute, 400, 1, "k"); d < 0 || d > time.Minute {
		t.Fatalf("attempt 400: %v outside [0, cap]", d)
	}
}

// The retry loop sleeps exactly the Backoff schedule of the
// failing cell — asserted through the injected Sleep hook, no real
// sleeps anywhere (satellite: fake-clock/injected-sleep coverage).
func TestRunMatrixOptsRetryBackoffSchedule(t *testing.T) {
	m := syntheticMatrix(func(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
		if !leg.Oracle {
			panic("always failing")
		}
		return &LegResult{Output: "ok"}, nil
	})
	var slept []time.Duration
	base, cp := 10*time.Millisecond, 80*time.Millisecond
	rep, err := RunMatrixOpts(m, RunOptions{
		CellOptions: CellOptions{
			Retries:         3,
			RetryBackoff:    base,
			RetryBackoffCap: cp,
			Sleep:           func(d time.Duration) { slept = append(slept, d) },
		},
		Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := rep.Cells[0]; c.Outcome != OutcomeInfra || c.Attempts != 4 {
		t.Fatalf("cell: outcome=%q attempts=%d, want infra after 4 attempts", c.Outcome, c.Attempts)
	}
	cell := m.Expand()[0]
	want := []time.Duration{
		Backoff(base, cp, 1, cell.Seed, cellKey(cell)),
		Backoff(base, cp, 2, cell.Seed, cellKey(cell)),
		Backoff(base, cp, 3, cell.Seed, cellKey(cell)),
	}
	if len(slept) != len(want) {
		t.Fatalf("slept %d times (%v), want %d", len(slept), slept, len(want))
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("retry %d slept %v, want %v (schedule %v)", i+1, slept[i], want[i], want)
		}
	}
	// Zero backoff keeps the historical immediate retry: no sleeps.
	slept = nil
	if _, err := RunMatrixOpts(m, RunOptions{CellOptions: CellOptions{Retries: 2,
		Sleep: func(d time.Duration) { slept = append(slept, d) }}, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 0 {
		t.Fatalf("zero-backoff run slept %v", slept)
	}
}
