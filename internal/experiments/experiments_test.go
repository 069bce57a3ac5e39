package experiments

import (
	"io"
	"strings"
	"testing"
)

// TestAllExperimentsRunQuick executes every experiment in quick mode —
// the same code path as cmd/cliquebench — and requires each to succeed
// (every experiment self-checks its protocol answers against ground
// truth, so this is an end-to-end regression net over the whole library).
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if err := e.Run(io.Discard, true, Env{}); err != nil {
				t.Fatalf("%s (%s): %v", e.ID, e.Claim, err)
			}
		})
	}
}

func TestExperimentsProduceTables(t *testing.T) {
	// Each experiment must emit a banner naming itself and at least one
	// data row.
	for _, e := range []string{"E2", "E5", "E12"} {
		exp, ok := ByID(e)
		if !ok {
			t.Fatalf("missing experiment %s", e)
		}
		var sb strings.Builder
		if err := exp.Run(&sb, true, Env{}); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		if !strings.Contains(out, "=== "+e) {
			t.Errorf("%s output lacks its banner", e)
		}
		if len(strings.Split(out, "\n")) < 5 {
			t.Errorf("%s output suspiciously short:\n%s", e, out)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E1"); !ok {
		t.Error("E1 missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("phantom experiment E99")
	}
	seen := map[string]bool{}
	for _, e := range All {
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
	}
}
