package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// foldRecordsSnapshot is the committed BENCH snapshot whose e15/e16/e17
// fold records the full-size experiments must reproduce exactly.
const foldRecordsSnapshot = "BENCH_20260807.json"

// TestFoldRecordsExact pins the exact fold records: the full-size E15,
// E16 and E17 runs (n = 64 and n = 256, beyond the scenario matrix's
// n ≤ 24) must print the E15RECORD n=64, E16RECORD n=256 and three
// E17RECORD n=64 lines that scripts/bench.sh folded into the committed
// snapshot, field for field. Their rounds and bits are exact, so any
// change to a protocol's schedule or messages at these sizes fails here.
func TestFoldRecordsExact(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", foldRecordsSnapshot))
	if err != nil {
		t.Fatal(err)
	}
	var snapshot []map[string]any
	if err := json.Unmarshal(raw, &snapshot); err != nil {
		t.Fatalf("%s: %v", foldRecordsSnapshot, err)
	}
	cases := []struct {
		exp, prefix, name string
		want              int // records expected
	}{
		{"E15", "E15RECORD n=64 ", "e15_semiring_mm", 1},
		{"E16", "E16RECORD n=256 ", "e16_sketch_connectivity", 1},
		{"E17", "E17RECORD n=64 ", "e17_fault_recovery", 3},
	}
	for _, tc := range cases {
		t.Run(tc.exp, func(t *testing.T) {
			var want []map[string]any
			for _, rec := range snapshot {
				if rec["name"] == tc.name {
					want = append(want, rec)
				}
			}
			if len(want) != tc.want {
				t.Fatalf("%s holds %d %s records, want %d", foldRecordsSnapshot, len(want), tc.name, tc.want)
			}
			exp, ok := ByID(tc.exp)
			if !ok {
				t.Fatalf("missing experiment %s", tc.exp)
			}
			var out bytes.Buffer
			if err := exp.Run(&out, false, Env{}); err != nil {
				t.Fatalf("%s: %v", tc.exp, err)
			}
			var got []map[string]string
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(line, tc.prefix) {
					got = append(got, recordFields(line))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s printed %d %q lines, want %d", tc.exp, len(got), tc.prefix, len(want))
			}
			for i := range got {
				if err := matchRecord(got[i], want[i]); err != nil {
					t.Errorf("%s record %d: %v", tc.exp, i, err)
				}
			}
		})
	}
}

// recordFields splits a "EnnRECORD k=v k=v ..." line into its fields.
func recordFields(line string) map[string]string {
	fields := map[string]string{}
	for _, kv := range strings.Fields(line)[1:] {
		k, v, _ := strings.Cut(kv, "=")
		fields[k] = v
	}
	return fields
}

// matchRecord compares a printed record with a snapshot record field by
// field, apart from the snapshot's date and name: numbers by value (the
// line prints "0.000" where the snapshot holds 0.0), strings exactly.
func matchRecord(got map[string]string, want map[string]any) error {
	if len(got) != len(want)-2 {
		return fmt.Errorf("printed fields %v, snapshot fields %v", got, want)
	}
	for k, w := range want {
		if k == "date" || k == "name" {
			continue
		}
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("field %s missing from the printed record", k)
		}
		switch w := w.(type) {
		case float64:
			if v, err := strconv.ParseFloat(g, 64); err != nil || v != w {
				return fmt.Errorf("%s = %s, snapshot %s", k, g, strconv.FormatFloat(w, 'f', -1, 64))
			}
		case string:
			if g != w {
				return fmt.Errorf("%s = %s, snapshot %s", k, g, w)
			}
		default:
			return fmt.Errorf("snapshot field %s has unexpected type %T", k, w)
		}
	}
	return nil
}
