package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// TestReportSnapshots gates the two matrices CI sweeps exactly: every
// cell's outcome, output digest, rounds, steps and bits, canonicalized
// (Report.Canonicalize) so timings and dates drop out. The differential
// matrix alone cannot see a change that moves a cell's accounting on
// both legs alike; these snapshots can.
func TestReportSnapshots(t *testing.T) {
	t.Run("quick", func(t *testing.T) {
		// `scenariorun -quick`, against the committed report.
		data, err := os.ReadFile(filepath.Join("..", "..", "SCENARIOS_20260807.json"))
		if err != nil {
			t.Fatal(err)
		}
		var want Report
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		got, err := RunMatrixOpts(DefaultMatrix(true, 1), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want.Canonicalize()
		got.Canonicalize()
		if len(got.Cells) != len(want.Cells) {
			t.Fatalf("%d cells, snapshot has %d", len(got.Cells), len(want.Cells))
		}
		for i := range got.Cells {
			if got.Cells[i] != want.Cells[i] {
				t.Fatalf("cell %d differs from the snapshot:\n  got:      %+v\n  snapshot: %+v", i, got.Cells[i], want.Cells[i])
			}
		}
		a, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(&want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("report header or summary differs from the snapshot:\n  got:      %s %+v\n  snapshot: %s %+v",
				got.Schema, got.Summary, want.Schema, want.Summary)
		}
	})

	t.Run("quick-faults", func(t *testing.T) {
		// `scenariorun -quick -faults drop=0.01,corrupt=0.005
		// -protocols connectivity,spanforest,routing,apsp -retries 1`.
		const wantSHA = "d64cd74d00cbe26a711e3f9fe488861174e86ccc33697a49e28a7454bbc9200a"
		spec, err := fault.ParseSpec("drop=0.01,corrupt=0.005")
		if err != nil {
			t.Fatal(err)
		}
		m := DefaultMatrix(true, 1)
		if err := m.FilterProtocols("connectivity,spanforest,routing,apsp"); err != nil {
			t.Fatal(err)
		}
		rep, err := RunMatrixOpts(m, RunOptions{CellOptions: CellOptions{Faults: spec, Retries: 1}})
		if err != nil {
			t.Fatal(err)
		}
		s := rep.Summary
		if s.Cells != 216 || s.Divergences != 0 || s.Detected != 132 || s.Infra != 0 ||
			s.TotalRounds != 89388 || s.TotalBits != 102216318 {
			t.Fatalf("summary: %d cells, %d divergences, %d detected, %d infra, rounds=%d bits=%d; "+
				"snapshot: 216 cells, 0 divergences, 132 detected, 0 infra, rounds=89388 bits=102216318",
				s.Cells, s.Divergences, s.Detected, s.Infra, s.TotalRounds, s.TotalBits)
		}
		rep.Canonicalize()
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != wantSHA {
			t.Fatalf("canonical report sha256 %s, snapshot %s", got, wantSHA)
		}
	})
}
