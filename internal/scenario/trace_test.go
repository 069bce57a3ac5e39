package scenario

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// tinyTraceMatrix is a 2-protocol, 2-engine real-protocol matrix small
// enough to trace in a unit test.
func tinyTraceMatrix(t *testing.T) *Matrix {
	t.Helper()
	f, ok := FamilyByName("gnp")
	if !ok {
		t.Fatal("gnp family missing")
	}
	e1, ok := EngineByName("par4")
	if !ok {
		t.Fatal("par4 engine missing")
	}
	e2, ok := EngineByName("par2-b16")
	if !ok {
		t.Fatal("par2-b16 engine missing")
	}
	p1, ok := ProtocolByName("connectivity")
	if !ok {
		t.Fatal("connectivity protocol missing")
	}
	p2, ok := ProtocolByName("triangle")
	if !ok {
		t.Fatal("triangle protocol missing")
	}
	return &Matrix{
		Families:  []Family{f},
		Sizes:     []int{12},
		Engines:   []EngineConfig{e1, e2},
		Protocols: []Protocol{p1, p2},
		BaseSeed:  5,
	}
}

// TestRunMatrixTraceDir checks the matrix trace archive: one
// engine-trace/v1 file per engine-leg cell, every file reconciling
// against its own footer, and the footer Stats of each clean cell
// matching the cell's reported accounting — tracing is an observer, not
// a participant.
func TestRunMatrixTraceDir(t *testing.T) {
	m := tinyTraceMatrix(t)
	dir := t.TempDir()
	rep, err := RunMatrixOpts(m, RunOptions{CellOptions: CellOptions{TraceDir: dir}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Divergences != 0 || rep.Summary.Infra != 0 {
		t.Fatalf("matrix not clean: %+v", rep.Summary)
	}

	paths, err := filepath.Glob(filepath.Join(dir, "trace-*.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(rep.Cells) {
		t.Fatalf("archived %d traces for %d cells", len(paths), len(rep.Cells))
	}
	bySeed := map[int64]*obs.Trace{}
	for _, p := range paths {
		tr, err := obs.LoadFile(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if err := obs.Reconcile(tr); err != nil {
			t.Errorf("%s: %v", p, err)
		}
		bySeed[tr.Meta.Seed] = tr
	}
	for _, c := range rep.Cells {
		// The engine leg runs with seed c.Seed+1 (runLeg); on a clean
		// cell its Stats equal the oracle's, which is what the report
		// records.
		tr := bySeed[c.Seed+1]
		if tr == nil {
			t.Errorf("cell %s n=%d %s %s: no trace for seed %d", c.Family, c.N, c.Engine, c.Protocol, c.Seed+1)
			continue
		}
		st := tr.Footer.Stats
		if st.Rounds != c.Rounds || st.TotalBits != c.TotalBits || st.MaxLinkBits != c.MaxLinkBits {
			t.Errorf("cell %s/%s: trace footer (rounds=%d bits=%d maxlink=%d) != report (rounds=%d bits=%d maxlink=%d)",
				c.Engine, c.Protocol, st.Rounds, st.TotalBits, st.MaxLinkBits, c.Rounds, c.TotalBits, c.MaxLinkBits)
		}
	}
}

// TestRunMatrixTraceDirUnwritable checks that a run which cannot write
// the traces it was asked for fails instead of reporting success
// without them: here the trace directory lies below a regular file.
func TestRunMatrixTraceDirUnwritable(t *testing.T) {
	m := tinyTraceMatrix(t)
	m.Protocols = m.Protocols[:1]
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := RunMatrixOpts(m, RunOptions{CellOptions: CellOptions{TraceDir: filepath.Join(file, "traces")}, Shards: 2})
	var pe *fs.PathError
	if !errors.As(err, &pe) {
		t.Fatalf("RunMatrixOpts = (%v, %v), want the trace archive's path error", rep != nil, err)
	}
}

// TestRunCellTraceDir checks the single-cell path archives the engine
// leg only: one trace whose meta carries the engine configuration's
// parallelism, never the oracle's.
func TestRunCellTraceDir(t *testing.T) {
	cell, err := CellFromNames("gnp", 12, "par4", "connectivity", 9)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res := RunCell(cell, CellOptions{TraceDir: dir}, nil)
	if res.Outcome != OutcomeOK {
		t.Fatalf("cell outcome %s: %s%s", res.Outcome, res.Error, res.Divergence)
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "trace-*.ndjson"))
	if len(paths) != 1 {
		t.Fatalf("archived %d traces, want 1 (engine leg only)", len(paths))
	}
	tr, err := obs.LoadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Reconcile(tr); err != nil {
		t.Fatal(err)
	}
	if tr.Meta.Parallelism == 1 {
		t.Fatal("trace meta has parallelism 1: the oracle leg was traced")
	}
	if st := tr.Footer.Stats; st.Rounds != res.Rounds || st.TotalBits != res.TotalBits {
		t.Fatalf("trace footer (rounds=%d bits=%d) != cell result (rounds=%d bits=%d)",
			st.Rounds, st.TotalBits, res.Rounds, res.TotalBits)
	}
}
