package scenario

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

func tinyMatrix(t *testing.T) *Matrix {
	t.Helper()
	m := DefaultMatrix(true, 7)
	m.Sizes = []int{10}
	if err := m.FilterFamilies("gnp"); err != nil {
		t.Fatal(err)
	}
	if err := m.FilterProtocols("triangle,connectivity"); err != nil {
		t.Fatal(err)
	}
	if err := m.FilterEngines("par4"); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCellFromNames(t *testing.T) {
	want := tinyMatrix(t).Expand()[0]
	got, err := CellFromNames(want.Family.Name, want.N, want.Engine.Name, want.Protocol.Name, want.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key() != want.Key() || got.Engine != want.Engine {
		t.Fatalf("roundtrip: got %q, want %q", got.Key(), want.Key())
	}
	for _, bad := range [][4]string{
		{"no-such-family", "par4", "triangle", "family"},
		{"gnp", "no-such-engine", "triangle", "engine"},
		{"gnp", "par4", "no-such-protocol", "protocol"},
	} {
		if _, err := CellFromNames(bad[0], 10, bad[1], bad[2], 1); err == nil {
			t.Fatalf("unknown %s accepted", bad[3])
		}
	}
}

// RunCell runs the matrix runner's per-cell function: every cell run
// alone must classify exactly as it does inside the full sweep.
func TestRunCellMatchesMatrixRun(t *testing.T) {
	m := tinyMatrix(t)
	rep, err := RunMatrixOpts(m, RunOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range m.Expand() {
		got := RunCell(c, CellOptions{}, nil)
		want := rep.Cells[i]
		got.OracleNs, got.EngineNs = 0, 0
		want.OracleNs, want.EngineNs = 0, 0
		if got != want {
			t.Fatalf("cell %d differs:\n RunCell:       %+v\n RunMatrixOpts: %+v", i, got, want)
		}
	}
}

// mapCache is an in-memory LegCache for hit/miss accounting.
type mapCache struct {
	m    map[string]CachedLeg
	puts int
}

func (c *mapCache) key(cell Cell, faulty bool) string {
	return fmt.Sprintf("%s|%d|%d|%s|%d|%t", cell.Family.Name, cell.N, cell.Seed, cell.Protocol.Name, cell.Engine.Bandwidth, faulty)
}
func (c *mapCache) GetOracle(cell Cell, faulty bool) (CachedLeg, bool) {
	leg, ok := c.m[c.key(cell, faulty)]
	return leg, ok
}
func (c *mapCache) PutOracle(cell Cell, faulty bool, leg CachedLeg) {
	c.puts++
	c.m[c.key(cell, faulty)] = leg
}

// A warm oracle cache changes the oracle wall time to zero and nothing
// else; a miss populates the cache.
func TestRunCellOracleCache(t *testing.T) {
	cell := tinyMatrix(t).Expand()[0]
	cache := &mapCache{m: map[string]CachedLeg{}}
	cold := RunCell(cell, CellOptions{}, cache)
	if cache.puts != 1 {
		t.Fatalf("cold run stored %d entries, want 1", cache.puts)
	}
	warm := RunCell(cell, CellOptions{}, cache)
	if cache.puts != 1 {
		t.Fatalf("warm run stored again (%d puts)", cache.puts)
	}
	if warm.OracleNs != 0 {
		t.Fatalf("warm oracle leg recorded %dns, want 0 (cache hit)", warm.OracleNs)
	}
	cold.OracleNs, cold.EngineNs, warm.OracleNs, warm.EngineNs = 0, 0, 0, 0
	if cold != warm {
		t.Fatalf("cache changed the result:\n cold: %+v\n warm: %+v", cold, warm)
	}
}

// An impossible deadline makes both legs infra, and each leg is retried
// at once, Retries times.
func TestRunCellTimeoutRetries(t *testing.T) {
	cell := tinyMatrix(t).Expand()[0]
	res := RunCell(cell, CellOptions{Timeout: time.Nanosecond, Retries: 2}, nil)
	if res.Outcome != OutcomeInfra {
		t.Fatalf("outcome %q, want infra under a 1ns deadline", res.Outcome)
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (first attempt + 2 retries)", res.Attempts)
	}
}

// BuildReport + Canonicalize reproduce the matrix runner's report
// modulo run-varying fields — the equivalence the scenariod server
// leans on to serve byte-identical reports from re-assembled cells.
func TestBuildReportCanonicalize(t *testing.T) {
	m := tinyMatrix(t)
	direct, err := RunMatrixOpts(m, RunOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := BuildReport(m, append([]CellResult(nil), direct.Cells...), "none")
	if rebuilt.Faults != "" {
		t.Fatalf("clean run recorded faults %q", rebuilt.Faults)
	}
	direct.Canonicalize()
	rebuilt.Canonicalize()
	a, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("canonical reports differ:\n direct:  %s\n rebuilt: %s", a, b)
	}
	if withFaults := BuildReport(m, direct.Cells, "drop=0.5"); withFaults.Faults != "drop=0.5" {
		t.Fatalf("faulted report records %q", withFaults.Faults)
	}
}

// LoadLedger reads back everything Append recorded — header binding,
// bookkeeping records, span events, cell results — and Sync is safe to
// interleave.
func TestLedgerAppendLoadRoundtrip(t *testing.T) {
	m := tinyMatrix(t)
	cells := m.Expand()
	info := LedgerInfo{BaseSeed: m.BaseSeed, Faults: "none", Cells: len(cells)}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	led, prior, _, err := OpenLedger(path, info)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 0 {
		t.Fatalf("fresh ledger has %d prior cells", len(prior))
	}
	if err := led.Append(LedgerRecord{T: RecSpec, Spec: json.RawMessage(`{"quick":true}`)}); err != nil {
		t.Fatal(err)
	}
	if err := led.Append(LedgerRecord{T: RecLease, Key: cells[0].Key(), Worker: "w1", Attempt: 1, DeadlineMs: 123456}); err != nil {
		t.Fatal(err)
	}
	led.Sync()
	if err := led.Append(LedgerRecord{T: RecHeartbeat, Key: cells[0].Key(), Worker: "w1"}); err != nil {
		t.Fatal(err)
	}
	span := obs.SpanEvent{TMs: 1700000000123, Event: obs.FleetCompleted, Key: cells[0].Key(), Worker: "w1",
		Attempt: 2, Outcome: OutcomeOK, ExecMs: 40, Cells: len(cells)}
	if err := led.Append(SpanRecord(span)); err != nil {
		t.Fatal(err)
	}
	cr := CellResult{Family: cells[0].Family.Name, N: cells[0].N, Engine: cells[0].Engine.Name,
		Protocol: cells[0].Protocol.Name, Seed: cells[0].Seed, Output: "out", Outcome: OutcomeOK}
	if err := led.AppendCell(cells[0].Key(), cr); err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	gotInfo, recs, err := LoadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotInfo != info {
		t.Fatalf("loaded info %+v, want %+v", gotInfo, info)
	}
	types := map[string]int{}
	for _, rec := range recs {
		types[rec.T]++
		if rec.T == RecSpan && rec.SpanEvent() != span {
			t.Fatalf("span record reads back as %+v, want %+v", rec.SpanEvent(), span)
		}
	}
	for _, tt := range []string{RecSpec, RecLease, RecHeartbeat, RecSpan, RecCell} {
		if types[tt] != 1 {
			t.Fatalf("record types %v, want one of each", types)
		}
	}
	// Reopening resumes the recorded cell.
	led2, prior2, _, err := OpenLedger(path, info)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	if got, ok := prior2[cells[0].Key()]; !ok || got != cr {
		t.Fatalf("reopened prior: ok=%v got=%+v want=%+v", ok, got, cr)
	}
}
