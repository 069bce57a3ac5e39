package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// testMatrix is a trimmed sweep that keeps unit-test wall time low while
// still covering every protocol and both engine configurations.
func testMatrix(t *testing.T) *Matrix {
	t.Helper()
	m := DefaultMatrix(true, 1)
	m.Sizes = []int{12}
	return m
}

// runMatrix runs m on a clean channel at the given pool width; without
// a ledger RunMatrixOpts cannot fail.
func runMatrix(t testing.TB, m *Matrix, shards int) *Report {
	t.Helper()
	rep, err := RunMatrixOpts(m, RunOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestQuickMatrixShape(t *testing.T) {
	m := DefaultMatrix(true, 1)
	cells := m.Expand()
	if len(cells) < 60 {
		t.Fatalf("quick matrix has %d cells, want >= 60", len(cells))
	}
	if len(m.Families) < 5 || len(m.Sizes) < 3 || len(m.Engines) < 2 || len(m.Protocols) < 2 {
		t.Fatalf("quick matrix %dx%dx%dx%d under the acceptance floor (5x3x2x2)",
			len(m.Families), len(m.Sizes), len(m.Engines), len(m.Protocols))
	}
	seen := map[int64]bool{}
	for _, c := range cells {
		if seen[c.Seed] {
			t.Fatalf("duplicate cell seed %d", c.Seed)
		}
		seen[c.Seed] = true
	}
	again := m.Expand()
	for i := range cells {
		if cells[i].Seed != again[i].Seed {
			t.Fatal("Expand is not deterministic")
		}
	}
}

func TestMatrixRunsClean(t *testing.T) {
	m := testMatrix(t)
	rep := runMatrix(t, m, 0)
	if rep.Summary.Cells != len(m.Expand()) {
		t.Fatalf("summary cells %d != %d", rep.Summary.Cells, len(m.Expand()))
	}
	for _, c := range rep.Divergent() {
		t.Errorf("divergence: %s n=%d %s %s: %s", c.Family, c.N, c.Engine, c.Protocol, c.Divergence)
	}
	for _, c := range rep.Cells {
		if c.Rounds <= 0 || c.TotalBits <= 0 {
			t.Errorf("cell %s/%s/%s has empty accounting (rounds=%d bits=%d)",
				c.Family, c.Engine, c.Protocol, c.Rounds, c.TotalBits)
		}
		if c.Output == "" {
			t.Errorf("cell %s/%s/%s has no output digest", c.Family, c.Engine, c.Protocol)
		}
	}
}

func TestShardingDoesNotChangeResults(t *testing.T) {
	m := testMatrix(t)
	m.Protocols = m.Protocols[:2] // triangle + hdetect keep this fast
	a := runMatrix(t, m, 1)
	b := runMatrix(t, m, 4)
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		ca, cb := a.Cells[i], b.Cells[i]
		ca.OracleNs, ca.EngineNs = 0, 0
		cb.OracleNs, cb.EngineNs = 0, 0
		if ca != cb {
			t.Fatalf("cell %d differs across shard counts:\n  1 shard: %+v\n  4 shards: %+v", i, ca, cb)
		}
	}
}

func TestRunnerFlagsOutputDivergence(t *testing.T) {
	m := testMatrix(t)
	m.Families = m.Families[:1]
	m.Engines = m.Engines[:1]
	m.Protocols = []Protocol{{
		Name: "two-faced",
		Run: func(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
			out := "oracle"
			if !leg.Oracle {
				out = "engine"
			}
			return &LegResult{Output: out, Stats: core.Stats{Rounds: 1, TotalBits: 1}}, nil
		},
	}}
	rep := runMatrix(t, m, 1)
	if len(rep.Divergent()) != len(rep.Cells) {
		t.Fatalf("divergent output not flagged: %+v", rep.Cells)
	}
	if rep.Summary.Divergences != len(rep.Cells) {
		t.Fatalf("summary divergences %d, want %d", rep.Summary.Divergences, len(rep.Cells))
	}
}

func TestRunnerFlagsStatsDivergence(t *testing.T) {
	m := testMatrix(t)
	m.Families = m.Families[:1]
	m.Engines = m.Engines[:1]
	m.Protocols = []Protocol{{
		Name: "stats-skew",
		Run: func(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
			s := core.Stats{Rounds: 1, TotalBits: 10, NodeSentBits: make([]int64, g.N())}
			if !leg.Oracle {
				s.NodeSentBits[0] = 1 // per-node totals must be diffed too
			}
			return &LegResult{Output: "same", Stats: s}, nil
		},
	}}
	rep := runMatrix(t, m, 1)
	for _, c := range rep.Cells {
		if !c.Diverged {
			t.Fatalf("stats divergence not flagged: %+v", c)
		}
	}
}

func TestRunnerFlagsLegError(t *testing.T) {
	m := testMatrix(t)
	m.Families = m.Families[:1]
	m.Engines = m.Engines[:1]
	m.Protocols = []Protocol{{
		Name: "engine-bomb",
		Run: func(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
			if !leg.Oracle {
				return nil, fmt.Errorf("boom")
			}
			return &LegResult{Output: "ok", Stats: core.Stats{Rounds: 1, TotalBits: 1}}, nil
		},
	}}
	rep := runMatrix(t, m, 1)
	for _, c := range rep.Cells {
		if !c.Diverged || c.Divergence == "" {
			t.Fatalf("leg error not surfaced: %+v", c)
		}
	}
}

func TestRunnerFlagsNilResult(t *testing.T) {
	m := testMatrix(t)
	m.Families = m.Families[:1]
	m.Engines = m.Engines[:1]
	m.Protocols = []Protocol{{
		Name: "no-result",
		Run: func(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
			return nil, nil // broken adapter: must flag, not panic
		},
	}}
	rep := runMatrix(t, m, 1)
	for _, c := range rep.Cells {
		if !c.Diverged || c.Divergence == "" {
			t.Fatalf("nil protocol result not flagged: %+v", c)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	m := testMatrix(t)
	m.Families = m.Families[:2]
	m.Protocols = m.Protocols[:2]
	rep := runMatrix(t, m, 0)
	path, err := rep.WriteJSON(filepath.Join(t.TempDir(), "SCENARIOS_test.json"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Schema != ReportSchema {
		t.Fatalf("schema %q, want %q", back.Schema, ReportSchema)
	}
	if back.Summary.Cells != len(back.Cells) {
		t.Fatalf("summary cells %d != %d records", back.Summary.Cells, len(back.Cells))
	}
}

func TestWriteAndReport(t *testing.T) {
	m := testMatrix(t)
	m.Families = m.Families[:1]
	m.Engines = m.Engines[:1]
	m.Protocols = m.Protocols[:1]
	rep := runMatrix(t, m, 1)

	var out, errs strings.Builder
	path := filepath.Join(t.TempDir(), "clean.json")
	if code := rep.WriteAndReport(path, &out, &errs); code != 0 {
		t.Fatalf("clean run exit code %d, stderr %q", code, errs.String())
	}
	if !strings.Contains(out.String(), "0 divergences") || !strings.Contains(out.String(), path) {
		t.Fatalf("summary line missing counts or path: %q", out.String())
	}
	if errs.Len() != 0 {
		t.Fatalf("clean run wrote to stderr: %q", errs.String())
	}

	rep.Cells[0].Diverged = true
	rep.Cells[0].Divergence = "synthetic"
	out.Reset()
	errs.Reset()
	if code := rep.WriteAndReport(filepath.Join(t.TempDir(), "div.json"), &out, &errs); code != 1 {
		t.Fatalf("divergent run exit code %d, want 1", code)
	}
	if !strings.Contains(errs.String(), "synthetic") {
		t.Fatalf("divergence not reported on stderr: %q", errs.String())
	}

	out.Reset()
	errs.Reset()
	if code := rep.WriteAndReport(filepath.Join(t.TempDir(), "no-such-dir", "x.json"), &out, &errs); code != 1 {
		t.Fatalf("write failure exit code %d, want 1", code)
	}
}

func TestFilterHelpers(t *testing.T) {
	m := DefaultMatrix(true, 1)
	if err := m.FilterFamilies("wgnp, gnp"); err != nil {
		t.Fatal(err)
	}
	if len(m.Families) != 2 || m.Families[0].Name != "wgnp" || m.Families[1].Name != "gnp" {
		t.Fatalf("family filter picked %+v", m.Families)
	}
	if err := m.FilterProtocols("apsp,matpower"); err != nil {
		t.Fatal(err)
	}
	if len(m.Protocols) != 2 {
		t.Fatalf("protocol filter picked %d entries", len(m.Protocols))
	}
	// The narrow config is full-only but must stay reachable from quick.
	if err := m.FilterEngines("par2-b16"); err != nil {
		t.Fatal(err)
	}
	if len(m.Engines) != 1 || m.Engines[0].Name != "par2-b16" {
		t.Fatalf("engine filter picked %+v", m.Engines)
	}
	// Empty filters are no-ops; unknown names are errors.
	if err := m.FilterFamilies(""); err != nil || len(m.Families) != 2 {
		t.Fatal("empty family filter must be a no-op")
	}
	for _, err := range []error{
		m.FilterFamilies("nope"), m.FilterProtocols("nope"), m.FilterEngines("nope"),
	} {
		if err == nil {
			t.Fatal("unknown name accepted by a filter")
		}
	}
}

func TestCoverageListsEveryProtocol(t *testing.T) {
	m := DefaultMatrix(false, 1)
	lines := m.Coverage()
	if len(lines) != len(m.Protocols) {
		t.Fatalf("coverage has %d lines for %d protocols", len(lines), len(m.Protocols))
	}
	names := make([]string, len(m.Protocols))
	for i, p := range m.Protocols {
		names[i] = p.Name
	}
	sort.Strings(names) // Coverage prints protocols sorted by name
	wantCells := len(m.Families) * len(m.Sizes) * len(m.Engines)
	for i, line := range lines {
		if !strings.Contains(line, names[i]) {
			t.Fatalf("coverage line %d %q does not name protocol %s", i, line, names[i])
		}
		if !strings.Contains(line, fmt.Sprintf("%d cells", wantCells)) {
			t.Fatalf("coverage line %q missing the %d-cell count", line, wantCells)
		}
		for _, e := range m.Engines {
			if !strings.Contains(line, e.Name) {
				t.Fatalf("coverage line %q missing engine %s", line, e.Name)
			}
		}
	}
}

func TestQuickMatrixMeetsAcceptanceFloor(t *testing.T) {
	m := DefaultMatrix(true, 1)
	if cells := len(m.Expand()); cells < 230 {
		t.Fatalf("quick matrix has %d cells, acceptance floor is 230", cells)
	}
	for _, name := range []string{"apsp", "khop", "matpower"} {
		if _, ok := ProtocolByName(name); !ok {
			t.Fatalf("semiring protocol %s not registered", name)
		}
	}
	for _, name := range []string{"wgnp", "wpower"} {
		if _, ok := FamilyByName(name); !ok {
			t.Fatalf("weighted family %s not registered", name)
		}
	}
}

func TestFamiliesDeterministicAndSized(t *testing.T) {
	for _, f := range DefaultFamilies() {
		for _, n := range []int{12, 18, 24} {
			a := f.Gen(n, 77)
			b := f.Gen(n, 77)
			if !a.Equal(b) {
				t.Errorf("family %s not deterministic at n=%d", f.Name, n)
			}
			if a.N() != n {
				t.Errorf("family %s generated N=%d for requested n=%d", f.Name, a.N(), n)
			}
			c := f.Gen(n, 78)
			if f.Name != "turan" && f.Name != "demand" && f.Name != "rs" && a.Equal(c) {
				t.Errorf("family %s ignores the seed", f.Name)
			}
		}
	}
}
