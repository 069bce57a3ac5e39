package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestMain(m *testing.M) {
	// The fleet and set-up tests start this test binary as their worker
	// and set-up processes.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "worker":
			os.Exit(workerMain(os.Args[2:]))
		case "setup":
			os.Exit(setupMain(os.Args[2:]))
		}
	}
	os.Exit(m.Run())
}

func TestTimeSetup(t *testing.T) {
	fleet := small
	fleet.Fleet = true
	for _, w := range []workload{workloads[0], fleet} {
		b := &bench{w: w, seed: 3, nproc: 2, work: t.TempDir()}
		ns, err := b.timeSetup()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if ns <= 0 {
			t.Errorf("%s: set-up took %d ns", w.Name, ns)
		}
	}
}

// small is a cheap slice of the matrix for end-to-end tests: routing
// over the nine families at the quick sizes, 54 cells of a few rounds.
var small = workload{Name: "small", Protocols: "routing"}

func TestLocalTracedPass(t *testing.T) {
	p, err := runLocalPass(small, 3, 2, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Failures) > 0 {
		t.Fatalf("failures: %v", p.Failures)
	}
	if p.Cells != 54 || len(p.CellMs) != p.Cells {
		t.Fatalf("%d cells, %d cell times; want 54 of each", p.Cells, len(p.CellMs))
	}
	// Tracing observes: the engine legs' traces count exactly what the
	// report does on a clean channel.
	c := p.Print.Counts
	if c["core.rounds"] != c["report.rounds"] || c["core.steps"] != c["report.steps"] || c["core.sent_bits"] != c["report.total_bits"] {
		t.Errorf("trace counts %v disagree with the report's", c)
	}
	if c["routing.route_bits"] <= 0 || c["routing.route_bits"] > c["core.sent_bits"] {
		t.Errorf("routing.route_bits = %d of %d sent bits", c["routing.route_bits"], c["core.sent_bits"])
	}
	// Every cell has an oracle and an engine leg, each the parent of
	// its graph generation and its protocol run.
	spans := p.Spans.snapshot()
	legs := map[int64][]string{}
	children := map[int][]string{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.Name)
		}
	}
	for _, s := range spans {
		if s.Name == "scenario.oracle_leg" || s.Name == "scenario.engine_leg" {
			legs[s.Cell] = append(legs[s.Cell], s.Name)
			if kids := children[s.ID]; len(kids) != 2 {
				t.Errorf("leg %s of cell %d has children %v, want graph.gen and routing.run", s.Name, s.Cell, kids)
			}
		}
	}
	if len(legs) != 54 {
		t.Errorf("%d cells have leg spans, want 54", len(legs))
	}
	for cell, names := range legs {
		if len(names) != 2 {
			t.Errorf("cell %d has legs %v", cell, names)
		}
	}
	l := p.Layers
	for _, name := range []string{"scenario.oracle_leg_s", "scenario.engine_leg_s", "graph.gen_s",
		"core.loop_s", "core.us_per_step", "routing.leg_s", "routing.route_s", "scenario.shard_util"} {
		if l[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, l[name])
		}
	}
	if d := l["routing.leg_s"] - (l["scenario.oracle_leg_s"] + l["scenario.engine_leg_s"]); d > 1e-9 || d < -1e-9 {
		t.Errorf("routing.leg_s %v is not the sum of the legs %v + %v",
			l["routing.leg_s"], l["scenario.oracle_leg_s"], l["scenario.engine_leg_s"])
	}
	if share := l["core.loop_share"]; share <= 0 || share > 1 {
		t.Errorf("core.loop_share = %v, want in (0, 1]", share)
	}
}

func TestFleetTracedPass(t *testing.T) {
	w := small
	w.Faults = "drop=0.01"
	w.Fleet = true
	p, err := runFleetPass(w, 3, 2, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Failures) > 0 {
		t.Fatalf("failures: %v", p.Failures)
	}
	if len(p.CellMs) != p.Cells || p.Cells != 54 {
		t.Fatalf("%d grant-to-result times for %d cells, want 54", len(p.CellMs), p.Cells)
	}
	if p.WorkerPeakKiB <= 0 {
		t.Errorf("worker peak RSS %d KiB", p.WorkerPeakKiB)
	}
	l := p.Layers
	for _, name := range []string{"scenario.engine_leg_s", "core.rounds", "routing.leg_s",
		"scenariod.exec_ms_p50", "scenariod.lease_ms_p50", "scenariod.result_ms_p50",
		"scenariod.lease_hit_ratio", "scenariod.worker_util", "scenariod.ledger_kb_per_cell",
		"scenariod.cache_hit_ratio", "fault.drops"} {
		if l[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, l[name])
		}
	}
	if l["scenariod.lease_hit_ratio"] > 1 || l["scenariod.cache_hit_ratio"] > 1 {
		t.Errorf("ratios above 1: %v", l)
	}
	if l["scenariod.requeues"] != 0 {
		t.Errorf("%v requeues on a healthy fleet", l["scenariod.requeues"])
	}
}

func TestFingerprintDiff(t *testing.T) {
	ref := fingerprint{ReportSHA: "a", Counts: map[string]int64{"core.rounds": 5, "report.rounds": 5}}
	if d := (fingerprint{ReportSHA: "a", Counts: map[string]int64{"report.rounds": 5}}).diff(ref); d != "" {
		t.Errorf("a fingerprint without trace counts differs: %s", d)
	}
	if d := (fingerprint{ReportSHA: "b", Counts: ref.Counts}).diff(ref); d == "" {
		t.Error("another report hash passes")
	}
	if d := (fingerprint{ReportSHA: "a", Counts: map[string]int64{"core.rounds": 6}}).diff(ref); d == "" {
		t.Error("another round count passes")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the program.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"perfbench"}) {
		t.Errorf("paths %v", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d declared %+v, defined %s: %s", i, spec.Workloads[i], w.Name, w.Why)
		}
	}
	check := func(kind string, declared []metric, defined []metricDef) {
		if len(declared) != len(defined) {
			t.Errorf("%s: %d metrics declared, %d defined", kind, len(declared), len(defined))
			return
		}
		for i, d := range defined {
			m := declared[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d declared %+v, defined %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	largest := 0.0
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound != largest {
			t.Errorf("setup_s bound %v, want the largest, %v", m.Bound, largest)
		}
	}
}
