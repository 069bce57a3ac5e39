package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/core"
)

// ReportSchema names the JSON layout documented in DESIGN.md §8; bump it
// when a field changes meaning. v2 added Outcome/Error/Attempts per cell
// and Detected/Infra to the summary (the fault-injection harness).
const ReportSchema = "scenarios/v2"

// Cell outcomes. Every cell lands in exactly one:
//
//   - OutcomeOK: both legs succeeded and agree — under faults, the
//     protocol recovered the exact fault-free answer.
//   - OutcomeDetected: the engine leg failed loudly under an active
//     fault plan (frame validation, stall detector, certificate check).
//     This is the contracted fallback of every hardened protocol.
//   - OutcomeDiverged: the legs disagree, a leg failed without faults to
//     blame, or — the one unforgivable case — the engine leg ACCEPTED a
//     wrong answer under faults (a silent corruption).
//   - OutcomeInfra: a leg panicked or timed out even after its
//     retries; the cell says nothing about the protocol.
const (
	OutcomeOK       = "ok"
	OutcomeDetected = "detected"
	OutcomeDiverged = "diverged"
	OutcomeInfra    = "infra"
)

// CellResult is the machine-readable record of one matrix cell: its
// coordinates, the accounting shared by both legs (identical by the
// engine's determinism guarantee — any difference is a divergence), and
// the per-leg wall times.
type CellResult struct {
	Family   string `json:"family"`
	N        int    `json:"n"`
	Engine   string `json:"engine"`
	Protocol string `json:"protocol"`
	Seed     int64  `json:"seed"`

	GraphEdges  int    `json:"graph_edges"`
	Rounds      int    `json:"rounds"`
	Steps       int    `json:"steps"`
	TotalBits   int64  `json:"total_bits"`
	MaxLinkBits int    `json:"max_link_bits"`
	MaxNodeBits int64  `json:"max_node_bits"`
	Output      string `json:"output"`

	OracleNs int64 `json:"oracle_ns"`
	EngineNs int64 `json:"engine_ns"`

	Outcome  string `json:"outcome"`
	Error    string `json:"error,omitempty"`    // detected/infra detail
	Attempts int    `json:"attempts,omitempty"` // recorded when a leg was retried

	Diverged   bool   `json:"diverged"`
	Divergence string `json:"divergence,omitempty"`
}

// Summary aggregates the run for trend tracking (bench.sh folds it into
// BENCH_<date>.json).
type Summary struct {
	Cells       int      `json:"cells"`
	Divergences int      `json:"divergences"`
	Detected    int      `json:"detected"`
	Infra       int      `json:"infra"`
	Families    []string `json:"families"`
	Sizes       []int    `json:"sizes"`
	Engines     []string `json:"engines"`
	Protocols   []string `json:"protocols"`
	TotalRounds int64    `json:"total_rounds"`
	TotalBits   int64    `json:"total_bits"`
	OracleNs    int64    `json:"oracle_ns"`
	EngineNs    int64    `json:"engine_ns"`
	WallNs      int64    `json:"wall_ns"`
}

// Report is the full SCENARIOS_<date>.json document.
type Report struct {
	Schema   string       `json:"schema"`
	Date     string       `json:"date"`
	BaseSeed int64        `json:"base_seed"`
	Shards   int          `json:"shards"`
	Faults   string       `json:"faults,omitempty"`
	Summary  Summary      `json:"summary"`
	Cells    []CellResult `json:"cells"`
}

// legOut is one leg's outcome, before classify folds the pair.
type legOut struct {
	res      *LegResult
	edges    int
	ns       int64
	err      error
	infra    bool // panic or timeout, as opposed to a protocol error
	attempts int
}

// oracleLeg is the oracle side of every cell: the sequential scalar
// engine on a clean channel.
func oracleLeg(faulty bool) Leg {
	return Leg{Oracle: true, Faulty: faulty, Env: core.Env{Parallelism: 1}}
}

// runLeg regenerates the cell's instance and executes one leg; an engine
// leg takes its worker count and batch mode from the cell.
// Regenerating per leg (rather than sharing one graph) puts family
// generation itself under differential test and keeps legs fully
// independent.
func runLeg(c Cell, leg Leg) legOut {
	g := c.Family.Gen(c.N, c.Seed)
	if !leg.Oracle {
		leg.Batch = c.Engine.Batch
		leg.Env.Parallelism = core.ResolveParallelism(c.Engine.Parallelism)
	}
	start := time.Now()
	res, err := c.Protocol.Run(g, c.Engine.Bandwidth, c.Seed+1, leg)
	return legOut{res: res, edges: g.M(), ns: time.Since(start).Nanoseconds(), err: err}
}

// statsDiff returns "" when the two legs' Stats agree bit for bit, else a
// description of the first differing field.
func statsDiff(a, b core.Stats) string {
	switch {
	case a.Rounds != b.Rounds:
		return fmt.Sprintf("Rounds %d != %d", a.Rounds, b.Rounds)
	case a.Steps != b.Steps:
		return fmt.Sprintf("Steps %d != %d", a.Steps, b.Steps)
	case a.TotalBits != b.TotalBits:
		return fmt.Sprintf("TotalBits %d != %d", a.TotalBits, b.TotalBits)
	case a.MaxLinkBits != b.MaxLinkBits:
		return fmt.Sprintf("MaxLinkBits %d != %d", a.MaxLinkBits, b.MaxLinkBits)
	case a.MaxNodeBits != b.MaxNodeBits:
		return fmt.Sprintf("MaxNodeBits %d != %d", a.MaxNodeBits, b.MaxNodeBits)
	case a.CutBits != b.CutBits:
		return fmt.Sprintf("CutBits %d != %d", a.CutBits, b.CutBits)
	case len(a.NodeSentBits) != len(b.NodeSentBits):
		return fmt.Sprintf("NodeSentBits length %d != %d", len(a.NodeSentBits), len(b.NodeSentBits))
	}
	for i := range a.NodeSentBits {
		if a.NodeSentBits[i] != b.NodeSentBits[i] {
			return fmt.Sprintf("NodeSentBits[%d] %d != %d", i, a.NodeSentBits[i], b.NodeSentBits[i])
		}
	}
	return ""
}

// classify folds a cell's two leg outcomes into its CellResult. Under an
// active fault plan the engine leg's Stats legitimately differ from the
// oracle's (burned sketch copies, extra phases), so the stats diff
// only gates clean cells; outputs must match exactly either way — a
// faulted engine leg that returns success with a different output is a
// silent corruption, the one outcome the whole subsystem exists to rule
// out.
func classify(c Cell, o, e legOut, faulty bool) CellResult {
	cr := CellResult{
		Family:   c.Family.Name,
		N:        c.N,
		Engine:   c.Engine.Name,
		Protocol: c.Protocol.Name,
		Seed:     c.Seed,
		OracleNs: o.ns,
		EngineNs: e.ns,
	}
	if o.attempts > 1 || e.attempts > 1 {
		cr.Attempts = o.attempts
		if e.attempts > cr.Attempts {
			cr.Attempts = e.attempts
		}
	}
	switch {
	case o.infra:
		cr.Outcome = OutcomeInfra
		cr.Error = fmt.Sprintf("oracle leg: %v", o.err)
	case e.infra:
		cr.Outcome = OutcomeInfra
		cr.Error = fmt.Sprintf("engine leg: %v", e.err)
	case o.err != nil:
		// The oracle leg runs on a clean channel even in faulted sweeps;
		// its failure is a real protocol/self-check failure.
		cr.Outcome = OutcomeDiverged
		cr.Divergence = fmt.Sprintf("oracle leg error: %v", o.err)
	case e.err != nil && faulty:
		cr.Outcome = OutcomeDetected
		cr.Error = e.err.Error()
	case e.err != nil:
		cr.Outcome = OutcomeDiverged
		cr.Divergence = fmt.Sprintf("engine leg error: %v", e.err)
	case o.res == nil || e.res == nil:
		// A protocol returning (nil, nil) is a broken adapter; flag
		// the cell rather than crash the sweep.
		cr.Outcome = OutcomeDiverged
		cr.Divergence = fmt.Sprintf("protocol returned no result (oracle nil=%v, engine nil=%v)",
			o.res == nil, e.res == nil)
	case o.edges != e.edges:
		cr.Outcome = OutcomeDiverged
		cr.Divergence = fmt.Sprintf("generated graphs differ: %d vs %d edges", o.edges, e.edges)
	case o.res.Output != e.res.Output:
		cr.Outcome = OutcomeDiverged
		if faulty {
			cr.Divergence = fmt.Sprintf("SILENT CORRUPTION: engine leg accepted %q under faults, oracle says %q",
				e.res.Output, o.res.Output)
		} else {
			cr.Divergence = fmt.Sprintf("outputs differ: oracle %q vs engine %q", o.res.Output, e.res.Output)
		}
	default:
		cr.Outcome = OutcomeOK
		if !faulty {
			if d := statsDiff(o.res.Stats, e.res.Stats); d != "" {
				cr.Outcome = OutcomeDiverged
				cr.Divergence = "stats differ: " + d
			}
		}
	}
	cr.Diverged = cr.Outcome == OutcomeDiverged
	if o.err == nil && o.res != nil {
		cr.GraphEdges = o.edges
		cr.Rounds = o.res.Stats.Rounds
		cr.Steps = o.res.Stats.Steps
		cr.TotalBits = o.res.Stats.TotalBits
		cr.MaxLinkBits = o.res.Stats.MaxLinkBits
		cr.MaxNodeBits = o.res.Stats.MaxNodeBits
		cr.Output = o.res.Output
	}
	return cr
}

// summarize folds the cell records into the Summary block.
func summarize(rep *Report, m *Matrix) Summary {
	s := Summary{Cells: len(rep.Cells)}
	for _, f := range m.Families {
		s.Families = append(s.Families, f.Name)
	}
	s.Sizes = append(s.Sizes, m.Sizes...)
	for _, e := range m.Engines {
		s.Engines = append(s.Engines, e.Name)
	}
	for _, p := range m.Protocols {
		s.Protocols = append(s.Protocols, p.Name)
	}
	sort.Strings(s.Families)
	sort.Strings(s.Engines)
	sort.Strings(s.Protocols)
	for _, c := range rep.Cells {
		switch c.Outcome {
		case OutcomeDiverged:
			s.Divergences++
		case OutcomeDetected:
			s.Detected++
		case OutcomeInfra:
			s.Infra++
		}
		s.TotalRounds += int64(c.Rounds)
		s.TotalBits += c.TotalBits
		s.OracleNs += c.OracleNs
		s.EngineNs += c.EngineNs
	}
	return s
}

// BuildReport assembles a Report from cell results in matrix-expansion
// order — RunMatrixOpts's pool, or the scenariod server collecting its
// workers' cells. faults is the run's fault spec ("", "none" or a Spec
// string; recorded when active).
func BuildReport(m *Matrix, cells []CellResult, faults string) *Report {
	rep := &Report{
		Schema:   ReportSchema,
		Date:     time.Now().Format("20060102"),
		BaseSeed: m.BaseSeed,
		Cells:    cells,
	}
	if faults != "" && faults != "none" {
		rep.Faults = faults
	}
	rep.Summary = summarize(rep, m)
	return rep
}

// Canonicalize zeroes every nondeterministic field of the report —
// date, shard count, wall and per-leg timings — so two complete runs of
// the same matrix marshal to byte-identical JSON. This is the report
// form scenariod serves: it is what lets the chaos harness assert that
// a run surviving a SIGKILL'd worker ends byte-for-byte equal to an
// uninterrupted one.
func (rep *Report) Canonicalize() {
	rep.Date = ""
	rep.Shards = 0
	rep.Summary.WallNs = 0
	rep.Summary.OracleNs = 0
	rep.Summary.EngineNs = 0
	for i := range rep.Cells {
		rep.Cells[i].OracleNs = 0
		rep.Cells[i].EngineNs = 0
	}
}

// ExitCode maps the run to the scenariorun process exit code documented
// in DESIGN.md §8: 0 all ok, 1 any divergence (including silent
// corruption under faults), 3 detected faults only, 4 infrastructure
// failures (2 is reserved for usage errors). Divergence outranks infra
// outranks detected: the worst news is the headline.
func (rep *Report) ExitCode() int {
	var div, det, infra int
	for _, c := range rep.Cells {
		switch {
		case c.Diverged || c.Outcome == OutcomeDiverged:
			div++
		case c.Outcome == OutcomeInfra:
			infra++
		case c.Outcome == OutcomeDetected:
			det++
		}
	}
	switch {
	case div > 0:
		return 1
	case infra > 0:
		return 4
	case det > 0:
		return 3
	default:
		return 0
	}
}

// WriteJSON writes the report to path (SCENARIOS_<date>.json by
// convention) and returns the path actually written.
func (rep *Report) WriteJSON(path string) (string, error) {
	if path == "" {
		path = fmt.Sprintf("SCENARIOS_%s.json", rep.Date)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// WriteAndReport writes the report to path ("" = SCENARIOS_<date>.json),
// prints the summary line to w and any divergences to errw, and returns
// the process exit code (see ExitCode; a write error returns 1). Both
// cmd entry points share it so divergence rendering cannot drift.
func (rep *Report) WriteAndReport(path string, w, errw io.Writer) int {
	written, err := rep.WriteJSON(path)
	if err != nil {
		fmt.Fprintf(errw, "scenario: %v\n", err)
		return 1
	}
	s := rep.Summary
	fmt.Fprintf(w, "scenario matrix: %d cells, %d divergences, %d detected, %d infra, rounds=%d bits=%d; wrote %s\n",
		s.Cells, s.Divergences, s.Detected, s.Infra, s.TotalRounds, s.TotalBits, written)
	if div := rep.Divergent(); len(div) > 0 {
		fmt.Fprintf(errw, "DIVERGENCES: %d\n", len(div))
		for _, c := range div {
			fmt.Fprintf(errw, "  %s n=%d %s %s: %s\n", c.Family, c.N, c.Engine, c.Protocol, c.Divergence)
		}
	} else if s.Detected == 0 && s.Infra == 0 {
		fmt.Fprintln(w, "  oracle and engine agree bit-for-bit on every cell")
	}
	for _, c := range rep.Cells {
		if c.Outcome == OutcomeInfra {
			fmt.Fprintf(errw, "  INFRA %s n=%d %s %s: %s\n", c.Family, c.N, c.Engine, c.Protocol, c.Error)
		}
	}
	return rep.ExitCode()
}

// Divergent returns the cells that diverged (empty on a clean run).
func (rep *Report) Divergent() []CellResult {
	var out []CellResult
	for _, c := range rep.Cells {
		if c.Diverged {
			out = append(out, c)
		}
	}
	return out
}
