package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/scenario"
)

// pass is one execution of a workload's whole matrix slice.
type pass struct {
	WallNs        int64     // end of set-up until the report is written or fetched
	CellMs        []float64 // one time per cell
	Cells         int
	Proc          procStats // runtime counter deltas, summed over the processes that ran cells
	WorkerPeakKiB int64     // sum of the worker processes' peak RSS (fleet only)

	Print    fingerprint
	Failures []string

	Layers map[string]float64 // traced passes only
	Spans  *recorder          // traced passes only
	Checks []string           // what a traced pass's reconcile gates covered
}

// fingerprint is what must repeat exactly between runs of one workload
// at one seed: the canonical report's SHA-256 and the exact counts.
// Report counts exist on every pass; trace counts only on traced ones.
type fingerprint struct {
	ReportSHA string           `json:"report_sha256"`
	Counts    map[string]int64 `json:"counts"`
}

// reportFingerprint canonicalises rep in place and fingerprints it.
func reportFingerprint(rep *scenario.Report) (fingerprint, error) {
	rep.Canonicalize()
	data, err := json.Marshal(rep)
	if err != nil {
		return fingerprint{}, fmt.Errorf("fingerprinting report: %w", err)
	}
	sum := sha256.Sum256(data)
	fp := fingerprint{ReportSHA: hex.EncodeToString(sum[:]), Counts: map[string]int64{}}
	for _, c := range rep.Cells {
		fp.Counts["report.rounds"] += int64(c.Rounds)
		fp.Counts["report.steps"] += int64(c.Steps)
		fp.Counts["report.total_bits"] += c.TotalBits
		if c.Outcome == scenario.OutcomeDetected {
			fp.Counts["fault.detected_cells"]++
		}
	}
	return fp, nil
}

// diff describes how f differs from ref on the fields both carry, or
// returns "" when they agree.
func (f fingerprint) diff(ref fingerprint) string {
	if f.ReportSHA != ref.ReportSHA {
		return fmt.Sprintf("report sha256 %s, reference %s", f.ReportSHA, ref.ReportSHA)
	}
	for _, name := range sortedKeys(f.Counts) {
		if want, ok := ref.Counts[name]; ok && want != f.Counts[name] {
			return fmt.Sprintf("%s = %d, reference %d", name, f.Counts[name], want)
		}
	}
	return ""
}

// setUpLocal is what a local pass does before its first cell: build and
// expand the matrix.
func setUpLocal(w workload, seed int64) (*scenario.Matrix, []scenario.Cell, error) {
	m, err := w.matrix(seed)
	if err != nil {
		return nil, nil, err
	}
	return m, m.Expand(), nil
}

// runLocalPass runs the workload's matrix in this process through
// scenario.RunMatrixOpts with shards cells in flight, the way
// scenariorun does, and writes the report. A traced pass also wraps the
// matrix's Family.Gen and Protocol.Run in spans and archives engine
// traces, from which it computes the per-layer metrics.
func runLocalPass(w workload, seed int64, shards int, work string, traced bool) (*pass, error) {
	dir, err := os.MkdirTemp(work, "local-")
	if err != nil {
		return nil, fmt.Errorf("creating run directory: %w", err)
	}
	defer os.RemoveAll(dir)
	m, cells, err := setUpLocal(w, seed)
	if err != nil {
		return nil, err
	}
	opt := scenario.RunOptions{Shards: shards}
	p := &pass{Cells: len(cells)}
	if traced {
		p.Spans = newRecorder()
		wrapMatrix(m, p.Spans)
		opt.TraceDir = filepath.Join(dir, "traces")
	}

	before := readProcStats()
	t1 := time.Now()
	rep, err := scenario.RunMatrixOpts(m, opt)
	if err != nil {
		return nil, fmt.Errorf("running matrix: %w", err)
	}
	if _, err := rep.WriteJSON(filepath.Join(dir, "report.json")); err != nil {
		return nil, fmt.Errorf("writing report: %w", err)
	}
	p.WallNs = time.Since(t1).Nanoseconds()
	p.Proc = readProcStats().sub(before)

	outcomes := map[int64]string{}
	for _, c := range rep.Cells {
		p.CellMs = append(p.CellMs, float64(c.OracleNs+c.EngineNs)/1e6)
		outcomes[c.Seed] = c.Outcome
		if c.Outcome != scenario.OutcomeOK {
			p.Failures = append(p.Failures, fmt.Sprintf("cell %s n=%d %s %s: %s %s%s",
				c.Family, c.N, c.Engine, c.Protocol, c.Outcome, c.Error, c.Divergence))
		}
	}
	if p.Print, err = reportFingerprint(rep); err != nil {
		return nil, err
	}
	if traced {
		et, err := readTraces(opt.TraceDir, outcomes)
		if err != nil {
			return nil, err
		}
		p.Failures = append(p.Failures, et.Failures...)
		p.Checks = append(p.Checks, et.summary())
		et.countInto(p.Print.Counts)
		p.Layers = localLayers(p.Spans.snapshot(), cells, et, shards, p.WallNs)
	}
	return p, nil
}

// wrapMatrix puts a span around every Family.Gen and Protocol.Run call
// the matrix makes. A leg generates its graph and then runs its
// protocol on the same goroutine, so each Run call closes a leg span
// that starts at its cell's latest generation. Runs are called with the
// cell seed plus one, generations with the cell seed.
func wrapMatrix(m *scenario.Matrix, rec *recorder) {
	var mu sync.Mutex
	lastGen := map[int64]span{}
	for i := range m.Families {
		gen := m.Families[i].Gen
		m.Families[i].Gen = func(n int, seed int64) *graph.Graph {
			start := rec.now()
			g := gen(n, seed)
			s := span{Name: "graph.gen", Cell: seed, Start: start, End: rec.now()}
			s.ID = rec.add(s)
			mu.Lock()
			lastGen[seed] = s
			mu.Unlock()
			return g
		}
	}
	for i := range m.Protocols {
		run, module := m.Protocols[i].Run, moduleOf[m.Protocols[i].Name]
		m.Protocols[i].Run = func(g *graph.Graph, bandwidth int, seed int64, leg scenario.Leg) (*scenario.LegResult, error) {
			start := rec.now()
			res, err := run(g, bandwidth, seed, leg)
			end := rec.now()
			cell := seed - 1
			runID := rec.add(span{Name: module + ".run", Cell: cell, Start: start, End: end})
			mu.Lock()
			gen, ok := lastGen[cell]
			mu.Unlock()
			legSpan := span{Name: "scenario.engine_leg", Cell: cell, Start: start, End: end}
			if leg.Oracle {
				legSpan.Name = "scenario.oracle_leg"
			}
			if ok {
				legSpan.Start = gen.Start
			}
			legID := rec.add(legSpan)
			rec.setParent(runID, legID)
			if ok {
				rec.setParent(gen.ID, legID)
			}
			return res, err
		}
	}
}

// countInto adds the trace-derived exact counts to a fingerprint.
func (t *engineTotals) countInto(counts map[string]int64) {
	counts["core.rounds"] = t.Rounds
	counts["core.steps"] = t.Steps
	counts["core.sent_bits"] = t.SentBits
	counts["core.delivered"] = t.Delivered
	counts["routing.route_bits"] = t.RouteBits
	counts["fault.drops"] = t.Drops
	counts["fault.corruptions"] = t.Corruptions
}

// legTimes is the per-leg wall time of a pass, however it was measured.
type legTimes struct {
	OracleNs, EngineNs int64
	ModuleLegNs        map[string]int64 // both legs, by protocol module
	ModuleLocalNs      map[string]int64 // engine leg outside the round loop, by module
	ModuleLoopNs       map[string]int64 // engine leg inside the round loop, by module
}

// localLayers computes a local traced pass's per-layer metrics from its
// spans and engine traces.
func localLayers(spans []span, cells []scenario.Cell, et *engineTotals, shards int, wallNs int64) map[string]float64 {
	moduleByCell := map[int64]string{}
	for _, c := range cells {
		moduleByCell[c.Seed] = moduleOf[c.Protocol.Name]
	}
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	lt := legTimes{ModuleLegNs: map[string]int64{}, ModuleLocalNs: map[string]int64{}, ModuleLoopNs: map[string]int64{}}
	var genNs int64
	for _, s := range spans {
		module := moduleByCell[s.Cell]
		switch s.Name {
		case "graph.gen":
			genNs += s.dur()
		case "scenario.oracle_leg":
			lt.OracleNs += s.dur()
			lt.ModuleLegNs[module] += s.dur()
		case "scenario.engine_leg":
			lt.EngineNs += s.dur()
			lt.ModuleLegNs[module] += s.dur()
			loopNs := et.CellLoopNs[s.Cell]
			lt.ModuleLoopNs[module] += loopNs
			for _, c := range children[s.ID] {
				if c.Name == module+".run" {
					// The engine trace's rounds are the run's only
					// children; they run back to back inside it.
					loop := span{Start: c.Start, End: c.Start + loopNs}
					lt.ModuleLocalNs[module] += selfNs(c, []span{loop})
				}
			}
		}
	}
	l := layerValues(lt, et, shards, wallNs)
	l["graph.gen_s"] = seconds(genNs)
	return l
}

// layerValues turns leg times and engine totals into the per-layer
// metrics both kinds of workload share.
func layerValues(lt legTimes, et *engineTotals, shards int, wallNs int64) map[string]float64 {
	l := map[string]float64{
		"scenario.oracle_leg_s": seconds(lt.OracleNs),
		"scenario.engine_leg_s": seconds(lt.EngineNs),
		"scenario.shard_util":   shardUtil(lt.OracleNs+lt.EngineNs, shards, wallNs),
		"core.rounds":           float64(et.Rounds),
		"core.steps":            float64(et.Steps),
		"core.sent_bits":        float64(et.SentBits),
		"core.delivered":        float64(et.Delivered),
		"core.loop_s":           seconds(et.LoopNs),
		"sketch.boruvka_s":      seconds(et.BoruvkaNs),
		"routing.route_s":       seconds(et.RouteNs),
		"routing.route_bits":    float64(et.RouteBits),
		"semiring.loop_s":       seconds(lt.ModuleLoopNs["semiring"]),
		"sketch.local_s":        seconds(lt.ModuleLocalNs["sketch"]),
		"semiring.local_s":      seconds(lt.ModuleLocalNs["semiring"]),
		"fault.drops":           float64(et.Drops),
		"fault.corruptions":     float64(et.Corruptions),
	}
	if et.Steps > 0 {
		l["core.us_per_step"] = float64(et.LoopNs) / 1e3 / float64(et.Steps)
	}
	if lt.EngineNs > 0 {
		l["core.loop_share"] = float64(et.LoopNs) / float64(lt.EngineNs)
	}
	for _, module := range []string{"sketch", "routing", "semiring", "circsim", "triangles", "subgraph"} {
		l[module+".leg_s"] = seconds(lt.ModuleLegNs[module])
	}
	return l
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }
