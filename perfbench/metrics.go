package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the metrics of an untraced run (--trace 0): what a user
// of scenariorun or a scenariod fleet waits on.
var endToEnd = []metricDef{
	{"cells_per_s", "cells/s", "higher"},
	{"cell_p50_ms", "ms", "lower"},
	{"cell_p90_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"max_rss_mb", "MiB", "lower"},
}

// perLayer are the metrics of a traced run (--trace 1). Exact counts
// (core.rounds … fault.detected_cells) are the simulated statistics a
// change meant only to speed things up must leave identical; their
// direction only says which way a protocol change would improve them.
var perLayer = []metricDef{
	{"scenario.oracle_leg_s", "s", "lower"},
	{"scenario.engine_leg_s", "s", "lower"},
	{"scenario.shard_util", "ratio", "higher"},
	{"graph.gen_s", "s", "lower"},
	{"core.rounds", "count", "lower"},
	{"core.steps", "count", "lower"},
	{"core.sent_bits", "bit", "lower"},
	{"core.delivered", "count", "lower"},
	{"core.loop_s", "s", "lower"},
	{"core.us_per_step", "us", "lower"},
	{"core.loop_share", "ratio", "lower"},
	{"sketch.leg_s", "s", "lower"},
	{"sketch.boruvka_s", "s", "lower"},
	{"sketch.local_s", "s", "lower"},
	{"routing.leg_s", "s", "lower"},
	{"routing.route_s", "s", "lower"},
	{"routing.route_bits", "bit", "lower"},
	{"semiring.leg_s", "s", "lower"},
	{"semiring.loop_s", "s", "lower"},
	{"semiring.local_s", "s", "lower"},
	{"circsim.leg_s", "s", "lower"},
	{"triangles.leg_s", "s", "lower"},
	{"subgraph.leg_s", "s", "lower"},
	{"fault.drops", "count", "lower"},
	{"fault.corruptions", "count", "lower"},
	{"fault.detected_cells", "count", "lower"},
	{"scenariod.queue_wait_ms_p50", "ms", "lower"},
	{"scenariod.exec_ms_p50", "ms", "lower"},
	{"scenariod.svc_ms_per_cell", "ms", "lower"},
	{"scenariod.lease_ms_p50", "ms", "lower"},
	{"scenariod.result_ms_p50", "ms", "lower"},
	{"scenariod.lease_hit_ratio", "ratio", "higher"},
	{"scenariod.worker_util", "ratio", "higher"},
	{"scenariod.requeues", "count", "lower"},
	{"scenariod.ledger_kb_per_cell", "KiB", "lower"},
	{"scenariod.cache_hit_ratio", "ratio", "higher"},
	{"process.alloc_kb_per_cell", "KiB", "lower"},
	{"process.gc_cpu_frac", "ratio", "lower"},
	{"obs.trace_overhead", "ratio", "lower"},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is what a run measured, before printing.
type report struct {
	Values    map[string]float64
	Notes     map[string]string // metric → sample count or why it was not measured
	Head      []string          // lines before the metrics
	Extra     []string          // lines after the metrics
	Attempted int
	Failures  []string
}

// print writes the head lines, one line per metric of defs — name,
// value, unit, note — the extra lines and failures, and last the JSON
// result line.
func (r *report) print(w io.Writer, defs []metricDef) error {
	for _, line := range r.Head {
		fmt.Fprintln(w, line)
	}
	for _, d := range defs {
		note := r.Notes[d.Name]
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-8s%s\n", d.Name, r.Values[d.Name], d.Unit, note)
	}
	for _, line := range r.Extra {
		fmt.Fprintln(w, line)
	}
	failures := append([]string(nil), r.Failures...)
	sort.Strings(failures)
	for _, f := range failures {
		fmt.Fprintf(w, "FAIL: %s\n", f)
	}
	res := result{
		Correct:   len(r.Failures) == 0,
		Attempted: max(r.Attempted, 1),
		Failed:    min(len(r.Failures), max(r.Attempted, 1)),
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: r.Values[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
