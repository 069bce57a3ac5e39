// Benchdiff is the BENCH regression gate: it loads two or more
// BENCH_<date>.json snapshots (scripts/bench.sh), matches records by
// name across them, and compares every numeric field of the last two
// snapshots as a ratio against a configurable threshold. Records on
// the gate list (-gate; defaults to the fold records whose inputs are
// deterministic or explicitly tracked — engine_scaling,
// trace_overhead, fleet_throughput, e15_semiring_mm,
// e16_sketch_connectivity, e17_fault_recovery) fail the run when any
// field regresses beyond the threshold or the record disappears; every
// other record is reported but never gates. CI runs benchdiff over the
// committed snapshots, so the gate compares recorded history, not a
// fresh benchmark run — see DESIGN.md §15.
//
//	benchdiff BENCH_20260730.json BENCH_20260807.json
//	benchdiff -threshold 0.5 -v BENCH_*.json
//
// Field direction is inferred from the name: speedup/cells-per-sec/
// cost-ratio fields are higher-is-better, everything else numeric
// (ns/op, allocs/op, *_ms, rounds, bits, overhead ratios) is
// lower-is-better; bookkeeping fields (date, iterations, gomaxprocs,
// n, cells, rate, ...) never compare. Timing comparisons are
// iterations-aware: a record measured with fewer than 10 iterations —
// including the fold records, which carry no iteration count — widens
// the threshold 3x, a noise floor for the 3x default benchtime.
//
// Exit status: 0 clean, 1 gated regression, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const defaultGate = "engine_scaling,trace_overhead,fleet_throughput,e15_semiring_mm,e16_sketch_connectivity,e17_fault_recovery"

// snapshot is one BENCH file: records keyed for cross-file matching,
// in file order.
type snapshot struct {
	path  string
	order []string
	recs  map[string]map[string]json.Number
}

// recordKey names a record across snapshots. Names repeat only for the
// per-rate e17_fault_recovery records, so a "rate" field joins the key.
func recordKey(rec map[string]json.Number, name string) string {
	if rate, ok := rec["rate"]; ok {
		return fmt.Sprintf("%s@rate=%s", name, rate.String())
	}
	return name
}

func loadSnapshot(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw []map[string]any
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.UseNumber()
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s := &snapshot{path: path, recs: map[string]map[string]json.Number{}}
	for _, r := range raw {
		name, _ := r["name"].(string)
		if name == "" {
			continue
		}
		rec := map[string]json.Number{}
		for k, v := range r {
			if n, ok := v.(json.Number); ok {
				rec[k] = n
			}
		}
		key := recordKey(rec, name)
		if _, dup := s.recs[key]; dup {
			return nil, fmt.Errorf("%s: duplicate record %q", path, key)
		}
		s.order = append(s.order, key)
		s.recs[key] = rec
	}
	return s, nil
}

type direction int

const (
	skip direction = iota
	lowerBetter
	higherBetter
)

// fieldDirection classifies a record field. Bookkeeping fields never
// compare; speedups, throughput and algorithm-advantage ratios regress
// downward; every other numeric field (times, allocations, rounds,
// bits, overhead ratios) regresses upward.
func fieldDirection(field string) direction {
	switch field {
	case "date", "iterations", "gomaxprocs", "n", "cells", "rate", "seed":
		return skip
	}
	if strings.Contains(field, "speedup") || strings.Contains(field, "cells_per_sec") || field == "cost_ratio" {
		return higherBetter
	}
	return lowerBetter
}

// isTiming reports whether a field is a wall-clock measurement, the
// class whose run-to-run noise the iterations-aware floor widens.
func isTiming(field string) bool {
	return field == "ns_per_op" || strings.HasSuffix(field, "_ns") || strings.HasSuffix(field, "_ms")
}

// row is one compared field of one record, across all snapshots.
type row struct {
	key, field string
	values     []string // one per snapshot; "-" where absent
	delta      string   // last-step change, signed percent
	status     string   // ok | improved | REGRESSED | new | gone
	gated      bool
}

// compareField classifies the last-step change of one field. The
// worsening ratio is direction-adjusted so > 1 always means worse; the
// threshold widens 3x for timing fields measured under 10 iterations.
func compareField(field string, old, new float64, minIters int64, threshold float64) (delta, status string) {
	eff := threshold
	if isTiming(field) && minIters < 10 {
		eff *= 3
	}
	if old == 0 && new == 0 {
		return "+0.0%", "ok"
	}
	if old <= 0 || new <= 0 {
		return "n/a", "ok" // a sign flip or zero base has no meaningful ratio
	}
	worse := new / old
	if fieldDirection(field) == higherBetter {
		worse = old / new
	}
	delta = fmt.Sprintf("%+.1f%%", (new/old-1)*100)
	switch {
	case worse > 1+eff:
		return delta, "REGRESSED"
	case worse < 1/(1+eff):
		return delta, "improved"
	default:
		return delta, "ok"
	}
}

func formatNumber(n json.Number, ok bool) string {
	if !ok {
		return "-"
	}
	return n.String()
}

// minIterations is the smaller iteration count of the two compared
// records; records without one (the fold records) count as 1 — their
// timing fields are single-shot wall clocks and get the widened floor.
func minIterations(old, new map[string]json.Number) int64 {
	m := func(rec map[string]json.Number) int64 {
		if n, ok := rec["iterations"]; ok {
			if v, err := n.Int64(); err == nil {
				return v
			}
		}
		return 1
	}
	a, b := m(old), m(new)
	if a < b {
		return a
	}
	return b
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0.25, "fractional worsening beyond which a field regresses (timing fields under 10 iterations get 3x)")
	gate := fs.String("gate", defaultGate, "comma-separated record names whose regressions fail the run")
	verbose := fs.Bool("v", false, "print every compared field, not just gated records and changes")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchdiff [-threshold F] [-gate NAMES] [-v] OLD.json [...] NEW.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	paths := fs.Args()
	if len(paths) < 2 {
		fs.Usage()
		return 2
	}
	snaps := make([]*snapshot, len(paths))
	for i, p := range paths {
		s, err := loadSnapshot(p)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		snaps[i] = s
	}
	gated := map[string]bool{}
	for _, name := range strings.Split(*gate, ",") {
		if name = strings.TrimSpace(name); name != "" {
			gated[name] = true
		}
	}
	baseName := func(key string) string { return strings.SplitN(key, "@", 2)[0] }

	// Union of record keys in first-appearance order across snapshots.
	var keys []string
	seen := map[string]bool{}
	for _, s := range snaps {
		for _, k := range s.order {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}

	old, latest := snaps[len(snaps)-2], snaps[len(snaps)-1]
	var rows []row
	regressions := 0
	for _, key := range keys {
		g := gated[baseName(key)]
		o, inOld := old.recs[key]
		n, inNew := latest.recs[key]
		switch {
		case !inNew:
			rows = append(rows, row{key: key, field: "", values: trajectory(snaps, key, "name"), delta: "", status: "gone", gated: g})
			if g && inOld {
				regressions++
			}
			continue
		case !inOld:
			rows = append(rows, row{key: key, field: "", values: trajectory(snaps, key, "name"), delta: "", status: "new", gated: g})
			continue
		}
		// Compare every numeric field present on both sides,
		// deterministically ordered.
		fields := make([]string, 0, len(n))
		for f := range n {
			if _, ok := o[f]; ok && fieldDirection(f) != skip {
				fields = append(fields, f)
			}
		}
		sort.Strings(fields)
		iters := minIterations(o, n)
		for _, f := range fields {
			ov, _ := o[f].Float64()
			nv, _ := n[f].Float64()
			if math.IsNaN(ov) || math.IsNaN(nv) {
				continue
			}
			delta, status := compareField(f, ov, nv, iters, *threshold)
			if status == "REGRESSED" && g {
				regressions++
			}
			rows = append(rows, row{key: key, field: f, values: trajectory(snaps, key, f), delta: delta, status: status, gated: g})
		}
	}

	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "record\tfield\t%s\tdelta\tstatus\n", strings.Join(pathsOf(snaps), " -> "))
	printed := 0
	for _, r := range rows {
		if !*verbose && !r.gated && r.status == "ok" {
			continue
		}
		mark := ""
		if r.gated {
			mark = "*"
		}
		fmt.Fprintf(tw, "%s%s\t%s\t%s\t%s\t%s\n", mark, r.key, r.field, strings.Join(r.values, " -> "), r.delta, r.status)
		printed++
	}
	tw.Flush()
	fmt.Fprintf(stdout, "\n%d records, %d rows shown (* = gated); gated regressions: %d (threshold %.0f%%)\n",
		len(keys), printed, regressions, *threshold*100)
	if regressions > 0 {
		return 1
	}
	return 0
}

func pathsOf(snaps []*snapshot) []string {
	out := make([]string, len(snaps))
	for i, s := range snaps {
		out[i] = s.path
	}
	return out
}

// trajectory renders one field of one record across every snapshot,
// "-" where the record or field is absent. field "name" stands for
// bare presence (used for new/gone rows).
func trajectory(snaps []*snapshot, key, field string) []string {
	out := make([]string, len(snaps))
	for i, s := range snaps {
		rec, ok := s.recs[key]
		if !ok {
			out[i] = "-"
			continue
		}
		if field == "name" {
			out[i] = "present"
			continue
		}
		v, ok := rec[field]
		out[i] = formatNumber(v, ok)
	}
	return out
}
