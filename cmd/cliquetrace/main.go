// Cliquetrace records and analyzes engine-trace/v1 round traces
// (internal/obs): per-phase rounds·bits profiles, reconciliation of the
// trace against the run's authoritative Stats, hot-round/hot-link
// ranking, and a diff of two runs' phase profiles. The fleet
// subcommand does the same for fleet-trace/v1 cell-lifecycle spans: it
// folds the span records of a completed scenariod run ledger, renders
// the throughput accounting (cells/sec, leg latencies, worker
// utilization) and the critical path, and reconciles the spans against
// the run's canonical report.
//
//	cliquetrace record    -family gnp -n 64 -engine par4 -protocol connectivity -dir traces
//	cliquetrace summarize traces/trace-s2.ndjson
//	cliquetrace diff      seq.ndjson par.ndjson
//	cliquetrace fleet     ledgers/run-0.jsonl
//
// summarize and fleet exit 0 only when their trace reconciles: every
// identity between the folded records and the authoritative account
// (engine Stats; the canonical report) must hold exactly. A
// reconciliation failure means the trace is not a faithful second
// account of the run and exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/scenariod"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "record":
		os.Exit(record(os.Args[2:]))
	case "summarize":
		os.Exit(summarize(os.Args[2:]))
	case "diff":
		os.Exit(diff(os.Args[2:]))
	case "fleet":
		os.Exit(fleet(os.Args[2:]))
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  cliquetrace record    [-family NAME] [-n N] [-engine NAME] [-protocol NAME] [-seed S] [-dir DIR]
  cliquetrace summarize [-top K] TRACE.ndjson
  cliquetrace diff      A.ndjson B.ndjson
  cliquetrace fleet     [-top K] RUN-LEDGER.jsonl`)
}

// record runs one scenario cell's differential pair with the engine leg
// traced into -dir, prints the archived trace paths, and propagates the
// cell outcome (non-ok exits 1). The oracle leg stays untraced, so the
// archive holds exactly the engine leg's runs.
func record(args []string) int {
	fs := flag.NewFlagSet("cliquetrace record", flag.ExitOnError)
	var (
		family   = fs.String("family", "gnp", "graph family (scenario matrix name)")
		n        = fs.Int("n", 64, "graph size")
		engine   = fs.String("engine", "par4", "engine configuration name")
		protocol = fs.String("protocol", "connectivity", "protocol name")
		seed     = fs.Int64("seed", 2, "cell seed")
		dir      = fs.String("dir", "traces", "directory the trace files land in")
	)
	fs.Parse(args)

	cell, err := scenario.CellFromNames(*family, *n, *engine, *protocol, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cliquetrace: %v\n", err)
		return 2
	}
	before := map[string]bool{}
	for _, p := range traceFiles(*dir) {
		before[p] = true
	}
	res := scenario.RunCell(cell, scenario.CellOptions{TraceDir: *dir}, nil)
	fmt.Printf("cell %s n=%d %s %s seed=%d: %s (rounds=%d bits=%d)\n",
		res.Family, res.N, res.Engine, res.Protocol, res.Seed, res.Outcome, res.Rounds, res.TotalBits)
	wrote := 0
	for _, p := range traceFiles(*dir) {
		if !before[p] {
			fmt.Println(p)
			wrote++
		}
	}
	if wrote == 0 {
		fmt.Fprintln(os.Stderr, "cliquetrace: no trace written (engine leg never ran?)")
		return 1
	}
	if res.Outcome != scenario.OutcomeOK {
		fmt.Fprintf(os.Stderr, "cliquetrace: cell outcome %s: %s%s\n", res.Outcome, res.Error, res.Divergence)
		return 1
	}
	return 0
}

func traceFiles(dir string) []string {
	paths, _ := filepath.Glob(filepath.Join(dir, "trace-*.ndjson"))
	sort.Strings(paths)
	return paths
}

func summarize(args []string) int {
	fs := flag.NewFlagSet("cliquetrace summarize", flag.ExitOnError)
	top := fs.Int("top", 5, "how many hot rounds/links to flag")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
		return 2
	}
	tr, err := obs.LoadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "cliquetrace: %v\n", err)
		return 1
	}
	printTrace(fs.Arg(0), tr, *top)
	if err := obs.Reconcile(tr); err != nil {
		fmt.Printf("reconcile: FAIL: %v\n", err)
		return 1
	}
	st := tr.Footer.Stats
	fmt.Printf("reconcile: OK — trace sums match Stats exactly (TotalBits=%d Rounds=%d Steps=%d MaxLinkBits=%d)\n",
		st.TotalBits, st.Rounds, st.Steps, st.MaxLinkBits)
	return 0
}

func printTrace(path string, tr *obs.Trace, top int) {
	m := tr.Meta
	fmt.Printf("trace: %s\n", path)
	fmt.Printf("meta: n=%d bandwidth=%d model=%s seed=%d parallelism=%d faulty=%v\n",
		m.N, m.Bandwidth, m.Model, m.Seed, m.Parallelism, m.Faulty)
	t := obs.Sum(tr)
	fmt.Printf("totals: records=%d steps=%d comm-rounds=%d sends=%d sent-bits=%d max-link-bits=%d wall=%v\n",
		t.Records, t.Steps, t.Rounds, t.Sends, t.SentBits, t.MaxLinkBits, time.Duration(t.WallNs))
	if t.Faults != (obs.Totals{}).Faults {
		fmt.Printf("faults: %+v\n", t.Faults)
	}

	phases := obs.Phases(tr)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "phase\tstart\trounds\tsteps\tsent_bits\tmax_link\twall")
	for _, p := range phases {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%v\n",
			p.Name, p.StartRound, p.Rounds, p.Steps, p.SentBits, p.MaxLinkBits, time.Duration(p.WallNs))
	}
	w.Flush()

	fmt.Printf("hot rounds (by sent bits, top %d):\n", top)
	if hot, err := obs.Hottest(tr, top); err != nil {
		fmt.Printf("  (none: %v)\n", err)
	} else {
		for _, h := range hot {
			fmt.Printf("  round %d: sends=%d sent-bits=%d max-link-bits=%d active=%d\n",
				h.Round, h.Sends, h.SentBits, h.MaxLinkBits, h.Active)
		}
	}
	fmt.Printf("hot links (by per-round max link load, top %d):\n", top)
	for _, h := range hottestLinks(tr, top) {
		fmt.Printf("  round %d: max-link-bits=%d sends=%d sent-bits=%d\n",
			h.Round, h.MaxLinkBits, h.Sends, h.SentBits)
	}
}

// hottestLinks ranks records by their heaviest single link — the
// bottleneck view of the bandwidth accounting, as opposed to Hottest's
// aggregate-volume view. Ties break toward the earlier round.
func hottestLinks(tr *obs.Trace, k int) []obs.Hot {
	hot := make([]obs.Hot, 0, len(tr.Rounds))
	for i, r := range tr.Rounds {
		if r.MaxLinkBits > 0 {
			hot = append(hot, obs.Hot{Index: i, RoundTrace: r})
		}
	}
	sort.SliceStable(hot, func(a, b int) bool {
		if hot[a].MaxLinkBits != hot[b].MaxLinkBits {
			return hot[a].MaxLinkBits > hot[b].MaxLinkBits
		}
		return hot[a].Round < hot[b].Round
	})
	if k < len(hot) {
		hot = hot[:k]
	}
	return hot
}

func diff(args []string) int {
	fs := flag.NewFlagSet("cliquetrace diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
		return 2
	}
	ta, err := obs.LoadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "cliquetrace: %v\n", err)
		return 1
	}
	tb, err := obs.LoadFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "cliquetrace: %v\n", err)
		return 1
	}
	fmt.Printf("A: %s (n=%d parallelism=%d faulty=%v)\n", fs.Arg(0), ta.Meta.N, ta.Meta.Parallelism, ta.Meta.Faulty)
	fmt.Printf("B: %s (n=%d parallelism=%d faulty=%v)\n", fs.Arg(1), tb.Meta.N, tb.Meta.Parallelism, tb.Meta.Faulty)

	sa, sb := obs.Sum(ta), obs.Sum(tb)
	fmt.Printf("totals: rounds %d vs %d (%+d), sent-bits %d vs %d (%+d), max-link %d vs %d, wall %v vs %v\n",
		sa.Rounds, sb.Rounds, sb.Rounds-sa.Rounds,
		sa.SentBits, sb.SentBits, sb.SentBits-sa.SentBits,
		sa.MaxLinkBits, sb.MaxLinkBits,
		time.Duration(sa.WallNs), time.Duration(sb.WallNs))

	diffs, err := obs.Diff(ta, tb)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cliquetrace: %v\n", err)
		return 1
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "phase\trounds A\trounds B\tΔrounds\tbits A\tbits B\tΔbits\twall A\twall B")
	same := true
	for _, d := range diffs {
		name, aR, bR, aBits, bBits := "", -1, -1, int64(-1), int64(-1)
		var aW, bW int64
		if d.A != nil {
			name, aR, aBits, aW = d.A.Name, d.A.Rounds, d.A.SentBits, d.A.WallNs
		}
		if d.B != nil {
			if name != "" && d.B.Name != name {
				name = name + "/" + d.B.Name
			} else if name == "" {
				name = d.B.Name
			}
			bR, bBits, bW = d.B.Rounds, d.B.SentBits, d.B.WallNs
		}
		if aR != bR || aBits != bBits {
			same = false
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%+d\t%d\t%d\t%+d\t%v\t%v\n",
			name, aR, bR, bR-aR, aBits, bBits, bBits-aBits, time.Duration(aW), time.Duration(bW))
	}
	w.Flush()
	if same {
		fmt.Println("deterministic profile: identical (rounds and bits agree in every phase)")
	} else {
		fmt.Println("deterministic profile: DIFFERS (see Δ columns)")
	}
	return 0
}

// fleet folds a completed scenariod run ledger's fleet-trace/v1 span
// records, prints the throughput accounting and critical path, and
// reconciles the spans against the outcomes of the run's canonical
// report — read from the same ledger, so the check needs no live
// server. The accounting is obs.Summarize, the function the server's
// /metrics reads live. Exits 1 on an incomplete run, a span-stream
// violation, or a reconcile failure.
func fleet(args []string) int {
	fs := flag.NewFlagSet("cliquetrace fleet", flag.ExitOnError)
	top := fs.Int("top", 5, "how many critical-path cells to render")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
		return 2
	}
	path := fs.Arg(0)
	ft, outcomes, err := scenariod.ReadRunLedger(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cliquetrace: %v\n", err)
		return 1
	}
	sum := obs.Summarize(ft)
	fmt.Printf("fleet: %s (%s)\n", path, obs.FleetTraceVersion)
	fmt.Printf("run: cells=%d attempts=%d requeues=%d quarantines=%d abandoned=%d resumes=%d\n",
		sum.Cells, sum.Attempts, sum.Requeues, sum.Quarantines, sum.Abandoned, sum.Resumes)
	var outKeys []string
	for o := range sum.Outcomes {
		outKeys = append(outKeys, o)
	}
	sort.Strings(outKeys)
	for _, o := range outKeys {
		fmt.Printf("  outcome %s: %d\n", o, sum.Outcomes[o])
	}
	fmt.Printf("throughput: wall=%dms cells/sec=%.2f\n", sum.WallMs, sum.CellsPerSec)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "leg\tcount\tmin\tp50\tp90\tp99\tmax\tmean")
	for _, row := range []struct {
		name string
		d    obs.DurationStats
	}{{"queued", sum.QueueWait}, {"executing", sum.Exec}, {"end-to-end", sum.EndToEnd}} {
		fmt.Fprintf(w, "%s\t%d\t%dms\t%dms\t%dms\t%dms\t%dms\t%.1fms\n",
			row.name, row.d.Count, row.d.MinMs, row.d.P50Ms, row.d.P90Ms, row.d.P99Ms, row.d.MaxMs, row.d.MeanMs)
	}
	w.Flush()
	if len(sum.Workers) > 0 {
		fmt.Println("workers:")
		for _, wu := range sum.Workers {
			fmt.Printf("  %s: attempts=%d busy=%dms utilization=%.1f%%\n",
				wu.Worker, wu.Attempts, wu.BusyMs, 100*wu.Utilization)
		}
	}

	crit := obs.CriticalPath(ft, *top)
	fmt.Printf("critical path (last finishers, top %d):\n", *top)
	for i, sp := range crit {
		fmt.Printf("  %d. %s: e2e=%dms outcome=%s attempts=%d\n", i+1, sp.Key, sp.E2EMs(), sp.Outcome, len(sp.Attempts))
		if i == 0 {
			for _, a := range sp.Attempts {
				fmt.Printf("     attempt %d (%s): queued=%dms leased=%dms exec=%dms submit=%dms end=%s\n",
					a.Attempt, a.Worker, a.QueuedMs, a.EndMs-a.GrantMs, a.ExecMs, a.SubmitMs, a.End)
			}
		}
	}

	if err := obs.ReconcileFleet(ft, outcomes); err != nil {
		fmt.Printf("reconcile: FAIL: %v\n", err)
		return 1
	}
	fmt.Printf("reconcile: OK — %d spans match the canonical report exactly (%d attempts == %d lease grants)\n",
		len(ft.Spans), sum.Attempts, ft.Grants)
	return 0
}
