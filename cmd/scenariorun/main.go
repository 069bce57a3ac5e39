// Scenariorun sweeps the scenario matrix (internal/scenario): graph
// families × sizes × engine configurations × protocols, every cell run
// under both the sequential scalar oracle and the engine configuration
// under test, outputs and Stats diffed bit-for-bit. It writes the
// machine-readable SCENARIOS_<date>.json (schema: DESIGN.md §8).
//
//	scenariorun -quick               # reduced sweep (~594 cells)
//	scenariorun                      # full sweep
//	scenariorun -list                # dimensions + per-protocol coverage
//	scenariorun -families gnp,rs -protocols triangle,apsp
//	scenariorun -engines par4-batch-b64
//	scenariorun -seed 7 -shards 4 -out /tmp/scen.json
//	scenariorun -quick -faults drop=0.02,corrupt=0.01
//	scenariorun -timeout 30s -retries 2 -ledger run.jsonl
//	scenariorun -quick -submit http://127.0.0.1:8437   # run on a scenariod fleet
//
// Exit codes (DESIGN.md §8): 0 every cell ok; 1 any divergence
// (including a silent corruption under faults); 2 usage error; 3 only
// explicitly detected fault failures; 4 infrastructure failures (a leg
// panicked or timed out even after its retries, which run at once).
//
// All flags are documented in DESIGN.md §8.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/scenariod"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "reduced sweep")
		seed      = flag.Int64("seed", 1, "base seed of the matrix")
		shards    = flag.Int("shards", 0, "worker-pool shards over cells: 0 = GOMAXPROCS")
		out       = flag.String("out", "", "output path (default SCENARIOS_<date>.json)")
		families  = flag.String("families", "", "comma-separated family subset (default: all)")
		protocols = flag.String("protocols", "", "comma-separated protocol subset (default: all)")
		engines   = flag.String("engines", "", "comma-separated engine-config subset (default: all)")
		list      = flag.Bool("list", false, "list matrix dimensions and per-protocol coverage, then exit")
		verbose   = flag.Bool("v", false, "print every cell, not just divergences")
		faults    = flag.String("faults", "", `fault spec for the engine legs, e.g. "drop=0.02,corrupt=0.01" (keys: drop corrupt delay dup crash maxdelay crashby)`)
		timeout   = flag.Duration("timeout", 0, "per-leg deadline (0 = none); timed-out cells are classified infra")
		retries   = flag.Int("retries", 0, "retries for infra-failed legs (panic, timeout), run at once")
		ledger    = flag.String("ledger", "", "append-only resume ledger path; re-running with the same matrix and flags skips recorded cells")
		sizes     = flag.String("sizes", "", "comma-separated size override, e.g. 10,16 (default: matrix sizes)")
		submit    = flag.String("submit", "", "scenariod base URL: submit the matrix to a worker fleet instead of running locally (-shards, -timeout, -retries, -ledger and -trace-dir are then ignored: the fleet uses its workers' -timeout and -trace-dir and the server's ledger, and requeues infra cells up to the server's -max-attempts)")
		traceDir  = flag.String("trace-dir", "", "archive an engine-trace/v1 NDJSON file per engine-leg run under this directory (cliquetrace reads them)")
	)
	flag.Parse()

	spec, err := fault.ParseSpec(*faults)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenariorun: %v\n", err)
		os.Exit(2)
	}
	sizeList, err := parseSizes(*sizes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenariorun: %v\n", err)
		os.Exit(2)
	}

	if *submit != "" {
		os.Exit(submitRun(*submit, scenariod.RunSpec{
			Quick:     *quick,
			BaseSeed:  *seed,
			Families:  *families,
			Protocols: *protocols,
			Engines:   *engines,
			Sizes:     sizeList,
			Faults:    *faults,
		}, *out, *verbose))
	}

	m := scenario.DefaultMatrix(*quick, *seed)
	if err := m.FilterFamilies(*families); err != nil {
		fmt.Fprintf(os.Stderr, "%v; use -list\n", err)
		os.Exit(2)
	}
	if err := m.FilterProtocols(*protocols); err != nil {
		fmt.Fprintf(os.Stderr, "%v; use -list\n", err)
		os.Exit(2)
	}
	if err := m.FilterEngines(*engines); err != nil {
		fmt.Fprintf(os.Stderr, "%v; use -list\n", err)
		os.Exit(2)
	}
	if *list {
		// Sorted deterministically (scenario.Matrix.WriteList); pinned by
		// the list.golden test.
		m.WriteList(os.Stdout)
		return
	}
	if len(sizeList) > 0 {
		m.Sizes = sizeList
	}

	rep, err := scenario.RunMatrixOpts(m, scenario.RunOptions{
		CellOptions: scenario.CellOptions{
			Faults:   spec,
			Timeout:  *timeout,
			Retries:  *retries,
			TraceDir: *traceDir,
		},
		Shards: *shards,
		Ledger: *ledger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenariorun: %v\n", err)
		os.Exit(4)
	}
	if *verbose {
		for _, c := range rep.Cells {
			detail := c.Divergence
			if detail == "" {
				detail = c.Error
			}
			fmt.Printf("%-10s n=%-3d %-14s %-12s rounds=%-4d bits=%-8d %-8s %s\n",
				c.Family, c.N, c.Engine, c.Protocol, c.Rounds, c.TotalBits, c.Outcome, detail)
		}
	}
	s := rep.Summary
	fmt.Printf("matrix: %d families x %d sizes x %d engines x %d protocols, %d shards\n",
		len(s.Families), len(s.Sizes), len(s.Engines), len(s.Protocols), rep.Shards)
	fmt.Printf("  oracle=%.1fms engine=%.1fms wall=%.1fms\n",
		float64(s.OracleNs)/1e6, float64(s.EngineNs)/1e6, float64(s.WallNs)/1e6)
	os.Exit(rep.WriteAndReport(*out, os.Stdout, os.Stderr))
}

// parseSizes parses the -sizes override.
func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -sizes entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// submitRun executes the matrix on a scenariod fleet: submit the spec,
// stream per-cell results as workers land them, fetch the completed
// run's canonical report, and write it with the usual exit-code
// discipline. The streamed cells arrive in completion order (the
// report stays in matrix order); a 503 means the server shed the run.
func submitRun(base string, spec scenariod.RunSpec, out string, verbose bool) int {
	if _, err := spec.Matrix(); err != nil {
		fmt.Fprintf(os.Stderr, "%v; use -list\n", err)
		return 2
	}
	client := scenariod.NewClient(base)
	sub, err := client.Submit(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenariorun: submit: %v\n", err)
		return 4
	}
	fmt.Printf("submitted run %s: %d cells to %s\n", sub.RunID, sub.Cells, base)
	done := 0
	err = client.Stream(sub.RunID, func(ev scenariod.StreamEvent) error {
		if ev.Type != scenariod.EventCell {
			return nil
		}
		done++
		c := ev.Cell
		if verbose || c.Outcome != scenario.OutcomeOK {
			detail := c.Divergence
			if detail == "" {
				detail = c.Error
			}
			fmt.Printf("[%d/%d] %-10s n=%-3d %-14s %-12s %-8s %s\n",
				done, sub.Cells, c.Family, c.N, c.Engine, c.Protocol, c.Outcome, detail)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenariorun: stream: %v\n", err)
		return 4
	}
	rep, err := client.Report(sub.RunID)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenariorun: report: %v\n", err)
		return 4
	}
	// The server's report is canonical (no date, no timings); stamp the
	// fetch date so the default SCENARIOS_<date>.json filename works.
	rep.Date = time.Now().Format("20060102")
	return rep.WriteAndReport(out, os.Stdout, os.Stderr)
}
