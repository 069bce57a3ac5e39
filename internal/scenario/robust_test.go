package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
)

// faultTestMatrix is the trimmed fault sweep: the four hardened
// protocols over two families at one size, both engine configurations.
func faultTestMatrix(t *testing.T) *Matrix {
	t.Helper()
	m := DefaultMatrix(true, 1)
	m.Sizes = []int{12}
	if err := m.FilterFamilies("gnp,components"); err != nil {
		t.Fatal(err)
	}
	if err := m.FilterProtocols("connectivity,spanforest,routing,apsp"); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFaultSweepSafety is the harness-level safety invariant: under an
// active adversary every cell must end verified-correct (ok) or
// explicitly detected — never silently diverged, with zero tolerance.
func TestFaultSweepSafety(t *testing.T) {
	m := faultTestMatrix(t)
	spec, err := fault.ParseSpec("drop=0.02,corrupt=0.01")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunMatrixOpts(m, RunOptions{CellOptions: CellOptions{Faults: spec}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != spec.String() {
		t.Fatalf("report fault spec %q, want %q", rep.Faults, spec.String())
	}
	var ok int
	for _, c := range rep.Cells {
		switch c.Outcome {
		case OutcomeOK:
			ok++
		case OutcomeDetected:
			// The contracted fallback: a loud, attributed failure.
			if c.Error == "" {
				t.Errorf("detected cell %s/%s/%s carries no error detail", c.Family, c.Engine, c.Protocol)
			}
		default:
			t.Errorf("SAFETY VIOLATION %s n=%d %s %s: outcome %s: %s%s",
				c.Family, c.N, c.Engine, c.Protocol, c.Outcome, c.Error, c.Divergence)
		}
	}
	if ok == 0 {
		t.Fatal("no cell recovered under faults; hardening is not engaging")
	}
}

// TestFaultSweepDeterministicAcrossShards pins the replay guarantee at
// harness level: the same fault spec and matrix produce identical cell
// outcomes regardless of worker-pool width.
func TestFaultSweepDeterministicAcrossShards(t *testing.T) {
	m := faultTestMatrix(t)
	if err := m.FilterProtocols("connectivity,routing"); err != nil {
		t.Fatal(err)
	}
	spec := fault.Spec{Drop: 0.02, Corrupt: 0.01}
	var reps [2]*Report
	for i, shards := range []int{1, 4} {
		rep, err := RunMatrixOpts(m, RunOptions{CellOptions: CellOptions{Faults: spec}, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	a, b := reps[0], reps[1]
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		ca, cb := a.Cells[i], b.Cells[i]
		ca.OracleNs, ca.EngineNs = 0, 0
		cb.OracleNs, cb.EngineNs = 0, 0
		if ca != cb {
			t.Fatalf("cell %d differs across shard counts:\n  1 shard:  %+v\n  4 shards: %+v", i, ca, cb)
		}
	}
}

// TestConcurrentRunsMatchSerial runs a clean and a faulted matrix at
// the same time in one process and requires each canonical report to
// equal the same run done alone, byte for byte. A run's engine settings
// (worker count, adversary, trace sink) travel in its legs' core.Env,
// so neither run can pick up the other's.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	spec, err := fault.ParseSpec("drop=0.05,corrupt=0.02")
	if err != nil {
		t.Fatal(err)
	}
	opts := []RunOptions{{Shards: 2}, {CellOptions: CellOptions{Faults: spec}, Shards: 2}}
	canonical := func(opt RunOptions) ([]byte, error) {
		m := DefaultMatrix(true, 7)
		m.Sizes = []int{16}
		if err := m.FilterFamilies("gnp,components"); err != nil {
			return nil, err
		}
		if err := m.FilterProtocols("connectivity,routing,apsp"); err != nil {
			return nil, err
		}
		rep, err := RunMatrixOpts(m, opt)
		if err != nil {
			return nil, err
		}
		rep.Canonicalize()
		return json.Marshal(rep)
	}

	serial := make([][]byte, len(opts))
	for i, opt := range opts {
		if serial[i], err = canonical(opt); err != nil {
			t.Fatal(err)
		}
	}
	concurrent := make([][]byte, len(opts))
	errs := make([]error, len(opts))
	var wg sync.WaitGroup
	for i, opt := range opts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i], errs[i] = canonical(opt)
		}()
	}
	wg.Wait()
	for i, opt := range opts {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(serial[i], concurrent[i]) {
			t.Errorf("run with faults %q: report differs when run next to the other run:\n  serial:     %s\n  concurrent: %s",
				opt.Faults, serial[i], concurrent[i])
		}
	}
}

// stripTimings zeroes the fields that legitimately vary between runs.
func stripTimings(rep *Report) {
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

// TestLedgerResume interrupts a run by keeping only a prefix of its
// ledger, resumes, and requires the resumed report to match the
// uninterrupted one cell for cell — recorded results (timings included)
// must flow through unchanged, and only the missing cells re-execute.
func TestLedgerResume(t *testing.T) {
	m := faultTestMatrix(t)
	if err := m.FilterProtocols("connectivity,routing"); err != nil {
		t.Fatal(err)
	}
	spec := fault.Spec{Drop: 0.02}
	dir := t.TempDir()

	full := filepath.Join(dir, "full.jsonl")
	want, err := RunMatrixOpts(m, RunOptions{CellOptions: CellOptions{Faults: spec}, Shards: 2, Ledger: full})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt: header + half the entries, plus a torn final line.
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("ledger has only %d lines", len(lines))
	}
	keep := lines[:1+(len(lines)-1)/2]
	torn := strings.Join(keep, "\n") + "\n" + lines[len(keep)][:10]
	partial := filepath.Join(dir, "partial.jsonl")
	if err := os.WriteFile(partial, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := RunMatrixOpts(m, RunOptions{CellOptions: CellOptions{Faults: spec}, Shards: 2, Ledger: partial})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("resumed run has %d cells, want %d", len(got.Cells), len(want.Cells))
	}
	resumedTimings := 0
	for i := range got.Cells {
		if got.Cells[i].OracleNs == want.Cells[i].OracleNs && got.Cells[i].EngineNs == want.Cells[i].EngineNs {
			resumedTimings++
		}
	}
	if half := (len(lines) - 1) / 2; resumedTimings < half {
		t.Errorf("only %d cells carried recorded timings through resume, want >= %d (ledgered cells must not re-execute)",
			resumedTimings, half)
	}
	stripTimings(want)
	stripTimings(got)
	for i := range got.Cells {
		if got.Cells[i] != want.Cells[i] {
			t.Fatalf("resumed cell %d differs:\n  uninterrupted: %+v\n  resumed:       %+v",
				i, want.Cells[i], got.Cells[i])
		}
	}

	// A completed ledger resumes to the same report without running
	// anything (every cell is recorded).
	again, err := RunMatrixOpts(m, RunOptions{CellOptions: CellOptions{Faults: spec}, Shards: 2, Ledger: full})
	if err != nil {
		t.Fatal(err)
	}
	stripTimings(again)
	for i := range again.Cells {
		if again.Cells[i].Outcome != want.Cells[i].Outcome {
			t.Fatalf("fully-ledgered resume changed cell %d outcome %q -> %q",
				i, want.Cells[i].Outcome, again.Cells[i].Outcome)
		}
	}
}

// TestLedgerRecordsEachCellAsItCompletes: the ledger records a cell as
// soon as it completes, not when a whole pass ends. In a four-cell,
// one-shard run, the last cell's engine leg must already find the
// other three cells ledgered, so an interrupt there costs one cell.
func TestLedgerRecordsEachCellAsItCompletes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	var seen atomic.Int32
	seen.Store(-1)
	m := syntheticMatrix(func(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
		if !leg.Oracle && g.N() == 7 {
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			seen.Store(int32(strings.Count(string(data), `"t":"cell"`)))
		}
		return &LegResult{Output: "ok"}, nil
	})
	m.Sizes = []int{4, 5, 6, 7}
	rep, err := RunMatrixOpts(m, RunOptions{Shards: 1, Ledger: path})
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.Summary; s.Cells != 4 || s.Divergences+s.Detected+s.Infra != 0 {
		t.Fatalf("synthetic run summary %+v, want 4 ok cells", s)
	}
	if got := seen.Load(); got != 3 {
		t.Fatalf("last cell's engine leg saw %d ledgered cells, want 3", got)
	}
}

// TestLedgerRejectsForeignRun: a ledger written under different options
// must refuse to resume rather than silently mix results.
func TestLedgerRejectsForeignRun(t *testing.T) {
	m := faultTestMatrix(t)
	if err := m.FilterProtocols("routing"); err != nil {
		t.Fatal(err)
	}
	m.Engines = m.Engines[:1]
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if _, err := RunMatrixOpts(m, RunOptions{Shards: 2, Ledger: path}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunMatrixOpts(m, RunOptions{CellOptions: CellOptions{Faults: fault.Spec{Drop: 0.5}}, Shards: 2, Ledger: path}); err == nil {
		t.Fatal("ledger accepted a resume under a different fault spec")
	}
	m2 := faultTestMatrix(t)
	if err := m2.FilterProtocols("routing"); err != nil {
		t.Fatal(err)
	}
	m2.Engines = m2.Engines[:1]
	m2.BaseSeed = 999
	if _, err := RunMatrixOpts(m2, RunOptions{Shards: 2, Ledger: path}); err == nil {
		t.Fatal("ledger accepted a resume under a different base seed")
	}
}

// syntheticMatrix wraps a single custom protocol in a one-cell matrix.
func syntheticMatrix(run func(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error)) *Matrix {
	return &Matrix{
		Families: []Family{{
			Name: "synthetic",
			Gen:  func(n int, seed int64) *graph.Graph { return graph.Complete(n) },
		}},
		Sizes:     []int{4},
		Engines:   []EngineConfig{{Name: "eng", Parallelism: 1, Bandwidth: 8}},
		Protocols: []Protocol{{Name: "probe", Run: run}},
		BaseSeed:  1,
	}
}

// TestGuardedLegCapturesPanic: an adapter panic becomes an infra cell,
// never a harness crash, and the retries are recorded.
func TestGuardedLegCapturesPanic(t *testing.T) {
	m := syntheticMatrix(func(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
		if !leg.Oracle {
			panic("synthetic adapter bug")
		}
		return &LegResult{Output: "ok"}, nil
	})
	rep, err := RunMatrixOpts(m, RunOptions{CellOptions: CellOptions{Retries: 2}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cells[0]
	if c.Outcome != OutcomeInfra {
		t.Fatalf("panicking leg classified %q, want infra (error %q, divergence %q)", c.Outcome, c.Error, c.Divergence)
	}
	if !strings.Contains(c.Error, "synthetic adapter bug") {
		t.Fatalf("infra error does not name the panic: %q", c.Error)
	}
	if c.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (first attempt + 2 retries)", c.Attempts)
	}
	if rep.ExitCode() != 4 {
		t.Fatalf("infra run exit code %d, want 4", rep.ExitCode())
	}
}

// TestGuardedLegTimeout: a wedged leg is abandoned at the deadline and
// classified infra.
func TestGuardedLegTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	m := syntheticMatrix(func(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
		if !leg.Oracle {
			<-block
		}
		return &LegResult{Output: "ok"}, nil
	})
	rep, err := RunMatrixOpts(m, RunOptions{CellOptions: CellOptions{Timeout: 50 * time.Millisecond}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cells[0]
	if c.Outcome != OutcomeInfra || !strings.Contains(c.Error, "timed out") {
		t.Fatalf("wedged leg classified %q (%q), want infra timeout", c.Outcome, c.Error)
	}
}

// TestQuarantineRetryRecovers: a leg that fails transiently (panics on
// its first attempt only) is healed by the retry and the cell
// lands ok with the attempt count recorded.
func TestQuarantineRetryRecovers(t *testing.T) {
	var mu sync.Mutex
	engineCalls := 0
	m := syntheticMatrix(func(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
		if !leg.Oracle {
			mu.Lock()
			engineCalls++
			first := engineCalls == 1
			mu.Unlock()
			if first {
				panic("transient")
			}
		}
		return &LegResult{Output: "ok"}, nil
	})
	rep, err := RunMatrixOpts(m, RunOptions{CellOptions: CellOptions{Retries: 2}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cells[0]
	if c.Outcome != OutcomeOK {
		t.Fatalf("transient failure classified %q (%q), want ok", c.Outcome, c.Error)
	}
	if c.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", c.Attempts)
	}
}

// TestDetectedClassification: an engine-leg protocol error under an
// active fault plan is the detected outcome (exit 3), not a divergence.
func TestDetectedClassification(t *testing.T) {
	m := syntheticMatrix(func(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
		if !leg.Oracle {
			return nil, errors.New("frame checksum mismatch (synthetic)")
		}
		return &LegResult{Output: "ok"}, nil
	})
	rep, err := RunMatrixOpts(m, RunOptions{CellOptions: CellOptions{Faults: fault.Spec{Drop: 0.01}}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cells[0]
	if c.Outcome != OutcomeDetected || c.Diverged {
		t.Fatalf("faulted protocol error classified %q (diverged=%v), want detected", c.Outcome, c.Diverged)
	}
	if rep.ExitCode() != 3 {
		t.Fatalf("detected-only run exit code %d, want 3", rep.ExitCode())
	}

	// The same error on a clean channel is a divergence (exit 1).
	rep2, err := RunMatrixOpts(m, RunOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c := rep2.Cells[0]; c.Outcome != OutcomeDiverged {
		t.Fatalf("clean-channel protocol error classified %q, want diverged", c.Outcome)
	}
	if rep2.ExitCode() != 1 {
		t.Fatalf("divergent run exit code %d, want 1", rep2.ExitCode())
	}
}

// TestSilentCorruptionIsDivergence: a faulted engine leg that ACCEPTS a
// wrong output is a divergence — the outcome the subsystem exists to
// rule out — and must outrank everything in the exit code.
func TestSilentCorruptionIsDivergence(t *testing.T) {
	m := syntheticMatrix(func(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
		if !leg.Oracle {
			return &LegResult{Output: "wrong"}, nil
		}
		return &LegResult{Output: "right"}, nil
	})
	rep, err := RunMatrixOpts(m, RunOptions{CellOptions: CellOptions{Faults: fault.Spec{Drop: 0.01}}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cells[0]
	if c.Outcome != OutcomeDiverged || !strings.Contains(c.Divergence, "SILENT CORRUPTION") {
		t.Fatalf("accepted wrong output classified %q (%q), want diverged with silent-corruption marker",
			c.Outcome, c.Divergence)
	}
	if rep.ExitCode() != 1 {
		t.Fatalf("silent corruption exit code %d, want 1", rep.ExitCode())
	}
}
