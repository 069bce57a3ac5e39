// Command perfbench is the repository's benchmark. It runs one named
// workload of the differential scenario matrix — locally through
// scenario.RunMatrixOpts, or through an in-process scenariod server
// drained by worker processes — for a fixed time, checks every cell and
// the determinism of the simulated statistics, and prints end-to-end
// metrics (untraced run) or per-layer metrics (traced run). README.md
// documents the workloads and metrics.
//
//	perfbench --workload sketch --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exit status: 0 when
// every gate passed, 1 when a correctness or determinism gate failed
// (the result line still prints), 2 when the run could not be set up
// (no result line).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "worker":
			os.Exit(workerMain(os.Args[2:]))
		case "setup":
			os.Exit(setupMain(os.Args[2:]))
		}
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// buildDir holds everything a run leaves behind, relative to the
// directory the benchmark runs from.
const buildDir = ".bench_build"

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sketch, few-rounds or fleet-faults")
	seed := fs.Int64("seed", 1, "workload seed: the matrix base seed")
	secs := fs.Int("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		return setupFailed(fmt.Errorf("unknown workload %q (want sketch, few-rounds or fleet-faults)", *name))
	case *secs < 1:
		return setupFailed(fmt.Errorf("--seconds %d: want at least 1", *secs))
	case *trace != 0 && *trace != 1:
		return setupFailed(fmt.Errorf("--trace %d: want 0 or 1", *trace))
	}
	work, err := filepath.Abs(filepath.Join(buildDir, "runs"))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		return setupFailed(fmt.Errorf("run directory: %w", err))
	}
	b := &bench{w: w, seed: *seed, nproc: runtime.NumCPU(), work: work}
	d := time.Duration(*secs) * time.Second

	var rep *report
	defs := endToEnd
	if *trace == 1 {
		rep, err = b.traced(d)
		defs = perLayer
	} else {
		rep, err = b.untraced(d)
	}
	if err != nil {
		return setupFailed(err)
	}
	if err := rep.print(stdout, defs); err != nil {
		return setupFailed(err)
	}
	if len(rep.Failures) > 0 {
		return 1
	}
	return 0
}

func setupFailed(err error) int {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	return 2
}

// bench runs one workload at one seed.
type bench struct {
	w     workload
	seed  int64
	nproc int    // cells in flight: shards of a local run, workers of the fleet
	work  string // parent of the per-pass run directories
}

// setupsPerPass is how many set-up times an untraced run takes for
// setup_s before each measured pass. A local set-up, building and
// expanding the matrix, takes well under a millisecond: too short to
// time alone steadily, so one local sample is the mean of
// localSetupBatch set-ups in a row.
const (
	setupsPerPass   = 5
	localSetupBatch = 50
)

// timeSetup sets the workload up as a pass would, tears it down again
// and returns how long one set-up took. A local sample is timed in a
// fresh process, as a user's scenariorun sets up: timed in one
// long-lived process, the same set-ups read up to 1.6× apart from one
// run to the next. A fleet set-up starts fresh worker processes anyway;
// its run directory is the benchmark's, not the program's, so it is made
// before the clock starts.
func (b *bench) timeSetup() (int64, error) {
	if !b.w.Fleet {
		self, err := os.Executable()
		if err != nil {
			return 0, fmt.Errorf("locating own binary: %w", err)
		}
		cmd := exec.Command(self, "setup", "-workload", b.w.Name, "-seed", strconv.FormatInt(b.seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("timing local set-ups: %w", err)
		}
		return strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
	}
	dir, err := os.MkdirTemp(b.work, "setup-")
	if err != nil {
		return 0, fmt.Errorf("creating run directory: %w", err)
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	fr, err := setUpFleet(b.w, b.seed, b.nproc, dir, nil)
	if err != nil {
		return 0, err
	}
	ns := time.Since(t0).Nanoseconds()
	_, err = fr.rig.close()
	return ns, err
}

// setupMain is `perfbench setup`: it times localSetupBatch set-ups of a
// local workload in a row and prints the mean time of one, in
// nanoseconds.
func setupMain(args []string) int {
	fs := flag.NewFlagSet("perfbench setup", flag.ContinueOnError)
	name := fs.String("workload", "", "local workload to set up")
	seed := fs.Int64("seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || w.Fleet {
		fmt.Fprintf(os.Stderr, "perfbench setup: %q is not a local workload\n", *name)
		return 2
	}
	t0 := time.Now()
	for i := 0; i < localSetupBatch; i++ {
		if _, _, err := setUpLocal(w, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench setup: %v\n", err)
			return 1
		}
	}
	fmt.Println(time.Since(t0).Nanoseconds() / localSetupBatch)
	return 0
}

func (b *bench) pass(traced bool) (*pass, error) {
	if b.w.Fleet {
		return runFleetPass(b.w, b.seed, b.nproc, b.work, traced)
	}
	return runLocalPass(b.w, b.seed, b.nproc, b.work, traced)
}

// untraced measures the end-to-end metrics: one warm-up pass, whose
// report is the determinism reference, then passes until d has passed.
func (b *bench) untraced(d time.Duration) (*report, error) {
	ref, err := b.pass(false)
	if err != nil {
		return nil, err
	}
	rep := &report{Values: map[string]float64{}, Notes: map[string]string{}}
	rep.collect("warm-up", ref, ref.Print)
	var passes []*pass
	var setups []float64
	for deadline := time.Now().Add(d); len(passes) == 0 || time.Now().Before(deadline); {
		// Set-ups are timed between the passes, over the same stretch
		// of time: the host's speed drifts over seconds, and set-ups
		// all timed in the first fraction of a second read up to twice
		// as long in one run as in the next.
		for i := 0; i < setupsPerPass; i++ {
			ns, err := b.timeSetup()
			if err != nil {
				return nil, err
			}
			setups = append(setups, seconds(ns))
		}
		p, err := b.pass(false)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		rep.collect(fmt.Sprintf("pass %d", len(passes)), p, ref.Print)
	}

	var cellMs []float64
	var cells int
	var wallNs int64
	var workerKiB []float64
	for _, p := range passes {
		cellMs = append(cellMs, p.CellMs...)
		cells += p.Cells
		wallNs += p.WallNs
		workerKiB = append(workerKiB, float64(p.WorkerPeakKiB))
	}
	self, err := peakRSSKiB()
	if err != nil {
		return nil, fmt.Errorf("reading peak RSS: %w", err)
	}
	peakKiB := float64(self)
	if b.w.Fleet {
		peakKiB += median(workerKiB)
	}
	p50, p90 := nearestRank(cellMs, 0.5), nearestRank(cellMs, 0.9)
	rep.Values["cells_per_s"] = float64(cells) / seconds(wallNs)
	rep.Values["cell_p50_ms"] = p50.Value
	rep.Values["cell_p90_ms"] = p90.Value
	rep.Values["setup_s"] = median(setups)
	rep.Values["max_rss_mb"] = peakKiB / 1024
	rep.Notes["cells_per_s"] = fmt.Sprintf("%d cells in %.2fs over %d passes", cells, seconds(wallNs), len(passes))
	rep.Notes["cell_p50_ms"] = fmt.Sprintf("n=%d samples, rank %d", p50.N, p50.Rank)
	rep.Notes["cell_p90_ms"] = fmt.Sprintf("n=%d samples, rank %d, %d beyond", p90.N, p90.Rank, p90.Beyond)
	q1, q3 := nearestRank(setups, 0.25), nearestRank(setups, 0.75)
	rep.Notes["setup_s"] = fmt.Sprintf("median of %d samples, quartiles %.3g-%.3g s", len(setups), q1.Value, q3.Value)
	rep.Notes["max_rss_mb"] = b.rssNote()
	walls := "pass walls (s):"
	for _, p := range passes {
		walls += fmt.Sprintf(" %.3f", seconds(p.WallNs))
	}
	rep.crossRun(b, ref.Print)
	rep.header(b, "untraced", len(passes))
	rep.Extra = append([]string{fmt.Sprintf("  %-30s %14.6g %-8s  (%d failures in %d cells attempted)",
		"cells_failed_frac", float64(len(rep.Failures))/float64(max(rep.Attempted, 1)), "ratio",
		len(rep.Failures), rep.Attempted), walls}, rep.Extra...)
	return rep, nil
}

// traced measures the per-layer metrics: after a warm-up pass it
// alternates untraced and traced passes until d has passed. Per-layer
// values are medians over the traced passes; the process.* metrics come
// from the untraced ones, and obs.trace_overhead compares the two.
func (b *bench) traced(d time.Duration) (*report, error) {
	ref, err := b.pass(false)
	if err != nil {
		return nil, err
	}
	rep := &report{Values: map[string]float64{}, Notes: map[string]string{}}
	rep.collect("warm-up", ref, ref.Print)
	var plain, traced []*pass
	for deadline := time.Now().Add(d); len(traced) == 0 || time.Now().Before(deadline); {
		u, err := b.pass(false)
		if err != nil {
			return nil, err
		}
		plain = append(plain, u)
		rep.collect(fmt.Sprintf("untraced pass %d", len(plain)), u, ref.Print)
		t, err := b.pass(true)
		if err != nil {
			return nil, err
		}
		traced = append(traced, t)
		tref := ref.Print
		if len(traced) > 1 {
			tref = traced[0].Print
		}
		rep.collect(fmt.Sprintf("traced pass %d", len(traced)), t, tref)
	}

	for _, def := range perLayer {
		var vs []float64
		for _, t := range traced {
			vs = append(vs, t.Layers[def.Name])
		}
		rep.Values[def.Name] = median(vs)
	}
	rep.Values["fault.detected_cells"] = float64(traced[0].Print.Counts["fault.detected_cells"])
	var proc procStats
	var cells int
	var plainWall, tracedWall []float64
	for _, u := range plain {
		proc = proc.add(u.Proc)
		cells += u.Cells
		plainWall = append(plainWall, seconds(u.WallNs))
	}
	for _, t := range traced {
		tracedWall = append(tracedWall, seconds(t.WallNs))
	}
	rep.Values["process.alloc_kb_per_cell"] = float64(proc.AllocBytes) / 1024 / float64(cells)
	if used := proc.CPUs - proc.IdleCPUs; used > 0 {
		rep.Values["process.gc_cpu_frac"] = proc.GCCPUs / used
	}
	rep.Values["obs.trace_overhead"] = median(tracedWall) / median(plainWall)
	rep.Notes["obs.trace_overhead"] = fmt.Sprintf("median wall %.3fs traced / %.3fs untraced, %d passes each",
		median(tracedWall), median(plainWall), len(traced))
	rep.Notes["process.alloc_kb_per_cell"] = fmt.Sprintf("untraced passes, %d cells", cells)
	for name, why := range b.unmeasured() {
		rep.Notes[name] = "not measured: " + why
	}

	spans := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-s%d.ndjson", b.w.Name, b.seed))
	if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
		return nil, fmt.Errorf("spans directory: %w", err)
	}
	if err := traced[0].Spans.writeFile(spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.crossRun(b, traced[0].Print)
	rep.header(b, "traced", len(traced))
	rep.Extra = append(rep.Extra, traced[0].Checks...)
	rep.Extra = append(rep.Extra, "spans of the first traced pass: "+spans)
	return rep, nil
}

// unmeasured names the per-layer metrics a workload cannot measure, and
// why; they print as 0.
func (b *bench) unmeasured() map[string]string {
	if b.w.Fleet {
		return map[string]string{
			"graph.gen_s": "generation runs inside the worker processes, which the benchmark does not wrap",
		}
	}
	out := map[string]string{}
	for _, def := range perLayer {
		if strings.HasPrefix(def.Name, "scenariod.") {
			out[def.Name] = "a local run does not go through scenariod"
		}
	}
	return out
}

func (b *bench) rssNote() string {
	if b.w.Fleet {
		return "peak of this process, which holds the server, plus the median over passes of the worker processes' summed peaks"
	}
	return "peak of the process that runs the matrix"
}

// collect counts a pass's cells, gates it against the fingerprint it
// must repeat, and keeps its failures.
func (r *report) collect(label string, p *pass, want fingerprint) {
	r.Attempted += p.Cells
	for _, f := range p.Failures {
		r.Failures = append(r.Failures, label+": "+f)
	}
	if diff := p.Print.diff(want); diff != "" {
		r.Failures = append(r.Failures, label+": determinism: "+diff)
	}
}

func (r *report) header(b *bench, mode string, passes int) {
	head := []string{
		fmt.Sprintf("perfbench: workload=%s seed=%d %s nproc=%d passes=%d (after one warm-up pass)",
			b.w.Name, b.seed, mode, b.nproc, passes),
		"  why: " + b.w.Why,
	}
	if b.w.Fleet {
		head = append(head, fmt.Sprintf("  fleet: %d worker processes, poll interval %v, faults %s, closed loop with one client",
			b.nproc, pollEvery, b.w.Faults))
	}
	r.Head = head
}

// crossRun extends the determinism gate across runs: the fingerprint of
// every run of one binary at one workload and seed is kept under
// buildDir, and a run whose fingerprint disagrees with an earlier one
// fails.
func (r *report) crossRun(b *bench, fp fingerprint) {
	line := "determinism: report sha256=" + fp.ReportSHA
	for _, name := range sortedKeys(fp.Counts) {
		line += fmt.Sprintf(" %s=%d", name, fp.Counts[name])
	}
	r.Extra = append(r.Extra, line)
	id, err := binaryID()
	if err != nil {
		r.Failures = append(r.Failures, fmt.Sprintf("determinism record: %v", err))
		return
	}
	path := filepath.Join(buildDir, "determinism", fmt.Sprintf("%s-%s-s%d.json", id, b.w.Name, b.seed))
	var prior fingerprint
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &prior); err != nil {
			r.Failures = append(r.Failures, fmt.Sprintf("determinism record %s: %v", path, err))
			return
		}
		if diff := fp.diff(prior); diff != "" {
			r.Failures = append(r.Failures, "determinism across runs: "+diff)
			return
		}
	}
	merged := fingerprint{ReportSHA: fp.ReportSHA, Counts: map[string]int64{}}
	for k, v := range prior.Counts {
		merged.Counts[k] = v
	}
	for k, v := range fp.Counts {
		merged.Counts[k] = v
	}
	if err := writeFileAtomic(path, merged); err != nil {
		r.Failures = append(r.Failures, fmt.Sprintf("determinism record: %v", err))
	}
}

// binaryID names the running binary by a prefix of its SHA-256, so runs
// of a rebuilt program never compare against records of another.
func binaryID() (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(self)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

func writeFileAtomic(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
