package obs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bits"
	"repro/internal/core"
)

// gossipBody is a deterministic unicast gossip: each node fans out to
// `fanout` arithmetically-spread destinations per round for `rounds`
// rounds, XOR-folding its inbox. Node 0 stamps a phase boundary at the
// start and halfway through, so the trace profiles into two phases.
func gossipBody(rounds, fanout int) func(*core.Proc) error {
	return func(p *core.Proc) error {
		id, n := p.ID(), p.N()
		var acc uint64
		var m bits.Buffer
		err := p.Rounds(rounds, func(r int) error {
			if id == 0 {
				switch r {
				case 0:
					p.Annotate("warmup")
				case rounds / 2:
					p.Annotate("steady")
				}
			}
			for k := 1; k <= fanout; k++ {
				dst := (id + k*(r+1)) % n
				if dst == id {
					continue
				}
				m.Reset()
				m.WriteUint(uint64(id*131+r*31+k)&0xFFFFFF, 24)
				if err := p.Send(dst, &m); err != nil {
					return err
				}
			}
			return nil
		}, func(_ int, in []*bits.Buffer) error {
			for _, msg := range in {
				if msg == nil {
					continue
				}
				v, err := bits.NewReader(msg).ReadUint(24)
				if err != nil {
					return err
				}
				acc ^= v
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.SetOutput(acc)
		return nil
	}
}

func runGossipTraced(t testing.TB, n, par int, sink core.Sink) *core.Result {
	cfg := core.Config{N: n, Bandwidth: 24, Model: core.Unicast, Seed: 7, Parallelism: par, Sink: sink}
	res, err := core.RunProcs(cfg, gossipBody(12, 4))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGossip256Reconciles is the acceptance-criteria run: a gossip
// N=256 trace, recorded in memory and round-tripped through the NDJSON
// codec, reconciles exactly with the run's Stats — TotalBits, Rounds
// and every other identity.
func TestGossip256Reconciles(t *testing.T) {
	rec := &Recorder{}
	res := runGossipTraced(t, 256, 0, rec)
	tr := rec.Trace()
	if err := Reconcile(tr); err != nil {
		t.Fatalf("in-memory trace: %v", err)
	}
	sums := Sum(tr)
	if sums.SentBits != res.Stats.TotalBits || sums.Rounds != res.Stats.Rounds {
		t.Fatalf("sums %+v do not match Stats %+v", sums, res.Stats)
	}

	// NDJSON round-trip preserves the trace exactly.
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	replay(tr, w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, loaded) {
		t.Fatalf("NDJSON round-trip not lossless")
	}
	if err := Reconcile(loaded); err != nil {
		t.Fatalf("loaded trace: %v", err)
	}
}

// replay feeds a loaded/recorded trace back through a Sink.
func replay(tr *Trace, s core.Sink) {
	s.TraceStart(tr.Meta)
	for i := range tr.Rounds {
		s.TraceRound(&tr.Rounds[i])
	}
	if tr.Footer != nil {
		s.TraceEnd(tr.Footer)
	}
}

// TestReconcileDetectsTampering proves the auditor audits: corrupting
// any accounting field of a loaded trace fails reconciliation.
func TestReconcileDetectsTampering(t *testing.T) {
	rec := &Recorder{}
	runGossipTraced(t, 32, 1, rec)
	base := rec.Trace()
	mutate := []struct {
		name string
		f    func(tr *Trace)
	}{
		{"sent_bits", func(tr *Trace) { tr.Rounds[0].SentBits++ }},
		{"span", func(tr *Trace) { tr.Rounds[1].Span++ }},
		{"max_link", func(tr *Trace) { tr.Rounds[2].MaxLinkBits += 64 }},
		{"drop a record", func(tr *Trace) { tr.Rounds = tr.Rounds[1:] }},
		{"fault delta", func(tr *Trace) { tr.Rounds[0].Faults.Drops++ }},
	}
	for _, m := range mutate {
		cp := &Trace{Meta: base.Meta, Rounds: append([]core.RoundTrace(nil), base.Rounds...)}
		f := *base.Footer
		cp.Footer = &f
		m.f(cp)
		if err := Reconcile(cp); err == nil {
			t.Errorf("%s: tampered trace reconciled", m.name)
		}
	}
	if err := Reconcile(&Trace{Meta: base.Meta, Rounds: base.Rounds}); err == nil {
		t.Error("truncated trace (no footer) reconciled")
	}
}

// TestPhasesAndHottest checks phase splitting on node-0 marks and the
// hot-record ranking.
func TestPhasesAndHottest(t *testing.T) {
	rec := &Recorder{}
	res := runGossipTraced(t, 64, 1, rec)
	tr := rec.Trace()
	phases := Phases(tr)
	if len(phases) != 2 || phases[0].Name != "warmup" || phases[1].Name != "steady" {
		t.Fatalf("phases = %+v, want [warmup steady]", phases)
	}
	var bits64 int64
	var rounds int
	for _, p := range phases {
		bits64 += p.SentBits
		rounds += p.Rounds
	}
	if bits64 != res.Stats.TotalBits || rounds != res.Stats.Rounds {
		t.Errorf("phase totals %d bits / %d rounds, Stats %d / %d", bits64, rounds, res.Stats.TotalBits, res.Stats.Rounds)
	}
	if phases[1].StartRound != 6 {
		t.Errorf("steady phase starts at round %d, want 6", phases[1].StartRound)
	}

	hot, err := Hottest(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) != 3 {
		t.Fatalf("Hottest returned %d records", len(hot))
	}
	for i := 1; i < len(hot); i++ {
		if hot[i].SentBits > hot[i-1].SentBits {
			t.Errorf("hottest not sorted: %d > %d at %d", hot[i].SentBits, hot[i-1].SentBits, i)
		}
	}
}

// TestDiffPairsPhases checks positional phase pairing across two runs.
func TestDiffPairsPhases(t *testing.T) {
	a, b := &Recorder{}, &Recorder{}
	runGossipTraced(t, 32, 1, a)
	runGossipTraced(t, 32, 4, b)
	diffs, err := Diff(a.Trace(), b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 2 {
		t.Fatalf("diff has %d phase pairs, want 2", len(diffs))
	}
	for i, d := range diffs {
		if d.A == nil || d.B == nil {
			t.Fatalf("pair %d has a missing side", i)
		}
		// Deterministic fields agree across worker widths.
		if d.A.SentBits != d.B.SentBits || d.A.Rounds != d.B.Rounds || d.A.Name != d.B.Name {
			t.Errorf("pair %d: %+v vs %+v", i, d.A, d.B)
		}
	}
}

// TestFileSink checks the lazy-create file sink and LoadFile. The
// footer closes the file, so the trace loads whole before Close, and a
// closed sink never reopens (and so truncates) it.
func TestFileSink(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "run.trace.ndjson")
	sink := NewFileSink(path)
	rec := &Recorder{}
	res := runGossipTraced(t, 32, 1, multiSink{sink, rec})
	sink.TraceStart(core.RunMeta{})
	tr, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Reconcile(tr); err != nil {
		t.Fatal(err)
	}
	if tr.Footer.Stats.TotalBits != res.Stats.TotalBits {
		t.Errorf("file trace TotalBits %d, run %d", tr.Footer.Stats.TotalBits, res.Stats.TotalBits)
	}
	if !reflect.DeepEqual(tr, rec.Trace()) {
		t.Error("file round-trip differs from in-memory recording")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	// An unused sink leaves no file behind.
	unused := NewFileSink(filepath.Join(dir, "never", "used.ndjson"))
	if err := unused.Close(); err != nil {
		t.Fatalf("closing unused sink: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "never")); !os.IsNotExist(err) {
		t.Error("unused FileSink created its directory")
	}
}

// multiSink fans records out to several sinks.
type multiSink []core.Sink

func (m multiSink) TraceStart(meta core.RunMeta) {
	for _, s := range m {
		s.TraceStart(meta)
	}
}
func (m multiSink) TraceRound(r *core.RoundTrace) {
	for _, s := range m {
		s.TraceRound(r)
	}
}
func (m multiSink) TraceEnd(f *core.RunFooter) {
	for _, s := range m {
		s.TraceEnd(f)
	}
}

// TestRegistryPrometheusText pins the exposition format: counters,
// gauge funcs, labeled series sharing one header, and a scrape-time
// family's labeled, suffixed and unlabeled series.
func TestRegistryPrometheusText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("d_cells_total", "cells completed")
	c.Add(41)
	c.Inc()
	exp := r.Counter(`d_lease_events_total{event="expired"}`, "lease lifecycle events")
	req := r.Counter(`d_lease_events_total{event="requeued"}`, "lease lifecycle events")
	exp.Inc()
	req.Add(2)
	r.GaugeFunc("d_queue_depth", "jobs queued", func() float64 { return 5 })
	r.GaugeFunc("d_workers", "live workers", func() float64 { return 3 })
	r.Family("d_cell_seconds", "summary", "cell wall time", func() []Sample {
		return []Sample{
			{Labels: `run="0",quantile="0.5"`, Value: 0.5},
			{Suffix: "_count", Labels: `run="0"`, Value: 3},
		}
	})
	r.Family("d_cells_done_total", "counter", "cells done", func() []Sample {
		return []Sample{{Value: 7}}
	})

	var b strings.Builder
	r.WritePrometheus(&b)
	got := b.String()
	want := `# HELP d_cells_total cells completed
# TYPE d_cells_total counter
d_cells_total 42
# HELP d_lease_events_total lease lifecycle events
# TYPE d_lease_events_total counter
d_lease_events_total{event="expired"} 1
d_lease_events_total{event="requeued"} 2
# HELP d_queue_depth jobs queued
# TYPE d_queue_depth gauge
d_queue_depth 5
# HELP d_workers live workers
# TYPE d_workers gauge
d_workers 3
# HELP d_cell_seconds cell wall time
# TYPE d_cell_seconds summary
d_cell_seconds{run="0",quantile="0.5"} 0.5
d_cell_seconds_count{run="0"} 3
# HELP d_cells_done_total cells done
# TYPE d_cells_done_total counter
d_cells_done_total 7
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// BenchmarkTraceOverhead measures the tracing tax on the gossip N=256
// shape. The "none" leg is the nil-Sink engine, and its record across
// PRs is how the ≤1%-overhead-when-disabled budget is tracked
// (scripts/bench.sh folds all three legs into BENCH_<date>.json as
// trace_overhead).
func BenchmarkTraceOverhead(b *testing.B) {
	const n = 256
	legs := []struct {
		name string
		mk   func() core.Sink
	}{
		{"none", func() core.Sink { return nil }},
		{"recorder", func() core.Sink { return &Recorder{} }},
		{"ndjson", func() core.Sink { return NewTraceWriter(io.Discard) }},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := core.Config{N: n, Bandwidth: 24, Model: core.Unicast, Seed: 7, Parallelism: 1, Sink: leg.mk()}
				if _, err := core.RunProcs(cfg, gossipBody(12, 4)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
