// Package obs is the repo's observability layer (DESIGN.md §14–15): the
// engine-trace/v1 NDJSON codec and in-memory recorder for core's
// round-level traces, trace analysis (reconciliation against Stats,
// per-phase profiles, run diffs, hot-spot ranking), the fleet-trace/v1
// span model of scenariod runs with its throughput accounting
// (Summarize), and a dependency-free Prometheus-text registry of
// counters, gauge functions and scrape-time families. scenariod's
// /metrics reads Summarize of each run's span fold at scrape time, the
// same function cliquetrace applies to a ledger offline. Everything
// here is pull: a run that attaches no Sink and a server nobody scrapes
// pay nothing.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// TraceVersion identifies the NDJSON stream format. The stream is one
// JSON object per line: a "start" record carrying RunMeta, one "round"
// record per engine iteration, and an "end" record carrying the
// authoritative Stats — the reconciliation target.
const TraceVersion = "engine-trace/v1"

// Trace is a fully loaded trace: header, records, and — for runs that
// completed — the footer. A nil Footer marks a truncated stream (the
// run errored or the writer died); analysis that needs the
// authoritative Stats refuses to run on it.
type Trace struct {
	Meta   core.RunMeta
	Rounds []core.RoundTrace
	Footer *core.RunFooter
}

// Recorder is an in-memory core.Sink that deep-copies every record —
// the Sink to use for tests and for analysis inside the same process.
type Recorder struct {
	trace Trace
}

// TraceStart implements core.Sink.
func (r *Recorder) TraceStart(m core.RunMeta) {
	r.trace = Trace{Meta: m}
}

// TraceRound implements core.Sink; the engine reuses the record, so the
// recorder copies it and its slices.
func (r *Recorder) TraceRound(rt *core.RoundTrace) {
	cp := *rt
	cp.Workers = append([]int(nil), rt.Workers...)
	cp.Marks = append([]core.Mark(nil), rt.Marks...)
	r.trace.Rounds = append(r.trace.Rounds, cp)
}

// TraceEnd implements core.Sink.
func (r *Recorder) TraceEnd(f *core.RunFooter) {
	cp := *f
	if f.Faults != nil {
		ff := *f.Faults
		cp.Faults = &ff
	}
	r.trace.Footer = &cp
}

// Trace returns the recorded trace. Valid after the run completes; the
// returned pointer aliases the recorder's storage.
func (r *Recorder) Trace() *Trace { return &r.trace }

// The wire records. Field names are part of the engine-trace/v1
// contract; wall_ns and workers are the documented nondeterministic
// fields (core/trace.go), everything else is a pure function of the
// run's protocol and Config-minus-Parallelism.

type startRecord struct {
	Type        string `json:"type"`
	Version     string `json:"version"`
	N           int    `json:"n"`
	Bandwidth   int    `json:"bandwidth"`
	Model       string `json:"model"`
	Seed        int64  `json:"seed"`
	Parallelism int    `json:"parallelism"`
	Faulty      bool   `json:"faulty,omitempty"`
}

type markRecord struct {
	Node  int    `json:"node"`
	Round int    `json:"round"`
	Name  string `json:"name"`
}

type roundRecord struct {
	Type          string           `json:"type"`
	Round         int              `json:"round"`
	Span          int              `json:"span"`
	Sends         int              `json:"sends"`
	SentBits      int64            `json:"sent_bits"`
	Delivered     int              `json:"delivered"`
	DeliveredBits int64            `json:"delivered_bits"`
	MaxLinkBits   int              `json:"max_link_bits"`
	CutBits       int64            `json:"cut_bits,omitempty"`
	Active        int              `json:"active"`
	Halted        int              `json:"halted,omitempty"`
	Faults        *core.FaultStats `json:"faults,omitempty"`
	Workers       []int            `json:"workers,omitempty"`
	Marks         []markRecord     `json:"marks,omitempty"`
	WallNs        int64            `json:"wall_ns"`
}

type endRecord struct {
	Type    string           `json:"type"`
	Stats   core.Stats       `json:"stats"`
	Faults  *core.FaultStats `json:"faults,omitempty"`
	Pending int              `json:"pending,omitempty"`
}

// modelNames maps the wire spelling both ways; core.Model.String is the
// canonical form.
var modelNames = map[string]core.Model{
	core.Unicast.String():   core.Unicast,
	core.Broadcast.String(): core.Broadcast,
	core.Congest.String():   core.Congest,
}

// TraceWriter streams a trace as engine-trace/v1 NDJSON. It implements
// core.Sink; encode errors are sticky and reported by Err (the engine's
// Sink interface has no error channel — a run is never failed by its
// tracer).
type TraceWriter struct {
	enc *json.Encoder
	err error

	scratch roundRecord
	marks   []markRecord
}

// NewTraceWriter returns a TraceWriter emitting to w. The caller owns
// any buffering and closing of w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{enc: json.NewEncoder(w)}
}

// Err reports the first encode error, if any.
func (t *TraceWriter) Err() error { return t.err }

// TraceStart implements core.Sink.
func (t *TraceWriter) TraceStart(m core.RunMeta) {
	t.emit(startRecord{
		Type:        "start",
		Version:     TraceVersion,
		N:           m.N,
		Bandwidth:   m.Bandwidth,
		Model:       m.Model.String(),
		Seed:        m.Seed,
		Parallelism: m.Parallelism,
		Faulty:      m.Faulty,
	})
}

// TraceRound implements core.Sink.
func (t *TraceWriter) TraceRound(r *core.RoundTrace) {
	t.marks = t.marks[:0]
	for _, m := range r.Marks {
		t.marks = append(t.marks, markRecord(m))
	}
	t.scratch = roundRecord{
		Type:          "round",
		Round:         r.Round,
		Span:          r.Span,
		Sends:         r.Sends,
		SentBits:      r.SentBits,
		Delivered:     r.Delivered,
		DeliveredBits: r.DeliveredBits,
		MaxLinkBits:   r.MaxLinkBits,
		CutBits:       r.CutBits,
		Active:        r.Active,
		Halted:        r.Halted,
		Workers:       r.Workers,
		Marks:         t.marks,
		WallNs:        r.WallNs,
	}
	if r.Faults != (core.FaultStats{}) {
		f := r.Faults
		t.scratch.Faults = &f
	}
	t.emit(&t.scratch)
}

// TraceEnd implements core.Sink.
func (t *TraceWriter) TraceEnd(f *core.RunFooter) {
	t.emit(endRecord{Type: "end", Stats: f.Stats, Faults: f.Faults, Pending: f.Pending})
}

func (t *TraceWriter) emit(v interface{}) {
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(v)
}

// FileSink streams a run's trace to an NDJSON file, creating it (and
// its directory) lazily at TraceStart so an installed-but-unused sink
// factory leaves no empty files. Close flushes and closes; check its
// error (or Err) before trusting the file.
type FileSink struct {
	path string
	f    *os.File
	buf  *bufio.Writer
	w    *TraceWriter
	err  error
}

// NewFileSink returns a FileSink writing to path.
func NewFileSink(path string) *FileSink { return &FileSink{path: path} }

// TraceStart implements core.Sink.
func (s *FileSink) TraceStart(m core.RunMeta) {
	if s.err != nil || s.f != nil {
		if s.w != nil {
			s.w.TraceStart(m)
		}
		return
	}
	if err := os.MkdirAll(filepath.Dir(s.path), 0o755); err != nil {
		s.err = err
		return
	}
	f, err := os.Create(s.path)
	if err != nil {
		s.err = err
		return
	}
	s.f = f
	s.buf = bufio.NewWriterSize(f, 1<<16)
	s.w = NewTraceWriter(s.buf)
	s.w.TraceStart(m)
}

// TraceRound implements core.Sink.
func (s *FileSink) TraceRound(r *core.RoundTrace) {
	if s.w != nil {
		s.w.TraceRound(r)
	}
}

// TraceEnd implements core.Sink.
func (s *FileSink) TraceEnd(f *core.RunFooter) {
	if s.w != nil {
		s.w.TraceEnd(f)
	}
}

// Close flushes and closes the file, reporting the first error seen
// anywhere in the sink's life. Closing an unopened sink (the run never
// started, or TraceStart failed) returns that state's error.
func (s *FileSink) Close() error {
	if s.f == nil {
		return s.err
	}
	err := s.err
	if err == nil {
		err = s.w.Err()
	}
	if ferr := s.buf.Flush(); err == nil {
		err = ferr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f, s.buf, s.w = nil, nil, nil
	s.err = err
	return err
}

// Err reports the sink's sticky error without closing it.
func (s *FileSink) Err() error {
	if s.err != nil {
		return s.err
	}
	if s.w != nil {
		return s.w.Err()
	}
	return nil
}

// Load reads an engine-trace/v1 stream. A missing "end" record is not
// an error — it yields a Trace with a nil Footer (a truncated trace);
// a missing or malformed "start" record is.
func Load(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	tr := &Trace{}
	started := false
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		switch probe.Type {
		case "start":
			var s startRecord
			if err := json.Unmarshal(raw, &s); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			if s.Version != TraceVersion {
				return nil, fmt.Errorf("obs: trace line %d: version %q, want %q", line, s.Version, TraceVersion)
			}
			model, ok := modelNames[s.Model]
			if !ok {
				return nil, fmt.Errorf("obs: trace line %d: unknown model %q", line, s.Model)
			}
			tr.Meta = core.RunMeta{
				N:           s.N,
				Bandwidth:   s.Bandwidth,
				Model:       model,
				Seed:        s.Seed,
				Parallelism: s.Parallelism,
				Faulty:      s.Faulty,
			}
			started = true
		case "round":
			var rr roundRecord
			if err := json.Unmarshal(raw, &rr); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			rt := core.RoundTrace{
				Round:         rr.Round,
				Span:          rr.Span,
				Sends:         rr.Sends,
				SentBits:      rr.SentBits,
				Delivered:     rr.Delivered,
				DeliveredBits: rr.DeliveredBits,
				MaxLinkBits:   rr.MaxLinkBits,
				CutBits:       rr.CutBits,
				Active:        rr.Active,
				Halted:        rr.Halted,
				Workers:       rr.Workers,
				WallNs:        rr.WallNs,
			}
			if rr.Faults != nil {
				rt.Faults = *rr.Faults
			}
			for _, m := range rr.Marks {
				rt.Marks = append(rt.Marks, core.Mark(m))
			}
			tr.Rounds = append(tr.Rounds, rt)
		case "end":
			var e endRecord
			if err := json.Unmarshal(raw, &e); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			tr.Footer = &core.RunFooter{Stats: e.Stats, Faults: e.Faults, Pending: e.Pending}
		default:
			return nil, fmt.Errorf("obs: trace line %d: unknown record type %q", line, probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	if !started {
		return nil, fmt.Errorf("obs: not an %s stream (no start record)", TraceVersion)
	}
	return tr, nil
}

// LoadFile loads a trace from an NDJSON file.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}
