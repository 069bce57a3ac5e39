// Package obs is the repo's observability layer (DESIGN.md §14–15): the
// engine-trace/v1 NDJSON framing and in-memory recorder for core's
// round-level traces (the records and their wire field names are core's;
// obs only tags each line with its type), trace analysis
// (reconciliation against Stats, per-phase profiles, run diffs,
// hot-spot ranking, all folded by one Totals.add), the fleet-trace/v1
// span model of scenariod runs with its throughput accounting
// (Summarize), and a dependency-free Prometheus-text registry of gauge
// functions and scrape-time families. scenariod's
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

// The engine-trace/v1 lines: a type tag, then the core record itself,
// whose json tags are the wire's field names (core/trace.go); the start
// line also carries the stream version.

type startLine struct {
	Type    string `json:"type"`
	Version string `json:"version"`
	core.RunMeta
}

type roundLine struct {
	Type string `json:"type"`
	*core.RoundTrace
}

type endLine struct {
	Type string `json:"type"`
	*core.RunFooter
}

// TraceWriter streams a trace as engine-trace/v1 NDJSON. It implements
// core.Sink; encode errors are sticky and reported by Err (the engine's
// Sink interface has no error channel — a run is never failed by its
// tracer). Each round record is encoded in place, through one reused
// round line, so tracing to a writer copies nothing per round.
type TraceWriter struct {
	enc   *json.Encoder
	err   error
	round roundLine
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
	t.emit(startLine{Type: "start", Version: TraceVersion, RunMeta: m})
}

// TraceRound implements core.Sink.
func (t *TraceWriter) TraceRound(r *core.RoundTrace) {
	t.round = roundLine{Type: "round", RoundTrace: r}
	t.emit(&t.round)
}

// TraceEnd implements core.Sink.
func (t *TraceWriter) TraceEnd(f *core.RunFooter) {
	t.emit(endLine{Type: "end", RunFooter: f})
}

func (t *TraceWriter) emit(v interface{}) {
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(v)
}

// FileSink streams a run's trace to an NDJSON file, creating it (and
// its directory) lazily at TraceStart so an installed-but-unused sink
// factory leaves no empty files. TraceEnd writes the footer, then
// flushes and closes the file, so a finished run's file is complete on
// disk and holds no descriptor; Close does the same for a run that
// never finished. The file is created once: a closed sink never reopens
// or truncates it. Check Close's error before trusting the file.
type FileSink struct {
	path    string
	created bool // TraceStart has tried to create the file
	f       *os.File
	buf     *bufio.Writer
	w       *TraceWriter
	err     error
}

// NewFileSink returns a FileSink writing to path.
func NewFileSink(path string) *FileSink { return &FileSink{path: path} }

// TraceStart implements core.Sink.
func (s *FileSink) TraceStart(m core.RunMeta) {
	if !s.created {
		s.created = true
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
	}
	if s.w != nil {
		s.w.TraceStart(m)
	}
}

// TraceRound implements core.Sink.
func (s *FileSink) TraceRound(r *core.RoundTrace) {
	if s.w != nil {
		s.w.TraceRound(r)
	}
}

// TraceEnd implements core.Sink: it writes the footer and closes the
// file.
func (s *FileSink) TraceEnd(f *core.RunFooter) {
	if s.w != nil {
		s.w.TraceEnd(f)
	}
	_ = s.Close() // the error sticks: a later Close reports it
}

// Close flushes and closes the file, reporting the first error seen
// anywhere in the sink's life. Closing an unopened sink (the run never
// started, or TraceStart failed) or a closed one returns that state's
// error.
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

// Load reads an engine-trace/v1 stream, decoding each line's record
// straight into its core type. A missing "end" record is not an error —
// it yields a Trace with a nil Footer (a truncated trace); a missing or
// malformed "start" record is.
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
		var err error
		switch probe.Type {
		case "start":
			var s startLine
			if err = json.Unmarshal(raw, &s); err == nil && s.Version != TraceVersion {
				err = fmt.Errorf("version %q, want %q", s.Version, TraceVersion)
			}
			tr.Meta, started = s.RunMeta, true
		case "round":
			tr.Rounds = append(tr.Rounds, core.RoundTrace{})
			err = json.Unmarshal(raw, &roundLine{RoundTrace: &tr.Rounds[len(tr.Rounds)-1]})
		case "end":
			tr.Footer = &core.RunFooter{}
			err = json.Unmarshal(raw, &endLine{RunFooter: tr.Footer})
		default:
			err = fmt.Errorf("unknown record type %q", probe.Type)
		}
		if err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
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
