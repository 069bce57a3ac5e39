package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
)

// LedgerSchema names the resume-ledger layout (DESIGN.md §11). v2 is an
// extension of the v1 append-only JSONL format: a checksummed header
// line binding the file to one (matrix, options) run, then one
// checksummed, typed record per line — completed cells (the v1 payload)
// plus the spec and span records of the scenariod service (DESIGN.md
// §12). Appends are whole lines and every line carries a truncated
// SHA-256 of its own canonical JSON, so the only
// thing torn or corrupted bytes can ever cost is re-running cells:
// resume verifies each line and stops at the first damaged one
// (FuzzLedgerResume pins this — a corrupted ledger must never resume to
// a wrong report).
const LedgerSchema = "scenario-ledger/v2"

// Ledger record types (LedgerRecord.T). The lease and hb types are
// legacy: older scenariod servers wrote them, this code writes neither,
// and every reader skips them.
const (
	RecCell      = "cell"  // a completed cell: the unit of resume
	RecSpec      = "spec"  // scenariod: the submitted run spec, for server reload
	RecLease     = "lease" // legacy scenariod: a lease grant (span records replaced it)
	RecHeartbeat = "hb"    // legacy scenariod: a worker heartbeat on a live lease
	RecSpan      = "span"  // scenariod: a fleet-trace/v1 cell-lifecycle span event (DESIGN.md §15)
)

// LedgerInfo binds a ledger file to the run that produced it. Resuming
// under a different seed, fault spec, or matrix shape would silently
// mix incompatible results, so OpenLedger refuses on any mismatch.
type LedgerInfo struct {
	BaseSeed int64
	Faults   string
	Cells    int
}

// ledgerHeader is the first line of the file.
type ledgerHeader struct {
	Schema   string `json:"schema"`
	BaseSeed int64  `json:"base_seed"`
	Faults   string `json:"faults"`
	Cells    int    `json:"cells"`
	Sum      string `json:"sum,omitempty"`
}

// LedgerRecord is one post-header line. Only the fields of its type are
// populated: cell records carry Key+Cell, spec records Spec, span
// records the span fields below, and the legacy lease records Key+
// Worker+Attempt+DeadlineMs, heartbeats Key+Worker.
//
// No field may be removed, even one nothing writes any more: a line's
// checksum is taken over the record re-marshaled from this struct, so a
// line carrying a dropped field fails verification, and OpenLedger
// truncates the ledger at the first line that fails — losing every
// record after it.
type LedgerRecord struct {
	T    string      `json:"t"`
	Key  string      `json:"key,omitempty"`
	Cell *CellResult `json:"cell,omitempty"`

	// Worker and Attempt name the lease holder on span records and the
	// legacy lease/heartbeat records; DeadlineMs is legacy lease only.
	Worker     string `json:"worker,omitempty"`
	Attempt    int    `json:"attempt,omitempty"`
	DeadlineMs int64  `json:"deadline_ms,omitempty"`

	// Span records (T == RecSpan) interleave the fleet-trace/v1
	// cell-lifecycle stream with the resume payload: Event names the
	// transition, TMs stamps it with the service clock (epoch ms),
	// Outcome carries the terminal cell outcome on completion events,
	// ExecMs the worker-reported executing-leg duration on result
	// submissions, and Cells the declared cell count on run-level
	// events. All omitempty, so pre-span ledgers re-verify unchanged.
	Event   string `json:"event,omitempty"`
	TMs     int64  `json:"t_ms,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	ExecMs  int64  `json:"exec_ms,omitempty"`
	Cells   int    `json:"cells,omitempty"`

	// Spec carries the scenariod run spec verbatim for server reload.
	Spec json.RawMessage `json:"spec,omitempty"`

	Sum string `json:"sum,omitempty"`
}

// lineSum is the per-line checksum: truncated SHA-256 over the line's
// canonical JSON with the Sum field empty. A cryptographic hash (not a
// rolling CRC) because the fuzz safety property — corrupted bytes never
// resume to a wrong cell — must hold even against adversarial
// mutations, which can be engineered to preserve a CRC.
func lineSum(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// Records are plain structs of encodable fields; Marshal cannot
		// fail on them.
		panic(err)
	}
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:8])
}

func sealHeader(h ledgerHeader) ledgerHeader { h.Sum = ""; h.Sum = lineSum(h); return h }

func headerOK(h ledgerHeader) bool { sum := h.Sum; h.Sum = ""; return sum == lineSum(h) }

func sealRecord(r LedgerRecord) LedgerRecord { r.Sum = ""; r.Sum = lineSum(r); return r }

func recordOK(r LedgerRecord) bool { sum := r.Sum; r.Sum = ""; return sum == lineSum(r) }

// parseLedger verifies data line by line. It returns the header (zero
// if the file is empty), the verified records of the longest valid
// prefix, and the byte length of that prefix. A header that parses but
// fails verification or names the wrong schema is an error (the file is
// not a v2 ledger for this code); any damage after the header just
// shortens the prefix — the conservative reading, since a dropped
// record merely re-runs its cell.
func parseLedger(data []byte) (ledgerHeader, []LedgerRecord, int, error) {
	var hdr ledgerHeader
	if len(bytes.TrimSpace(data)) == 0 {
		return hdr, nil, 0, nil
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return hdr, nil, 0, errors.New("torn header line")
	}
	if err := json.Unmarshal(data[:nl], &hdr); err != nil {
		return hdr, nil, 0, fmt.Errorf("bad header: %v", err)
	}
	if hdr.Schema != LedgerSchema {
		return hdr, nil, 0, fmt.Errorf("ledger schema %q, want %q", hdr.Schema, LedgerSchema)
	}
	if !headerOK(hdr) {
		return hdr, nil, 0, errors.New("header checksum mismatch")
	}
	valid := nl + 1
	var recs []LedgerRecord
	rest := data[valid:]
	for len(rest) > 0 {
		nl = bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break // torn tail: a record without its newline never counts
		}
		line := rest[:nl]
		if len(bytes.TrimSpace(line)) != 0 {
			var rec LedgerRecord
			if err := json.Unmarshal(line, &rec); err != nil || !recordOK(rec) {
				break // first damaged line; everything before it is intact
			}
			recs = append(recs, rec)
		}
		valid += nl + 1
		rest = rest[nl+1:]
	}
	return hdr, recs, valid, nil
}

// Ledger is the open append handle; appends are serialized so the
// scenariod server can record results arriving from concurrent workers.
type Ledger struct {
	f  *os.File
	mu sync.Mutex
}

// OpenLedger opens (or creates) a resume ledger at path, bound to info.
// It returns the append handle, the cells already completed by a
// previous run, and the other verified records (spec, span and legacy
// records, for the scenariod reload path). A torn or corrupted tail is
// truncated away so subsequent appends start on a clean line boundary;
// every line lost that way merely re-runs its cell.
func OpenLedger(path string, info LedgerInfo) (*Ledger, map[string]CellResult, []LedgerRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil, fmt.Errorf("scenario: ledger %s: %w", path, err)
	}
	hdr, recs, valid, perr := parseLedger(data)
	if perr != nil {
		return nil, nil, nil, fmt.Errorf("scenario: ledger %s: %v (delete the file to restart)", path, perr)
	}
	want := sealHeader(ledgerHeader{Schema: LedgerSchema, BaseSeed: info.BaseSeed, Faults: info.Faults, Cells: info.Cells})
	fresh := valid == 0
	if !fresh {
		have, exp := hdr, want
		have.Sum, exp.Sum = "", ""
		if have != exp {
			return nil, nil, nil, fmt.Errorf("scenario: ledger %s belongs to a different run: have %+v, want %+v (delete the file to restart)",
				path, have, exp)
		}
	}
	prior := map[string]CellResult{}
	var others []LedgerRecord
	for _, r := range recs {
		if r.T == RecCell && r.Cell != nil {
			prior[r.Key] = *r.Cell
		} else {
			others = append(others, r)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("scenario: ledger %s: %w", path, err)
	}
	if err := f.Truncate(int64(valid)); err != nil {
		f.Close()
		return nil, nil, nil, fmt.Errorf("scenario: ledger %s: %w", path, err)
	}
	led := &Ledger{f: f}
	if fresh {
		hb, err := json.Marshal(want)
		if err != nil {
			f.Close()
			return nil, nil, nil, err
		}
		if _, err := f.Write(append(hb, '\n')); err != nil {
			f.Close()
			return nil, nil, nil, fmt.Errorf("scenario: ledger %s: %w", path, err)
		}
	}
	return led, prior, others, nil
}

// LoadLedger reads a ledger without an expected binding (the scenariod
// server-reload path): just the verified prefix, no truncation, no
// append handle.
func LoadLedger(path string) (LedgerInfo, []LedgerRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return LedgerInfo{}, nil, fmt.Errorf("scenario: ledger %s: %w", path, err)
	}
	hdr, recs, valid, perr := parseLedger(data)
	if perr != nil {
		return LedgerInfo{}, nil, fmt.Errorf("scenario: ledger %s: %v", path, perr)
	}
	if valid == 0 {
		return LedgerInfo{}, nil, fmt.Errorf("scenario: ledger %s: empty", path)
	}
	return LedgerInfo{BaseSeed: hdr.BaseSeed, Faults: hdr.Faults, Cells: hdr.Cells}, recs, nil
}

// openLedger is the RunMatrixOpts entry point: path == "" disables the
// ledger, and the binding is derived from the matrix and options.
func openLedger(path string, m *Matrix, opt RunOptions) (*Ledger, map[string]CellResult, error) {
	if path == "" {
		return nil, nil, nil
	}
	led, prior, _, err := OpenLedger(path, LedgerInfo{
		BaseSeed: m.BaseSeed,
		Faults:   opt.Faults.String(),
		Cells:    len(m.Expand()),
	})
	return led, prior, err
}

// Append seals rec with its line checksum and writes it as one line.
func (l *Ledger) Append(rec LedgerRecord) error {
	data, err := json.Marshal(sealRecord(rec))
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("scenario: ledger append: %w", err)
	}
	return nil
}

// AppendCell records one completed cell.
func (l *Ledger) AppendCell(key string, cr CellResult) error {
	return l.Append(LedgerRecord{T: RecCell, Key: key, Cell: &cr})
}

// Sync flushes the ledger to stable storage (the scenariod drain path).
func (l *Ledger) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Sync()
}

// Close closes the append handle.
func (l *Ledger) Close() error { return l.f.Close() }
