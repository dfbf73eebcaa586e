// Package ledger is the flight recorder of a synthesis run: a
// versioned, schema-stable JSONL event stream written through an
// obs.Recorder sink, recording every per-round selection decision —
// top-set sizing, conflict-graph pruning, mutual-influence thresholds,
// the MIS-vs-random duel, estimated-vs-measured error, guard
// activations and the area/depth trajectory — so runs can be analysed,
// compared and regression-gated after the fact (see cmd/report).
//
// The stream is one JSON object per line, each carrying the schema
// version and an event type:
//
//	{"v":"1.0","type":"meta","meta":{...}}     run configuration
//	{"v":"1.0","type":"round","round":{...}}   one synthesis round
//	{"v":"1.0","type":"finish","finish":{...}} outcome and stop reason
//
// Versioning contract: the major version changes only on incompatible
// schema changes and decoders reject unknown majors; minor additions
// (new omitempty fields) bump the minor version and old decoders
// ignore them. A run bundle (see Bundle) wraps the ledger with a
// config/environment manifest, the end-of-run summary, the optional
// phase trace, and auto-captured profiles.
package ledger

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"accals/internal/obs"
)

// Schema version of ledgers this package writes. Decode accepts any
// ledger whose major version matches SchemaMajor.
const (
	SchemaMajor = 1
	// SchemaMinor 1 added the speculative-pipelining round fields
	// (speculated, spec_hit), both omitempty: 1.0 ledgers decode
	// unchanged. Speculation has since been removed, so the 1.1 fields
	// are no longer written, but ledgers carrying them still decode
	// (unknown fields are ignored). SchemaMinor 2 added the
	// SAT-certification round fields (certified, cert_conflicts), also
	// omitempty.
	SchemaMinor = 2
)

// Schema is the version string stamped on every emitted line.
var Schema = fmt.Sprintf("%d.%d", SchemaMajor, SchemaMinor)

// ErrSchema reports a ledger whose major schema version this decoder
// does not understand (forward-compatibility guard).
var ErrSchema = errors.New("ledger: unsupported schema version")

// Event is one decoded ledger line. Exactly one of Meta, Round and
// Finish is non-nil, matching Type.
type Event struct {
	// V is the schema version the line was written under ("major.minor").
	V string `json:"v"`
	// Type discriminates the payload: "meta", "round" or "finish".
	Type   string          `json:"type"`
	Meta   *obs.RunMeta    `json:"meta,omitempty"`
	Round  *obs.RoundEvent `json:"round,omitempty"`
	Finish *obs.RunFinish  `json:"finish,omitempty"`
}

// Event type discriminators.
const (
	TypeMeta   = "meta"
	TypeRound  = "round"
	TypeFinish = "finish"
)

// Writer encodes ledger events as JSONL. It implements obs.Sink, so
// attaching one to a Recorder (Recorder.AddSink) turns the run's
// emitted events into a persistent stream. Writes are serialised; the
// first write error is retained and poisons the writer (matching the
// obs.Tracer contract), so a truncated ledger is detectable via Err.
type Writer struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	n   int64
	err error
}

// NewWriter returns a ledger writer emitting one JSON line per event
// to w. The caller owns w's lifetime (and its Close).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// RunMeta implements obs.Sink.
func (w *Writer) RunMeta(m obs.RunMeta) { w.emit(Event{Type: TypeMeta, Meta: &m}) }

// Round implements obs.Sink.
func (w *Writer) Round(ev obs.RoundEvent) { w.emit(Event{Type: TypeRound, Round: &ev}) }

// Finish implements obs.Sink.
func (w *Writer) Finish(f obs.RunFinish) { w.emit(Event{Type: TypeFinish, Finish: &f}) }

// emit encodes and writes one line under the writer's lock.
func (w *Writer) emit(ev Event) {
	if w == nil {
		return
	}
	ev.V = Schema
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	body, err := json.Marshal(ev)
	if err != nil {
		w.err = err
		return
	}
	w.buf = append(w.buf[:0], body...)
	w.buf = append(w.buf, '\n')
	n, err := w.w.Write(w.buf)
	w.n += int64(n)
	w.err = err
}

// Size returns the number of bytes successfully written so far. With
// an append-mode file underneath, add the opening offset to obtain the
// absolute ledger size (Bundle does this for checkpoint truncation).
func (w *Writer) Size() int64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Err returns the first write or encode error, so callers can surface
// a silently truncated ledger.
func (w *Writer) Err() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// parseMajor extracts the major component of a "major.minor" version.
func parseMajor(v string) (int, error) {
	s, _, _ := strings.Cut(v, ".")
	major, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("ledger: malformed schema version %q", v)
	}
	return major, nil
}

// Decode reads a complete ledger stream. Every line must decode and
// carry a supported major schema version; an unknown major returns an
// error wrapping ErrSchema (newer minors within the same major are
// fine — unknown fields are ignored). A trailing torn line (a crashed
// writer's last partial write) is tolerated and dropped; torn lines
// anywhere else are an error.
func Decode(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []Event
	var pendingErr error
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		if pendingErr != nil {
			// The malformed line was not the final one: real corruption.
			return nil, pendingErr
		}
		var ev Event
		if err := json.Unmarshal([]byte(raw), &ev); err != nil {
			pendingErr = fmt.Errorf("ledger: line %d: %w", line, err)
			continue
		}
		major, err := parseMajor(ev.V)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if major != SchemaMajor {
			return nil, fmt.Errorf("%w: line %d has major %d, this decoder understands %d",
				ErrSchema, line, major, SchemaMajor)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	return events, nil
}

// DecodeFile reads the ledger at path.
func DecodeFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
