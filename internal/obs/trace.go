package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// TraceFormat selects the wire format of a Tracer.
type TraceFormat int

const (
	// TraceJSONL emits one self-contained JSON object per line per
	// span: {"t_us":…,"dur_us":…,"phase":"simulate","round":3}. t_us is
	// microseconds since the tracer was created, so events from one run
	// share a time base.
	TraceJSONL TraceFormat = iota
	// TraceChrome emits the Chrome trace_event JSON array format
	// understood by chrome://tracing and https://ui.perfetto.dev: one
	// complete ("ph":"X") event per span.
	TraceChrome
)

// TraceEvent is one finished span on the run's timeline. Unlike the
// Phase-based spans fed by Span.End, a TraceEvent can name an
// arbitrary stage, which is how work outside the phase taxonomy (the
// round tail's ledger-only measure-each, the cache rebase, the
// ledger's technology mapping) appears in a trace.
type TraceEvent struct {
	// Name is the span name.
	Name string
	// Round is the synthesis round the span belongs to.
	Round int
	// Start is the span's start.
	Start time.Time
	// Dur is the span's duration.
	Dur time.Duration
}

// Tracer writes span events to an io.Writer in one of the supported
// formats. It is safe for concurrent use. Close flushes the format
// trailer (the closing bracket of the Chrome array); closing is
// idempotent and a nil Tracer is a no-op.
type Tracer struct {
	mu     sync.Mutex
	w      io.Writer
	format TraceFormat
	start  time.Time
	wrote  bool
	closed bool
	err    error
}

// NewTracer returns a tracer writing to w in the given format.
func NewTracer(w io.Writer, format TraceFormat) *Tracer {
	return &Tracer{w: w, format: format, start: time.Now()}
}

// jsonlEvent is the JSONL wire format of one span.
type jsonlEvent struct {
	TUS   int64  `json:"t_us"`
	DurUS int64  `json:"dur_us"`
	Phase string `json:"phase"`
	Round int    `json:"round"`
}

// chromeEvent is the Chrome trace_event wire format of one span.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// emit records one finished phase span.
func (t *Tracer) emit(phase Phase, round int, start time.Time, dur time.Duration) {
	t.Emit(TraceEvent{Name: phase.String(), Round: round, Start: start, Dur: dur})
}

// Chrome trace lane of every span: one process with one thread.
const (
	chromePID = 1
	chromeTID = 1
)

// Emit records one finished span. A nil Tracer is a no-op.
func (t *Tracer) Emit(ev TraceEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.err != nil {
		return
	}
	ts := ev.Start.Sub(t.start).Microseconds()
	if t.format == TraceJSONL {
		t.writeEvent(jsonlEvent{TUS: ts, DurUS: ev.Dur.Microseconds(), Phase: ev.Name, Round: ev.Round})
		return
	}
	if !t.wrote {
		// Name the lane once, so Perfetto labels it.
		t.writeEvent(chromeEvent{
			Name: "process_name", Cat: "accals", Ph: "M", PID: chromePID, TID: 0,
			Args: map[string]any{"name": "accals"},
		})
		t.writeEvent(chromeEvent{
			Name: "thread_name", Cat: "accals", Ph: "M", PID: chromePID, TID: chromeTID,
			Args: map[string]any{"name": "main"},
		})
	}
	t.writeEvent(chromeEvent{
		Name: ev.Name,
		Cat:  "accals",
		Ph:   "X",
		TS:   ts,
		Dur:  ev.Dur.Microseconds(),
		PID:  chromePID,
		TID:  chromeTID,
		Args: map[string]any{"round": ev.Round},
	})
}

// writeEvent marshals and writes one wire object, maintaining the
// format's separators and latching the first write error. Caller
// holds t.mu.
func (t *Tracer) writeEvent(obj any) {
	if t.err != nil {
		return
	}
	body, err := json.Marshal(obj)
	if err == nil && t.format == TraceChrome {
		if !t.wrote {
			_, err = io.WriteString(t.w, "[\n")
		} else {
			_, err = io.WriteString(t.w, ",\n")
		}
	}
	if err == nil {
		_, err = t.w.Write(body)
	}
	if err == nil && t.format == TraceJSONL {
		_, err = io.WriteString(t.w, "\n")
	}
	t.wrote = true
	t.err = err
}

// Close writes the format trailer. It does not close the underlying
// writer. It returns the first write error encountered over the
// tracer's lifetime, so callers can surface silently dropped events.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return t.err
	}
	t.closed = true
	if t.format == TraceChrome && t.err == nil {
		if !t.wrote {
			_, t.err = io.WriteString(t.w, "[")
		}
		if t.err == nil {
			_, t.err = io.WriteString(t.w, "\n]\n")
		}
	}
	if t.err != nil {
		return fmt.Errorf("obs: trace write failed: %w", t.err)
	}
	return nil
}
