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

// Stable pid/tid assignments of the merged multi-process timeline.
// Trace pids are logical lane identifiers, not OS pids: the
// coordinating process is always pid 1 and evaluator connection i
// renders as pid 2+i, so two traces of the same topology line up.
// The real OS pid of a remote evaluator travels in the process label
// (TraceEvent.Proc).
const (
	// PIDLocal is the trace pid of the coordinating process.
	PIDLocal = 1
	// PIDEvaluatorBase is the trace pid of evaluator connection 0;
	// connection i maps to PIDEvaluatorBase+i.
	PIDEvaluatorBase = 2
	// TIDMain is the main synthesis-loop thread of a process.
	TIDMain = 1
	// TIDDispatchBase is the RPC lane of evaluator connection 0 inside
	// the coordinator; connection i maps to TIDDispatchBase+i.
	TIDDispatchBase = 10
)

// TraceEvent is one finished span on the merged timeline. Unlike the
// Phase-based spans fed by Span.End, a TraceEvent can name an
// arbitrary stage and carry a process/thread assignment, which is how
// remote evaluator telemetry and the dispatch RPC lanes appear in a
// trace. Zero PID/TID mean PIDLocal/TIDMain.
type TraceEvent struct {
	// Name is the span name: a Phase name, an "rpc:*" round trip, or a
	// remote evaluator stage such as "remote:simulate".
	Name string
	// Proc labels the process the span ran in; empty means the tracing
	// process itself. For remote spans it includes the evaluator's
	// address and OS pid.
	Proc string
	// Thread labels the thread lane; empty picks a default from TID.
	Thread string
	// PID and TID place the span on the merged timeline (see the
	// PID*/TID* constants).
	PID int
	TID int
	// Round is the synthesis round the span belongs to. Passing -1 to
	// Recorder.EmitEvent substitutes the recorder's current round.
	Round int
	// Start is the span's start on the local timeline; remote spans
	// must already be clock-mapped (see internal/dispatch).
	Start time.Time
	// Dur is the span's duration.
	Dur time.Duration
	// NetUS bounds the network share of an RPC span in microseconds
	// (the connection's measured RTT); zero for non-RPC spans.
	NetUS int64
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

	// Chrome metadata bookkeeping: which pids / (pid,tid) pairs have
	// had their process_name / thread_name events emitted.
	procSeen   map[int]bool
	threadSeen map[uint64]bool
}

// NewTracer returns a tracer writing to w in the given format.
func NewTracer(w io.Writer, format TraceFormat) *Tracer {
	return &Tracer{w: w, format: format, start: time.Now()}
}

// jsonlEvent is the JSONL wire format of one span. The proc/pid/tid/
// net_us fields are omitted for plain local main-thread spans, so
// single-process traces keep the pre-multi-process byte shape.
type jsonlEvent struct {
	TUS   int64  `json:"t_us"`
	DurUS int64  `json:"dur_us"`
	Phase string `json:"phase"`
	Round int    `json:"round"`
	Proc  string `json:"proc,omitempty"`
	PID   int    `json:"pid,omitempty"`
	TID   int    `json:"tid,omitempty"`
	NetUS int64  `json:"net_us,omitempty"`
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

// emit records one finished local main-thread phase span.
func (t *Tracer) emit(phase Phase, round int, start time.Time, dur time.Duration) {
	t.Emit(TraceEvent{Name: phase.String(), Round: round, Start: start, Dur: dur})
}

// Emit records one finished span with an explicit process/thread
// assignment. A nil Tracer is a no-op.
func (t *Tracer) Emit(ev TraceEvent) {
	if t == nil {
		return
	}
	if ev.PID == 0 {
		ev.PID = PIDLocal
	}
	if ev.TID == 0 {
		ev.TID = TIDMain
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.err != nil {
		return
	}
	ts := ev.Start.Sub(t.start).Microseconds()
	switch t.format {
	case TraceChrome:
		t.chromeMeta(ev)
		args := map[string]any{"round": ev.Round}
		if ev.NetUS > 0 {
			args["net_us"] = ev.NetUS
		}
		t.writeEvent(chromeEvent{
			Name: ev.Name,
			Cat:  "accals",
			Ph:   "X",
			TS:   ts,
			Dur:  ev.Dur.Microseconds(),
			PID:  ev.PID,
			TID:  ev.TID,
			Args: args,
		})
	default:
		e := jsonlEvent{
			TUS:   ts,
			DurUS: ev.Dur.Microseconds(),
			Phase: ev.Name,
			Round: ev.Round,
			Proc:  ev.Proc,
			NetUS: ev.NetUS,
		}
		if ev.PID != PIDLocal {
			e.PID = ev.PID
		}
		if ev.TID != TIDMain {
			e.TID = ev.TID
		}
		t.writeEvent(e)
	}
}

// chromeMeta emits the one-time process_name / thread_name metadata
// events for the event's (pid, tid), so Perfetto renders labeled
// lanes. Caller holds t.mu.
func (t *Tracer) chromeMeta(ev TraceEvent) {
	if t.procSeen == nil {
		t.procSeen = make(map[int]bool)
		t.threadSeen = make(map[uint64]bool)
	}
	if !t.procSeen[ev.PID] {
		t.procSeen[ev.PID] = true
		name := ev.Proc
		if name == "" {
			name = "accals coordinator"
		}
		t.writeEvent(chromeEvent{
			Name: "process_name", Cat: "accals", Ph: "M", PID: ev.PID, TID: 0,
			Args: map[string]any{"name": name},
		})
	}
	key := uint64(ev.PID)<<32 | uint64(uint32(ev.TID))
	if !t.threadSeen[key] {
		t.threadSeen[key] = true
		t.writeEvent(chromeEvent{
			Name: "thread_name", Cat: "accals", Ph: "M", PID: ev.PID, TID: ev.TID,
			Args: map[string]any{"name": threadLabel(ev)},
		})
	}
}

// threadLabel names a thread lane for the Chrome thread_name event.
func threadLabel(ev TraceEvent) string {
	if ev.Thread != "" {
		return ev.Thread
	}
	switch {
	case ev.TID == TIDMain:
		return "main"
	case ev.TID >= TIDDispatchBase:
		return fmt.Sprintf("rpc-%d", ev.TID-TIDDispatchBase)
	}
	return fmt.Sprintf("thread-%d", ev.TID)
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
