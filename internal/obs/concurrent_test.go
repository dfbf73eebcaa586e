package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentSpanEmission hammers one Recorder from parallel
// worker goroutines plus a background RPC-lane goroutine while the
// main goroutine advances rounds — the shape of a traced distributed
// run.
// Run under -race this pins the no-lost-event / no-data-race contract
// of the tracer fan-out, and the Chrome output must still parse as
// one well-formed JSON array.
func TestConcurrentSpanEmission(t *testing.T) {
	var jsonl, chrome strings.Builder
	r := NewRecorder()
	r.AddTracer(NewTracer(&jsonl, TraceJSONL))
	r.AddTracer(NewTracer(&chrome, TraceChrome))

	const (
		workers = 8
		rounds  = 5
		perIter = 20
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Dispatch goroutine: RPC spans on a connection's own thread lane,
	// round resolved from the recorder's current round (-1).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.EmitEvent(TraceEvent{
				Name: "rpc:eval", TID: TIDDispatchBase, Round: -1,
				Start: time.Now(), Dur: time.Microsecond,
			})
		}
	}()

	for round := 0; round < rounds; round++ {
		r.BeginRound(round)
		var rw sync.WaitGroup
		for w := 0; w < workers; w++ {
			rw.Add(1)
			go func(w int) {
				defer rw.Done()
				for i := 0; i < perIter; i++ {
					r.DispatchInflight(1)
					r.StartSpan(PhaseEstimate).End()
					r.EmitEvent(TraceEvent{
						Name: "remote:estimate", Proc: "evaluator (pid 1)",
						PID: PIDEvaluatorBase + w%2, Round: -1,
						Start: time.Now(), Dur: time.Microsecond,
					})
					r.CountRemoteSpan(time.Microsecond)
					r.DispatchRPC(time.Microsecond)
					r.DispatchInflight(-1)
				}
			}(w)
		}
		rw.Wait()
		r.EndRound(round, 0.1, 100, 0, 1)
	}
	close(stop)
	wg.Wait()
	r.Finish("bounded")

	var evs []map[string]any
	if err := json.Unmarshal([]byte(chrome.String()), &evs); err != nil {
		t.Fatalf("chrome trace invalid after concurrent emission: %v", err)
	}
	wantSpans := workers * rounds * perIter * 2 // estimate phase + remote event each
	var durEvents int
	for _, ev := range evs {
		if ev["ph"] == "X" {
			durEvents++
		}
	}
	if durEvents < wantSpans {
		t.Fatalf("chrome trace lost events: got %d duration events, want >= %d", durEvents, wantSpans)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) < wantSpans {
		t.Fatalf("jsonl trace lost events: got %d lines, want >= %d", len(lines), wantSpans)
	}
	for _, line := range lines {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("jsonl line corrupted by concurrent writes: %v\n%s", err, line)
		}
	}

	s := r.Summary()
	if want := int64(workers * rounds * perIter); s.RemoteSpans != want {
		t.Fatalf("RemoteSpans = %d, want %d", s.RemoteSpans, want)
	}
	if s.RemoteBusySeconds <= 0 {
		t.Fatalf("RemoteBusySeconds = %v, want > 0", s.RemoteBusySeconds)
	}
	if s.TraceID == "" || len(s.TraceID) != 16 {
		t.Fatalf("TraceID = %q, want 16 hex chars", s.TraceID)
	}
}

func TestTraceIDLifecycle(t *testing.T) {
	var nilRec *Recorder
	if nilRec.TraceID() != "" || nilRec.Tracing() {
		t.Fatal("nil recorder must have no trace identity")
	}
	nilRec.EmitEvent(TraceEvent{Name: "x"}) // must not panic
	nilRec.CountRemoteSpan(time.Second)
	nilRec.SetTraceID("abc")

	a, b := NewRecorder(), NewRecorder()
	if a.TraceID() == "" || a.TraceID() == b.TraceID() {
		t.Fatalf("trace IDs not unique: %q vs %q", a.TraceID(), b.TraceID())
	}
	a.SetTraceID("feedfacefeedface")
	if a.TraceID() != "feedfacefeedface" {
		t.Fatalf("SetTraceID not applied: %q", a.TraceID())
	}
	a.SetTraceID("")
	if a.TraceID() != "feedfacefeedface" {
		t.Fatal("empty SetTraceID must be ignored")
	}
	if a.Tracing() {
		t.Fatal("Tracing() true without tracers")
	}
	a.AddTracer(NewTracer(&strings.Builder{}, TraceJSONL))
	if !a.Tracing() {
		t.Fatal("Tracing() false with a tracer attached")
	}
}
