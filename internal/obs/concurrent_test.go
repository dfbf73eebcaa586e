package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentSpanEmission hammers one Recorder from parallel
// worker goroutines emitting phase spans while a background goroutine
// emits the trace-only events core writes outside the phase taxonomy
// (ledger-map, measure-each, rebase) and the main goroutine advances
// rounds. Run under -race this pins the no-lost-event / no-data-race
// contract of the tracer fan-out, and the Chrome output must still
// parse as one well-formed JSON array.
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

	// Event goroutine: trace-only spans, raced against the phase spans.
	var events atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		names := []string{"ledger-map", "measure-each", "rebase"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.EmitEvent(TraceEvent{
				Name: names[i%len(names)], Round: i % rounds,
				Start: time.Now(), Dur: time.Microsecond,
			})
			events.Add(1)
		}
	}()

	for round := 0; round < rounds; round++ {
		r.BeginRound(round)
		var rw sync.WaitGroup
		for w := 0; w < workers; w++ {
			rw.Add(1)
			go func() {
				defer rw.Done()
				for i := 0; i < perIter; i++ {
					r.StartSpan(PhaseEstimate).End()
					r.EmitEvent(TraceEvent{Name: "measure-each", Round: round, Start: time.Now(), Dur: time.Microsecond})
				}
			}()
		}
		rw.Wait()
		r.Round(RoundEvent{Round: round, Error: 0.1, NumAnds: 100, Applied: make([]AppliedLAC, 1)})
	}
	close(stop)
	wg.Wait()
	r.Finish(RunFinish{StopReason: "bounded"})

	// Every span reaches both tracers: the workers' phase spans and
	// events plus the background goroutine's events.
	wantSpans := workers*rounds*perIter*2 + int(events.Load())
	var evs []map[string]any
	if err := json.Unmarshal([]byte(chrome.String()), &evs); err != nil {
		t.Fatalf("chrome trace invalid after concurrent emission: %v", err)
	}
	var durEvents int
	for _, ev := range evs {
		if ev["ph"] == "X" {
			durEvents++
		}
	}
	if durEvents != wantSpans {
		t.Fatalf("chrome trace has %d duration events, want %d", durEvents, wantSpans)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != wantSpans {
		t.Fatalf("jsonl trace has %d lines, want %d", len(lines), wantSpans)
	}
	for _, line := range lines {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("jsonl line corrupted by concurrent writes: %v\n%s", err, line)
		}
	}

	// Events stay off the phase histograms.
	s := r.Summary()
	if got := s.Phases["estimate"].Count; got != workers*rounds*perIter {
		t.Fatalf("estimate spans = %d, want %d", got, workers*rounds*perIter)
	}
	if len(s.TraceID) != 16 {
		t.Fatalf("TraceID = %q, want 16 hex chars", s.TraceID)
	}
}

func TestTraceIDLifecycle(t *testing.T) {
	var nilRec *Recorder
	if nilRec.TraceID() != "" || nilRec.Tracing() {
		t.Fatal("nil recorder must have no trace identity")
	}
	nilRec.EmitEvent(TraceEvent{Name: "x"}) // must not panic

	a, b := NewRecorder(), NewRecorder()
	if a.TraceID() == "" || a.TraceID() == b.TraceID() {
		t.Fatalf("trace IDs not unique: %q vs %q", a.TraceID(), b.TraceID())
	}
	if a.Tracing() {
		t.Fatal("Tracing() true without tracers")
	}
	a.AddTracer(NewTracer(&strings.Builder{}, TraceJSONL))
	if !a.Tracing() {
		t.Fatal("Tracing() false with a tracer attached")
	}
}
