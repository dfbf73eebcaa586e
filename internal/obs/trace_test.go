package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestJSONLTracerOneEventPerSpan(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb, TraceJSONL)
	r := NewRecorder()
	r.AddTracer(tr)
	r.StartPhase(0, PhaseSimulate).End()
	r.StartPhase(0, PhaseApply).End()
	r.StartPhase(1, PhaseMeasure).End()
	r.EmitEvent(TraceEvent{Name: "ledger-map", Round: 1, Start: time.Now(), Dur: time.Millisecond})
	r.Finish(RunFinish{StopReason: "bounded"}) // closes tracers

	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), sb.String())
	}
	wantPhases := []string{"simulate", "apply", "measure", "ledger-map"}
	wantRounds := []int{0, 0, 1, 1}
	for i, line := range lines {
		// Every line carries exactly the four keys readers decode.
		var keys map[string]any
		if err := json.Unmarshal([]byte(line), &keys); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		if len(keys) != 4 {
			t.Errorf("line %d has keys %v, want t_us, dur_us, phase, round", i, keys)
		}
		var ev struct {
			TUS   int64  `json:"t_us"`
			DurUS int64  `json:"dur_us"`
			Phase string `json:"phase"`
			Round int    `json:"round"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		if ev.Phase != wantPhases[i] || ev.Round != wantRounds[i] {
			t.Errorf("line %d = %+v, want phase %s round %d", i, ev, wantPhases[i], wantRounds[i])
		}
		if ev.DurUS < 0 || ev.TUS < 0 {
			t.Errorf("line %d has negative times: %+v", i, ev)
		}
	}
}

func TestChromeTracerValidJSONArray(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb, TraceChrome)
	r := NewRecorder()
	r.AddTracer(tr)
	sp := r.StartPhase(2, PhaseMIS)
	time.Sleep(time.Millisecond)
	sp.End()
	r.StartPhase(2, PhaseApply).End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var evs []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &evs); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v\n%s", err, sb.String())
	}
	// process_name + thread_name metadata for the one lane (pid 1,
	// tid 1), written once, then the two duration events.
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i, want := range []string{"process_name", "thread_name"} {
		if evs[i]["name"] != want || evs[i]["ph"] != "M" || evs[i]["pid"] != float64(1) {
			t.Fatalf("event %d = %v, want %s metadata", i, evs[i], want)
		}
	}
	for _, ev := range evs[2:] {
		if ev["pid"] != float64(1) || ev["tid"] != float64(1) {
			t.Fatalf("span off the lane: %v", ev)
		}
	}
	first := evs[2]
	if first["name"] != "mis" || first["ph"] != "X" {
		t.Fatalf("event = %v", first)
	}
	if args, ok := first["args"].(map[string]any); !ok || args["round"] != float64(2) {
		t.Fatalf("event args = %v", first["args"])
	}
	if first["dur"].(float64) < 500 {
		t.Fatalf("dur = %v µs, want >= 500", first["dur"])
	}
}

func TestChromeTracerEmptyCloseStillValid(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb, TraceChrome)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var evs []any
	if err := json.Unmarshal([]byte(sb.String()), &evs); err != nil {
		t.Fatalf("empty chrome trace invalid: %v\n%q", err, sb.String())
	}
	// Close is idempotent.
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.emit(PhaseApply, 0, time.Now(), time.Millisecond)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}
