package obs

import (
	"io"
	"testing"
)

// BenchmarkSpanNilRecorder measures the disabled-observability hot
// path: one span start/end pair on a nil recorder. This is the cost
// every instrumented call site pays when observability is off, and it
// must stay within noise of a bare function call.
func BenchmarkSpanNilRecorder(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.StartPhase(i, PhaseSimulate).End()
	}
}

// benchRound is a duel round with four applied LACs, the shape of a
// typical AccALS round event.
func benchRound() RoundEvent {
	e := 0.01
	return RoundEvent{Candidates: 100, Multi: true, IndpSize: 4, RandSize: 4,
		PickedIndp: true, DuelIndpErr: &e, DuelRandErr: &e, Error: e, NumAnds: 300,
		Applied: make([]AppliedLAC, 4)}
}

// BenchmarkRoundNilRecorder measures reporting a round with
// observability off.
func BenchmarkRoundNilRecorder(b *testing.B) {
	var r *Recorder
	ev := benchRound()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Round(ev)
	}
}

// BenchmarkSpanLiveRecorder measures the enabled hot path: span
// timing plus one histogram observation.
func BenchmarkSpanLiveRecorder(b *testing.B) {
	r := NewRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.StartPhase(i, PhaseSimulate).End()
	}
}

// BenchmarkRoundLiveRecorder measures the counter, gauge and status
// updates one round event makes on a live recorder with no sink.
func BenchmarkRoundLiveRecorder(b *testing.B) {
	r := NewRecorder()
	ev := benchRound()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Round(ev)
	}
}

// BenchmarkWritePrometheus measures a full scrape of the standard
// registry.
func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRecorder()
	for p := Phase(0); p < numPhases; p++ {
		r.StartPhase(0, p).End()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.Registry().WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
