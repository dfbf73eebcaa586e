package ledger

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accals/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// goldenEvents is a deterministic event sequence exercising the whole
// schema surface: meta, a duel round with an applied LAC, a single-LAC
// guard round (SAT-certified, schema 1.2), a reverted round, and the
// finish. Durations are fixed values, not wall-clock, so the encoded
// bytes are stable.
func goldenEvents(w *Writer) {
	w.RunMeta(obs.RunMeta{
		Method: "accals", Circuit: "toy", Metric: "er", Bound: 0.05,
		Seed: 3, Patterns: 64, Workers: 2,
		InitialAnds: 100, InitialArea: 210.5, InitialDepth: 12,
	})
	i, r := 0.01, 0.02
	w.Round(obs.RoundEvent{
		Round: 0, Candidates: 40, BudgetLeft: 0.05, TopSize: 10,
		ConflictNodes: 10, ConflictEdges: 4, SolSize: 6,
		InflPairs: 15, InflAbove: 5, MISSize: 4, IndpSize: 3, RandSize: 2,
		DuelIndpErr: &i, DuelRandErr: &r, PickedIndp: true, Multi: true,
		Applied: []obs.AppliedLAC{{Target: 7, Gain: 2, DeltaE: 0.005, MeasuredErr: 0.006}},
		EstErr:  0.008, Error: 0.01, NumAnds: 95, Area: 200, Depth: 11,
		DurationUS: 1500,
	})
	certified := true
	w.Round(obs.RoundEvent{
		Round: 1, Candidates: 30, BudgetLeft: 0.04, GuardSingle: true,
		Certified: &certified, CertConflicts: 42,
		Applied: []obs.AppliedLAC{{Target: 9, Gain: 1, DeltaE: 0.01, MeasuredErr: 0.012}},
		EstErr:  0.02, Error: 0.02, NumAnds: 94, Area: 198, Depth: 11,
		DurationUS: 900,
	})
	w.Round(obs.RoundEvent{
		Round: 2, Candidates: 20, BudgetLeft: 0.03, Multi: true, Reverted: true,
		EstErr: 0.03, Error: 0.045, NumAnds: 93, Area: 196, Depth: 11,
		DurationUS: 1100,
	})
	w.Finish(obs.RunFinish{
		StopReason: "bounded", Rounds: 3, Error: 0.045,
		NumAnds: 93, Area: 196, Depth: 11, LACsApplied: 2, RuntimeUS: 4000,
	})
}

// TestGolden pins the encoded schema: the bytes the writer emits for a
// fixed event sequence must match the committed golden file exactly.
// A diff here means the schema changed — bump SchemaMinor for new
// omitempty fields (and regenerate with -update), or SchemaMajor for
// anything an old decoder would misread.
func TestGolden(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	goldenEvents(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/ledger -run TestGolden -update` to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("encoded ledger diverges from golden file.\ngot:\n%s\nwant:\n%s\n"+
			"If this schema change is intentional, bump the schema version and regenerate with -update.",
			buf.Bytes(), want)
	}
}

// TestGoldenRoundTrip decodes the committed golden file and checks the
// derived columns, proving old ledgers stay readable and analysable.
func TestGoldenRoundTrip(t *testing.T) {
	events, err := DecodeFile(filepath.Join("testdata", "golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("decoded %d events, want 5", len(events))
	}
	tr, err := Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta.Circuit != "toy" || tr.Meta.Workers != 2 {
		t.Errorf("meta round-trip: %+v", tr.Meta)
	}
	if len(tr.Rounds) != 3 || tr.Finish == nil || tr.Finish.StopReason != "bounded" {
		t.Fatalf("trajectory shape: %d rounds, finish %+v", len(tr.Rounds), tr.Finish)
	}
	// Denominator excludes the reverted multi round: 1 of 1.
	if got := tr.IndpRatio(); got != 1.0 {
		t.Errorf("IndpRatio = %v, want 1.0", got)
	}
	if duels, wins := tr.Duels(); duels != 1 || wins != 1 {
		t.Errorf("Duels = (%d, %d), want (1, 1)", duels, wins)
	}
	if single, reverts := tr.Guards(); single != 1 || reverts != 1 {
		t.Errorf("Guards = (%d, %d), want (1, 1)", single, reverts)
	}
	acc := tr.EstimatorAccuracy()
	if acc.Rounds != 3 || acc.MaxRound != 2 {
		t.Errorf("EstimatorAccuracy = %+v, want 3 rounds with max at round 2", acc)
	}
	if tr.Rounds[0].Applied[0].MeasuredErr != 0.006 {
		t.Errorf("applied measured_err round-trip: %+v", tr.Rounds[0].Applied)
	}
	if tr.FinalError() != 0.045 {
		t.Errorf("FinalError = %v, want 0.045", tr.FinalError())
	}
}

// legacyBundle is a bundle written before speculative pipelining and
// remote evaluation were removed: its ledger's first round carries the
// schema-1.1 speculated and spec_hit fields, its manifest speculate and
// evaluators, and its trace a speculation-lane span and an RPC span.
var legacyBundle = filepath.Join("testdata", "legacy-speculate")

// TestLegacyBundleDecodes: fields the writer no longer emits must not
// stop an old bundle from decoding and analysing.
func TestLegacyBundleDecodes(t *testing.T) {
	body, err := os.ReadFile(filepath.Join(legacyBundle, LedgerFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`"speculated":true,"spec_hit":true`)) {
		t.Fatal("legacy fixture lost its schema-1.1 round fields")
	}
	events, err := Decode(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Rounds) != 3 || tr.Finish == nil || tr.Finish.StopReason != "bounded" {
		t.Fatalf("trajectory shape: %d rounds, finish %+v", len(tr.Rounds), tr.Finish)
	}
	if duels, wins := tr.Duels(); duels != 1 || wins != 1 {
		t.Errorf("Duels = (%d, %d), want (1, 1)", duels, wins)
	}

	path := filepath.Join(legacyBundle, ManifestFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"speculate": true`)) || !bytes.Contains(raw, []byte(`"evaluators": 2`)) {
		t.Fatal("legacy fixture lost its retired manifest fields")
	}
	m, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.TraceID != "0123456789abcdef" || !m.Incremental || m.Workers != 2 {
		t.Errorf("legacy manifest: %+v", m)
	}
}

// TestSchemaMajorRejected: a future major version must be refused with
// an error wrapping ErrSchema, not silently misread.
func TestSchemaMajorRejected(t *testing.T) {
	in := strings.NewReader(`{"v":"2.0","type":"meta","meta":{"method":"accals"}}` + "\n")
	if _, err := Decode(in); !errors.Is(err, ErrSchema) {
		t.Fatalf("err = %v, want ErrSchema", err)
	}
}

// TestSchemaMinorTolerated: a newer minor within the same major decodes
// fine, unknown fields ignored.
func TestSchemaMinorTolerated(t *testing.T) {
	in := strings.NewReader(
		`{"v":"1.9","type":"meta","meta":{"method":"accals","future_field":42}}` + "\n" +
			`{"v":"1.9","type":"finish","finish":{"stop_reason":"bounded"}}` + "\n")
	events, err := Decode(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Meta.Method != "accals" {
		t.Fatalf("decoded %+v", events)
	}
}

// TestTornLines: a torn final line (crashed writer) is dropped, but a
// torn line mid-stream is corruption and must error.
func TestTornLines(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("testdata", "golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	events, err := Decode(bytes.NewReader(append(body, []byte(`{"v":"1.0","ty`)...)))
	if err != nil {
		t.Fatalf("trailing torn line: %v", err)
	}
	if len(events) != 5 {
		t.Fatalf("trailing torn line: %d events, want 5", len(events))
	}

	lines := bytes.SplitN(body, []byte("\n"), 2)
	torn := append(append([]byte(`{"v":"1.0","ty`+"\n"), lines[0]...), '\n')
	if _, err := Decode(bytes.NewReader(torn)); err == nil {
		t.Fatal("mid-stream torn line decoded without error")
	}
}

func TestNilWriterSafe(t *testing.T) {
	var w *Writer
	w.RunMeta(obs.RunMeta{})
	w.Round(obs.RoundEvent{})
	w.Finish(obs.RunFinish{})
	if w.Size() != 0 || w.Err() != nil {
		t.Fatal("nil writer must be inert")
	}
}
