package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accals/internal/ledger"
)

// writeTrace writes a synthetic trace.jsonl plus a manifest carrying
// the trace id into an existing bundle dir.
func writeTrace(t *testing.T, dir string, lines []string) {
	t.Helper()
	body := strings.Join(lines, "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, ledger.TraceFile), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	m := ledger.Manifest{TraceID: "deadbeef01234567"}
	m.FillEnvironment()
	mb, _ := json.Marshal(m)
	if err := os.WriteFile(filepath.Join(dir, ledger.ManifestFile), mb, 0o644); err != nil {
		t.Fatal(err)
	}
}

// syntheticTrace is a two-round trace with known numbers, written the
// way remote evaluation used to write it, so it also pins how spans
// off the main lane are skipped:
//
// round 0, window [0, 9000):
//   - local simulate [0, 2000), local estimate [2000, 9000)
//   - rpc:eval on a connection's lane (tid 10) [3000, 7000) — skipped
//   - remote:estimate from evaluator pid 42 [3500, 5500) — skipped
//
// Expected attribution: local 9000, unattributed 0.
//
// round 1, window [12000, 20000): one local span of 6000 → local 6000,
// unattributed 2000.
var syntheticTrace = []string{
	`{"t_us":0,"dur_us":9000,"phase":"round","round":0}`,
	`{"t_us":0,"dur_us":2000,"phase":"simulate","round":0}`,
	`{"t_us":2000,"dur_us":7000,"phase":"estimate","round":0}`,
	`{"t_us":3000,"dur_us":4000,"phase":"rpc:eval","round":0,"tid":10,"net_us":500}`,
	`{"t_us":3500,"dur_us":2000,"phase":"remote:estimate","round":0,"proc":"evaluator 127.0.0.1:9001 (pid 42)","pid":2}`,
	`{"t_us":12000,"dur_us":8000,"phase":"round","round":1}`,
	`{"t_us":12000,"dur_us":6000,"phase":"generate","round":1}`,
}

func TestTimelineAttribution(t *testing.T) {
	spans, err := decodeTraceSpans(strings.NewReader(strings.Join(syntheticTrace, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	tl := buildTimeline(spans)
	if tl.spans != 7 || tl.skipped != 2 {
		t.Fatalf("spans=%d skipped=%d, want 7/2", tl.spans, tl.skipped)
	}
	if len(tl.rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(tl.rounds))
	}
	want0 := roundBreakdown{round: 0, wall: 9000, local: 9000, unattr: 0}
	if r0 := tl.byRound[0]; *r0 != want0 {
		t.Errorf("round 0 = %+v, want %+v", *r0, want0)
	}
	// Round 1 is deliberately not fully covered: the remainder is
	// reported instead of hidden.
	want1 := roundBreakdown{round: 1, wall: 8000, local: 6000, unattr: 2000}
	if r1 := tl.byRound[1]; *r1 != want1 {
		t.Errorf("round 1 = %+v, want %+v", *r1, want1)
	}
}

func TestIntervalOps(t *testing.T) {
	u := union([]iv{{5, 9}, {0, 3}, {2, 4}, {9, 12}})
	if len(u) != 2 || u[0] != (iv{0, 4}) || u[1] != (iv{5, 12}) {
		t.Fatalf("union = %v", u)
	}
	if got := length(u); got != 11 {
		t.Fatalf("length = %d", got)
	}
	if got := union(nil); got != nil || length(got) != 0 {
		t.Fatalf("union(nil) = %v", got)
	}
}

func TestReportTimelineEndToEnd(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir)
	writeTrace(t, dir, syntheticTrace)
	var out, errb bytes.Buffer
	if code := run([]string{"-timeline", dir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"trace deadbeef01234567 — 7 spans, 2 off the main lane skipped",
		"breakdown:  local-compute 88.2%, unattributed 11.8% of 0.017s round wall-clock",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("timeline output missing %q:\n%s", want, got)
		}
	}
}

func TestReportTimelineWithoutTrace(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir)
	var out, errb bytes.Buffer
	if code := run([]string{"-timeline", dir}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2; stdout: %s", code, out.String())
	}
	if !strings.Contains(errb.String(), ledger.TraceFile) {
		t.Errorf("error should name %s: %s", ledger.TraceFile, errb.String())
	}
}

// TestReportMalformedTraceOnlyFailsTimeline: a malformed line in the
// middle of trace.jsonl fails -timeline, naming the line, while the
// plain analysis, which does not read the trace, still succeeds.
func TestReportMalformedTraceOnlyFailsTimeline(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir)
	lines := append([]string(nil), syntheticTrace...)
	lines[3] = `{"t_us":garbage`
	writeTrace(t, dir, lines)

	var out, errb bytes.Buffer
	if code := run([]string{dir}, &out, &errb); code != 0 {
		t.Fatalf("plain report exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "round  kind") || !strings.Contains(out.String(), "finish:       bounded") {
		t.Errorf("plain report lacks the round table:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-timeline", dir}, &out, &errb); code == 0 {
		t.Fatalf("-timeline accepted a malformed trace:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "line 4") {
		t.Errorf("-timeline error does not name line 4: %s", errb.String())
	}
}

// TestCSVTimelineColumns checks the tl_local_us CSV column is populated
// from the trace and stays empty — not zero-faked — without one.
func TestCSVTimelineColumns(t *testing.T) {
	readCSV := func(path string) [][]string {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rows, err := csv.NewReader(f).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	col := func(rows [][]string, name string) int {
		for i, h := range rows[0] {
			if h == name {
				return i
			}
		}
		t.Fatalf("no column %q in %v", name, rows[0])
		return -1
	}

	dir := t.TempDir()
	writeBundle(t, dir)
	writeTrace(t, dir, syntheticTrace)
	csvPath := filepath.Join(dir, "rounds.csv")
	var out, errb bytes.Buffer
	if code := run([]string{"-csv", csvPath, dir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	rows := readCSV(csvPath)
	li := col(rows, "tl_local_us")
	if rows[1][li] != "9000" || rows[2][li] != "6000" {
		t.Errorf("rounds 0-1 tl_local_us = %q/%q, want 9000/6000", rows[1][li], rows[2][li])
	}
	// Round 2 exists in the ledger but not in the trace: an empty cell.
	if rows[3][li] != "" {
		t.Errorf("traceless round tl_local_us = %q, want empty", rows[3][li])
	}
	// The retired remote-evaluation columns are gone.
	for _, h := range rows[0] {
		if h == "tl_remote_us" || h == "tl_net_us" || h == "tl_queue_us" {
			t.Errorf("retired column %q still in the header", h)
		}
	}

	// A bundle with no trace at all keeps the columns but leaves every
	// cell empty.
	dir2 := t.TempDir()
	writeBundle(t, dir2)
	csv2 := filepath.Join(dir2, "rounds.csv")
	if code := run([]string{"-csv", csv2, dir2}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	rows2 := readCSV(csv2)
	li2 := col(rows2, "tl_local_us")
	for i, row := range rows2[1:] {
		if row[li2] != "" {
			t.Errorf("row %d tl_local_us = %q, want empty", i+1, row[li2])
		}
	}
}
