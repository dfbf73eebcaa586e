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

// syntheticTrace is a two-round distributed trace with known numbers:
//
// round 0, window [0, 9000):
//   - local simulate [0, 2000), local estimate [2000, 9000) — the
//     estimate span wraps the blocking RPC, as the real runner's does
//   - rpc:eval on the dispatch lane [3000, 7000), rtt bound 500µs
//   - remote:estimate from evaluator pid 42, clock-mapped [3500, 5500)
//
// Expected attribution: remote 2000, network 500, queue 1500,
// local 5000, unattributed 0.
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
	if tl.spans != 7 || tl.remoteSpans != 1 {
		t.Fatalf("spans=%d remote=%d, want 7/1", tl.spans, tl.remoteSpans)
	}
	if len(tl.procs) != 1 || !strings.Contains(tl.procs[0], "pid 42") {
		t.Fatalf("procs = %v", tl.procs)
	}
	if len(tl.rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(tl.rounds))
	}
	r0 := tl.byRound[0]
	want := roundBreakdown{round: 0, wall: 9000, local: 5000, remote: 2000, net: 500, queue: 1500}
	if *r0 != want {
		t.Errorf("round 0 = %+v, want %+v", *r0, want)
	}
	if got := r0.critical(); got != "local-compute" {
		t.Errorf("round 0 critical = %q", got)
	}
	r1 := tl.byRound[1]
	if r1.local != 6000 || r1.unattr != 2000 || r1.wall != 8000 {
		t.Errorf("round 1 = %+v", *r1)
	}
	// The acceptance bar: every synthetic round attributes >= 95% —
	// round 0 fully, round 1 deliberately not (75%), checking the
	// remainder is reported instead of hidden.
	if r0.unattr != 0 {
		t.Errorf("round 0 unattributed = %d, want 0", r0.unattr)
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
	sub := subtract(u, []iv{{2, 6}, {10, 20}})
	if len(sub) != 2 || sub[0] != (iv{0, 2}) || sub[1] != (iv{6, 10}) {
		t.Fatalf("subtract = %v", sub)
	}
	in := intersect(u, []iv{{3, 7}})
	if len(in) != 2 || in[0] != (iv{3, 4}) || in[1] != (iv{5, 7}) {
		t.Fatalf("intersect = %v", in)
	}
	if got := subtract(nil, u); got != nil {
		t.Fatalf("subtract(nil) = %v", got)
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
		"trace deadbeef01234567",
		"evaluator 127.0.0.1:9001 (pid 42)",
		"remote-compute",
		"network",
		"remote-queue",
		"critical path:",
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

// TestCSVTimelineColumns checks the tl_* CSV columns are populated
// from the trace and stay empty — not zero-faked — without one.
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
	li, ri, ni := col(rows, "tl_local_us"), col(rows, "tl_remote_us"), col(rows, "tl_net_us")
	if rows[1][li] != "5000" || rows[1][ri] != "2000" || rows[1][ni] != "500" {
		t.Errorf("round 0 tl columns = %q/%q/%q, want 5000/2000/500",
			rows[1][li], rows[1][ri], rows[1][ni])
	}
	// Round 2 exists in the ledger but not in the trace: empty cells.
	if rows[3][li] != "" || rows[3][ri] != "" {
		t.Errorf("traceless round tl columns = %q/%q, want empty", rows[3][li], rows[3][ri])
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
