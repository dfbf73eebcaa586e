package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accals/internal/checkpoint"
	"accals/internal/ledger"
)

func mustParse(t *testing.T, args ...string) *config {
	t.Helper()
	cfg, list, err := parseFlags(args)
	if err != nil {
		t.Fatalf("parseFlags(%v): %v", args, err)
	}
	if list {
		t.Fatalf("parseFlags(%v): unexpected -list", args)
	}
	return cfg
}

func TestValidateRejectsBadCombinations(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"no input", []string{}, "no input"},
		{"both inputs", []string{"-circuit", "mtp8", "-blif", "x.blif"}, "not both"},
		{"bad metric", []string{"-circuit", "mtp8", "-metric", "wape"}, "unknown metric"},
		{"bad method", []string{"-circuit", "mtp8", "-method", "anneal"}, "unknown method"},
		{"zero bound", []string{"-circuit", "mtp8", "-bound", "0"}, "out of range"},
		{"negative bound", []string{"-circuit", "mtp8", "-bound", "-0.1"}, "out of range"},
		{"bound above one", []string{"-circuit", "mtp8", "-bound", "1.5"}, "out of range"},
		{"zero patterns", []string{"-circuit", "mtp8", "-patterns", "0"}, "pattern budget"},
		{"bad cadence", []string{"-circuit", "mtp8", "-checkpoint", "d", "-checkpoint-every", "0"}, "at least 1"},
		{"resume without dir", []string{"-circuit", "mtp8", "-resume"}, "-resume needs -checkpoint"},
		{"negative workers", []string{"-circuit", "mtp8", "-workers", "-2"}, "worker count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := mustParse(t, tc.args...)
			err := cfg.validate()
			if err == nil {
				t.Fatalf("validate(%v) accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("validate(%v) = %q, want substring %q", tc.args, err, tc.want)
			}
		})
	}

	// A sane configuration passes.
	if err := mustParse(t, "-circuit", "mtp8", "-bound", "0.05").validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := mustParse(t, "-circuit", "mtp8", "-workers", "4").validate(); err != nil {
		t.Fatalf("valid -workers rejected: %v", err)
	}
}

// TestRunWorkersMatchSequential runs the whole command at -workers 1
// and 4 and checks the reports (error, final size, rounds) are
// identical. The wall-clock runtime line is the only part of the
// report allowed to differ.
func TestRunWorkersMatchSequential(t *testing.T) {
	out := func(workers string) string {
		var buf bytes.Buffer
		cfg := mustParse(t, "-circuit", "mtp8", "-bound", "0.03", "-patterns", "1024", "-seed", "7", "-workers", workers)
		if err := run(context.Background(), cfg, &buf); err != nil {
			t.Fatalf("-workers %s: %v", workers, err)
		}
		var stable []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if !strings.HasPrefix(line, "runtime:") {
				stable = append(stable, line)
			}
		}
		return strings.Join(stable, "\n")
	}
	if a, b := out("1"), out("4"); a != b {
		t.Fatalf("-workers 1 and -workers 4 reports differ:\n%s\n---\n%s", a, b)
	}
}

func TestRunUnknownBenchmark(t *testing.T) {
	cfg := mustParse(t, "-circuit", "nosuch")
	if err := run(context.Background(), cfg, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunWordLevelMetricTooManyOutputs(t *testing.T) {
	// apex6 has 99 outputs; NMED supports at most 63.
	cfg := mustParse(t, "-circuit", "apex6", "-metric", "nmed", "-bound", "0.01")
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), cfg, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "outputs") {
		t.Fatalf("want too-many-outputs error, got %v", err)
	}
}

func TestRunCheckpointAndResume(t *testing.T) {
	dir := t.TempDir()
	out1 := filepath.Join(dir, "a.blif")
	ckpt := filepath.Join(dir, "ckpt")

	cfg := mustParse(t,
		"-circuit", "mtp8", "-metric", "er", "-bound", "0.05",
		"-patterns", "512", "-seed", "7",
		"-checkpoint", ckpt, "-checkpoint-every", "1",
		"-out", out1)
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(context.Background(), cfg, &buf); err != nil {
		t.Fatalf("initial run: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "stopped:   bounded") {
		t.Fatalf("expected a bounded stop, got:\n%s", buf.String())
	}
	snap, err := checkpoint.Latest(ckpt)
	if err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}
	if snap.Metric != "er" || snap.Bound != 0.05 || snap.Seed != 7 {
		t.Fatalf("snapshot metadata wrong: %+v", snap)
	}
	if _, err := os.Stat(out1); err != nil {
		t.Fatalf("-out not written: %v", err)
	}

	// Only accepted rounds may be snapshotted: a snapshot whose error
	// exceeds the bound belongs to a rejected round, and resuming from
	// it would adopt a circuit that violates the bound.
	if snap.Error > 0.05 {
		t.Fatalf("latest snapshot is a rejected round (error %g > bound 0.05)", snap.Error)
	}

	// Resuming the finished run restarts from the last snapshot,
	// replays the final round on the same trajectory, and terminates
	// with a byte-identical circuit.
	out2 := filepath.Join(dir, "b.blif")
	cfg2 := mustParse(t,
		"-circuit", "mtp8", "-metric", "er", "-bound", "0.05",
		"-patterns", "512", "-seed", "7",
		"-checkpoint", ckpt, "-resume",
		"-out", out2)
	if err := cfg2.validate(); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := run(context.Background(), cfg2, &buf2); err != nil {
		t.Fatalf("resumed run: %v\n%s", err, buf2.String())
	}
	if !strings.Contains(buf2.String(), "resuming:") {
		t.Fatalf("resume did not load a snapshot:\n%s", buf2.String())
	}
	b1, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatalf("-out not written on resume: %v", err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("resumed run produced a different circuit than the uninterrupted run")
	}

	// A mismatched configuration must be refused, not silently resumed.
	cfg3 := mustParse(t,
		"-circuit", "mtp8", "-metric", "er", "-bound", "0.10",
		"-checkpoint", ckpt, "-resume")
	if err := cfg3.validate(); err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), cfg3, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("mismatched resume accepted: %v", err)
	}

	// So must a mismatched explicit seed.
	cfg4 := mustParse(t,
		"-circuit", "mtp8", "-metric", "er", "-bound", "0.05",
		"-seed", "8", "-checkpoint", ckpt, "-resume")
	if err := cfg4.validate(); err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), cfg4, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-seed") {
		t.Fatalf("mismatched seed accepted: %v", err)
	}
}

func TestRunCancelledContextStillWritesOutput(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "best.blif")
	cfg := mustParse(t, "-circuit", "rca32", "-bound", "0.05", "-patterns", "256", "-out", out)
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	if err := run(ctx, cfg, &buf); err != nil {
		t.Fatalf("cancelled run errored: %v", err)
	}
	if !strings.Contains(buf.String(), "stopped:   cancelled") {
		t.Fatalf("expected cancelled stop, got:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "interrupted") {
		t.Fatalf("expected interruption note, got:\n%s", buf.String())
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("best-so-far output not written: %v", err)
	}
}

// TestRunSummaryCertified: a MaxED run's summary records that its
// final circuit is certified, and a statistical run's summary carries
// no certification keys at all.
func TestRunSummaryCertified(t *testing.T) {
	cases := []struct {
		args []string
		want bool
	}{
		{[]string{"-circuit", "wal8", "-metric", "maxed", "-bound", "32"}, true},
		{[]string{"-circuit", "mtp8", "-metric", "er", "-bound", "0.05"}, false},
	}
	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), "s.json")
		cfg := mustParse(t, append(tc.args, "-patterns", "512", "-summary", path)...)
		if err := cfg.validate(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := run(context.Background(), cfg, &buf); err != nil {
			t.Fatalf("run %v: %v\n%s", tc.args, err, buf.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var sum map[string]any
		if err := json.Unmarshal(raw, &sum); err != nil {
			t.Fatal(err)
		}
		if c, ok := sum["certified"]; tc.want && c != true || !tc.want && ok {
			t.Errorf("%v: summary has certified = %v (present %v), want %v", tc.args, c, ok, tc.want)
		}
		if _, ok := sum["cert_conflicts"]; ok && !tc.want {
			t.Errorf("%v: statistical run's summary has cert_conflicts", tc.args)
		}
	}
}

func TestRunObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	chromePath := filepath.Join(dir, "trace.json")
	summaryPath := filepath.Join(dir, "summary.json")

	cfg := mustParse(t,
		"-circuit", "mtp8", "-metric", "er", "-bound", "0.05",
		"-patterns", "512", "-seed", "7",
		"-trace", tracePath, "-trace-chrome", chromePath,
		"-summary", summaryPath, "-metrics-addr", "127.0.0.1:0")
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(context.Background(), cfg, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "metrics:   http://") {
		t.Errorf("report does not announce the metrics address:\n%s", buf.String())
	}

	// The JSONL trace must hold one event per line, each with a known
	// phase, and cover every per-round phase the run exercised.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev struct {
			TUs   int64  `json:"t_us"`
			DurUs int64  `json:"dur_us"`
			Phase string `json:"phase"`
			Round int    `json:"round"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		phases[ev.Phase]++
	}
	rounds := phases["round"]
	if rounds == 0 {
		t.Fatalf("no round spans in trace: %v", phases)
	}
	for _, p := range []string{"simulate", "generate", "estimate"} {
		if phases[p] != rounds {
			t.Errorf("phase %q has %d spans, want one per round (%d): %v", p, phases[p], rounds, phases)
		}
	}

	// The Chrome export must be one valid JSON array of complete events.
	var chromeEvents []map[string]any
	chromeRaw, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(chromeRaw, &chromeEvents); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	// Metadata (process_name/thread_name, ph "M") precedes the
	// duration events; at least one complete event must follow.
	var sawComplete, sawProcName bool
	for _, ev := range chromeEvents {
		switch ev["ph"] {
		case "X":
			sawComplete = true
		case "M":
			if ev["name"] == "process_name" {
				sawProcName = true
			}
		}
	}
	if !sawComplete || !sawProcName {
		t.Fatalf("chrome trace malformed (complete=%v process_name=%v): %v",
			sawComplete, sawProcName, chromeEvents)
	}

	// The summary must agree with the trace on the round count.
	var sum struct {
		Circuit string `json:"circuit"`
		Rounds  int    `json:"rounds"`
		Obs     struct {
			Phases map[string]struct {
				Count uint64 `json:"count"`
			} `json:"phases"`
			LACsApplied int64 `json:"lacs_applied"`
		} `json:"obs"`
	}
	sumRaw, err := os.ReadFile(summaryPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(sumRaw, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Circuit != "mtp8" {
		t.Errorf("summary circuit %q, want mtp8", sum.Circuit)
	}
	if int(sum.Obs.Phases["round"].Count) != rounds {
		t.Errorf("summary counts %d rounds, trace has %d", sum.Obs.Phases["round"].Count, rounds)
	}
	if sum.Obs.LACsApplied == 0 {
		t.Error("summary reports zero applied LACs for a shrinking run")
	}
}

func TestRunBundle(t *testing.T) {
	dir := t.TempDir()
	bundleDir := filepath.Join(dir, "bundle")
	sumPath := filepath.Join(dir, "summary.json")

	cfg := mustParse(t,
		"-circuit", "mtp8", "-metric", "er", "-bound", "0.05",
		"-patterns", "512", "-seed", "7",
		"-bundle", bundleDir, "-summary", sumPath)
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(context.Background(), cfg, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "bundle:") {
		t.Errorf("report does not announce the bundle:\n%s", buf.String())
	}

	// The bundle is self-describing: ledger, manifest and summary.
	events, err := ledger.DecodeFile(filepath.Join(bundleDir, ledger.LedgerFile))
	if err != nil {
		t.Fatal(err)
	}
	traj, err := ledger.Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	man, err := ledger.ReadManifest(filepath.Join(bundleDir, ledger.ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if man.Circuit != "mtp8" || man.Seed != 7 || man.GoVersion == "" {
		t.Errorf("manifest wrong: %+v", man)
	}
	bSum, err := ledger.ReadSummary(filepath.Join(bundleDir, ledger.SummaryFile))
	if err != nil {
		t.Fatal(err)
	}

	// The ledger must reproduce the run's outcome on its own: final
	// error, round count, stop reason and the L_indp ratio all agree
	// with the independently written summary.
	if traj.Finish == nil {
		t.Fatal("ledger has no finish event")
	}
	if traj.Finish.Error != bSum.Error {
		t.Errorf("ledger error %v, summary %v", traj.Finish.Error, bSum.Error)
	}
	if len(traj.Rounds) != bSum.Rounds || traj.Finish.Rounds != bSum.Rounds {
		t.Errorf("ledger rounds %d/%d, summary %d", len(traj.Rounds), traj.Finish.Rounds, bSum.Rounds)
	}
	if traj.Finish.StopReason != bSum.StopReason {
		t.Errorf("ledger stop %q, summary %q", traj.Finish.StopReason, bSum.StopReason)
	}
	if r := traj.IndpRatio(); r != bSum.IndpWinRate {
		t.Errorf("ledger L_indp %v, summary %v", r, bSum.IndpWinRate)
	}
	// Per-LAC ground-truth measurement is wired in: across the run at
	// least one applied LAC records a non-zero measured error (zero is
	// legitimate for individual LACs that are exact on the sample, so
	// only the aggregate can be asserted).
	nonzero := 0
	for _, r := range traj.Rounds {
		for _, a := range r.Applied {
			if a.MeasuredErr > 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Error("no applied LAC carries a measured error — MeasureEach not wired")
	}

	// The bundle-less summary and the bundle summary are the same file
	// content-wise.
	s2, err := ledger.ReadSummary(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Error != bSum.Error || s2.Rounds != bSum.Rounds || s2.FinalAnds != bSum.FinalAnds {
		t.Errorf("-summary and bundle summary diverge: %+v vs %+v", s2, bSum)
	}
}

// TestRunBundleResumeTruncates: a checkpoint resume reopens the bundle
// and cuts ledger lines recorded after the snapshot, so the re-executed
// rounds appear exactly once.
func TestRunBundleResumeTruncates(t *testing.T) {
	dir := t.TempDir()
	bundleDir := filepath.Join(dir, "bundle")
	ckpt := filepath.Join(dir, "ckpt")

	base := []string{
		"-circuit", "mtp8", "-metric", "er", "-bound", "0.05",
		"-patterns", "512", "-seed", "7",
		"-checkpoint", ckpt, "-checkpoint-every", "1",
		"-bundle", bundleDir,
	}
	cfg := mustParse(t, base...)
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), cfg, &bytes.Buffer{}); err != nil {
		t.Fatalf("initial run: %v", err)
	}
	snap, err := checkpoint.Latest(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if snap.LedgerBytes == 0 {
		t.Fatal("snapshot does not record the ledger offset")
	}

	cfg2 := mustParse(t, append(base, "-resume")...)
	if err := cfg2.validate(); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), cfg2, &bytes.Buffer{}); err != nil {
		t.Fatalf("resumed run: %v", err)
	}

	events, err := ledger.DecodeFile(filepath.Join(bundleDir, ledger.LedgerFile))
	if err != nil {
		t.Fatal(err)
	}
	traj, err := ledger.Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if traj.Resumes != 1 {
		t.Errorf("ledger records %d resumes, want 1", traj.Resumes)
	}
	seen := map[int]int{}
	for _, r := range traj.Rounds {
		seen[r.Round]++
		if seen[r.Round] > 1 {
			t.Errorf("round %d recorded %d times after resume", r.Round, seen[r.Round])
		}
	}
	if traj.Finish == nil || traj.Finish.Rounds != len(traj.Rounds) {
		t.Errorf("finish/rounds mismatch after resume: %+v vs %d rounds", traj.Finish, len(traj.Rounds))
	}
}

func TestValidateBundleFlags(t *testing.T) {
	cfg := mustParse(t, "-circuit", "mtp8", "-bundle-slow-round", "5s")
	if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), "-bundle") {
		t.Fatalf("-bundle-slow-round without -bundle accepted: %v", err)
	}
	cfg = mustParse(t, "-circuit", "mtp8", "-bundle", "d", "-bundle-slow-round", "-1s")
	if err := cfg.validate(); err == nil {
		t.Fatal("negative -bundle-slow-round accepted")
	}
	if err := mustParse(t, "-circuit", "mtp8", "-bundle", "d").validate(); err != nil {
		t.Fatalf("valid -bundle rejected: %v", err)
	}
}

func TestResumeRestoresMetricCounters(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	sumPath := filepath.Join(dir, "resumed-summary.json")

	base := []string{
		"-circuit", "mtp8", "-metric", "er", "-bound", "0.05",
		"-patterns", "512", "-seed", "7",
		"-checkpoint", ckpt, "-checkpoint-every", "1",
	}
	cfg := mustParse(t, append(base, "-summary", filepath.Join(dir, "s1.json"))...)
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), cfg, &bytes.Buffer{}); err != nil {
		t.Fatalf("initial run: %v", err)
	}
	snap, err := checkpoint.Latest(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	saved := snap.Metrics["accals_rounds_total"]
	if saved == 0 {
		t.Fatalf("snapshot carries no metrics: %v", snap.Metrics)
	}

	cfg2 := mustParse(t, append(base, "-resume", "-summary", sumPath)...)
	if err := cfg2.validate(); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), cfg2, &bytes.Buffer{}); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	var sum struct {
		Obs struct {
			Rounds int64 `json:"rounds"`
		} `json:"obs"`
	}
	raw, err := os.ReadFile(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatal(err)
	}
	// The resumed run's cumulative round counter must include the
	// rounds completed before the snapshot, not restart from zero.
	if sum.Obs.Rounds < int64(saved) {
		t.Fatalf("resumed summary counts %d rounds, snapshot already had %v", sum.Obs.Rounds, saved)
	}
}

// interruptWriter forwards to buf and cancels the run's context once
// it has seen n per-round progress lines — a deterministic stand-in
// for SIGTERM arriving mid-run.
type interruptWriter struct {
	buf    bytes.Buffer
	cancel context.CancelFunc
	rounds int
	after  int
}

func (w *interruptWriter) Write(p []byte) (int, error) {
	n, err := w.buf.Write(p)
	w.rounds += bytes.Count(p, []byte("round "))
	if w.rounds >= w.after {
		w.cancel()
	}
	return n, err
}

func TestRunInterruptSavesFinalSnapshotOffCadence(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	out := filepath.Join(dir, "interrupted.blif")

	// Cadence 1000 never fires on its own: any snapshot present after
	// the interrupt is the forced checkpoint-on-signal one.
	cfg := mustParse(t,
		"-circuit", "mtp8", "-metric", "er", "-bound", "0.05",
		"-patterns", "512", "-seed", "7", "-v",
		"-checkpoint", ckpt, "-checkpoint-every", "1000",
		"-out", out)
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &interruptWriter{cancel: cancel, after: 2}
	if err := run(ctx, cfg, w); err != nil {
		t.Fatalf("interrupted run: %v\n%s", err, w.buf.String())
	}
	if !strings.Contains(w.buf.String(), "stopped:   cancelled") {
		t.Fatalf("run was not interrupted:\n%s", w.buf.String())
	}
	if !strings.Contains(w.buf.String(), "final snapshot at round") {
		t.Fatalf("no forced final snapshot reported:\n%s", w.buf.String())
	}
	snap, err := checkpoint.Latest(ckpt)
	if err != nil {
		t.Fatalf("interrupt left no snapshot: %v", err)
	}
	if snap.Round < 1 || snap.Error > 0.05 {
		t.Fatalf("forced snapshot unusable: round %d error %g", snap.Round, snap.Error)
	}

	// The forced snapshot resumes onto the original trajectory: the
	// resumed run's final circuit is byte-identical to an
	// uninterrupted run of the same configuration.
	resumed := filepath.Join(dir, "resumed.blif")
	cfg2 := mustParse(t,
		"-circuit", "mtp8", "-metric", "er", "-bound", "0.05",
		"-patterns", "512", "-seed", "7",
		"-checkpoint", ckpt, "-checkpoint-every", "1000", "-resume",
		"-out", resumed)
	if err := cfg2.validate(); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := run(context.Background(), cfg2, &buf2); err != nil {
		t.Fatalf("resumed run: %v\n%s", err, buf2.String())
	}
	clean := filepath.Join(dir, "clean.blif")
	cfg3 := mustParse(t,
		"-circuit", "mtp8", "-metric", "er", "-bound", "0.05",
		"-patterns", "512", "-seed", "7",
		"-out", clean)
	if err := cfg3.validate(); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), cfg3, &bytes.Buffer{}); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	br, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(br, bc) {
		t.Fatal("resume from the forced snapshot diverged from the uninterrupted run")
	}
}

// TestValidateEvaluatorFlags: the remote-evaluation flags are retired,
// so every command line that used them, like one using the earlier
// -speculate, fails at flag parsing (exit status 2).
func TestValidateEvaluatorFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		flag string // the unknown flag the parse error names
	}{
		{"faults without evaluators", []string{"-circuit", "mtp8", "-eval-faults", "dispatch.connect:error:1"}, "eval-faults"},
		{"evaluators with seals", []string{"-circuit", "mtp8", "-method", "seals", "-evaluators", "127.0.0.1:1"}, "evaluators"},
		{"bad fault spec", []string{"-circuit", "mtp8", "-evaluators", "127.0.0.1:1", "-eval-faults", "dispatch.connect:explode:1"}, "evaluators"},
		{"fault seed", []string{"-circuit", "mtp8", "-eval-fault-seed", "3"}, "eval-fault-seed"},
		{"serve eval", []string{"-serve-eval"}, "serve-eval"},
		{"listen", []string{"-listen", "127.0.0.1:0"}, "listen"},
		{"speculate", []string{"-circuit", "mtp8", "-speculate"}, "speculate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := parseFlags(tc.args)
			if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+tc.flag) {
				t.Fatalf("parseFlags(%v) = %v, want an unknown-flag error for -%s", tc.args, err, tc.flag)
			}
		})
	}
}
