package main

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"accals/internal/ledger"
	"accals/internal/obs"
	"accals/internal/serve"
)

// writeBundle fabricates a small but complete bundle: meta, three
// rounds (one duel, one guard, one revert), finish, and a summary.
func writeBundle(t *testing.T, dir string) {
	t.Helper()
	b, err := ledger.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := b.Writer()
	w.RunMeta(obs.RunMeta{
		Method: "accals", Circuit: "toy", Metric: "er", Bound: 0.05,
		Seed: 3, Patterns: 64, Workers: 1, InitialAnds: 100,
	})
	i, r := 0.01, 0.02
	w.Round(obs.RoundEvent{
		Round: 0, Candidates: 40, BudgetLeft: 0.05, TopSize: 10,
		ConflictNodes: 10, ConflictEdges: 4, SolSize: 6,
		InflPairs: 15, InflAbove: 5, MISSize: 4, IndpSize: 3, RandSize: 2,
		DuelIndpErr: &i, DuelRandErr: &r, PickedIndp: true, Multi: true,
		Applied: []obs.AppliedLAC{{Target: 7, Gain: 2, DeltaE: 0.005, MeasuredErr: 0.006}},
		EstErr:  0.008, Error: 0.01, NumAnds: 95, DurationUS: 1500,
	})
	w.Round(obs.RoundEvent{
		Round: 1, BudgetLeft: 0.04, GuardSingle: true,
		Applied: []obs.AppliedLAC{{Target: 9, Gain: 1, DeltaE: 0.01}},
		EstErr:  0.02, Error: 0.02, NumAnds: 94, DurationUS: 900,
	})
	w.Round(obs.RoundEvent{
		Round: 2, BudgetLeft: 0.03, Multi: true, Reverted: true,
		EstErr: 0.03, Error: 0.045, NumAnds: 93, DurationUS: 1100,
	})
	w.Finish(obs.RunFinish{
		StopReason: "bounded", Rounds: 3, Error: 0.045, NumAnds: 93,
		LACsApplied: 2, RuntimeUS: 4000,
	})
	sum := ledger.RunSummary{
		Circuit: "toy", Method: "accals", Metric: "er", Bound: 0.05,
		Error: 0.045, InitialAnds: 100, FinalAnds: 93, Rounds: 3,
		StopReason: "bounded",
		Obs: obs.Summary{Phases: map[string]obs.PhaseSummary{
			"round":    {Count: 3, Seconds: 0.004},
			"estimate": {Count: 3, Seconds: 0.003},
			"simulate": {Count: 3, Seconds: 0.001},
		}},
	}
	if err := b.WriteSummary(sum); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReportAnalyse(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir)
	var out, errb bytes.Buffer
	if code := run([]string{dir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"accals toy, metric er, bound 0.05, seed 3",
		"L_indp ratio: 1.000 (1 of 1 duels won",
		"guards:       1 single-LAC fallbacks, 1 negative-set reverts",
		"finish:       bounded after 3 rounds, error 0.045000",
		"phase breakdown:",
		"estimate",
		"guard ",
		"revert",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// The worst estimator gap is round 2's revert (|0.03-0.045|).
	if !strings.Contains(got, "max 0.015000 (round 2)") {
		t.Errorf("estimator accuracy line wrong:\n%s", got)
	}
}

func TestReportCSV(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir)
	csvPath := filepath.Join(dir, "rounds.csv")
	var out, errb bytes.Buffer
	if code := run([]string{"-csv", csvPath, dir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // header + 3 rounds
		t.Fatalf("csv has %d rows, want 4", len(rows))
	}
	if rows[0][0] != "round" || rows[1][0] != "0" || rows[3][0] != "2" {
		t.Fatalf("csv rows off: %v", rows)
	}
	// Round 0's duel errors survive the export.
	idx := -1
	for i, h := range rows[0] {
		if h == "duel_indp_err" {
			idx = i
		}
	}
	if idx < 0 || rows[1][idx] != "0.01" || rows[2][idx] != "" {
		t.Fatalf("duel_indp_err column wrong (idx %d): %v", idx, rows[1])
	}
}

func TestReportDiff(t *testing.T) {
	a := t.TempDir()
	writeBundle(t, a)

	// Identical bundles: exit 0.
	var out, errb bytes.Buffer
	if code := run([]string{"-diff", a, a}, &out, &errb); code != 0 {
		t.Fatalf("identical diff exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "no differences") {
		t.Fatalf("identical diff output: %s", out.String())
	}

	// An injected regression above the threshold: exit 1.
	var sum map[string]any
	body, err := os.ReadFile(filepath.Join(a, ledger.SummaryFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	sum["error"] = sum["error"].(float64) * 2
	modBody, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	mod := filepath.Join(t.TempDir(), "mod.json")
	if err := os.WriteFile(mod, modBody, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	code := run([]string{"-diff", "-threshold", "0.05", filepath.Join(a, ledger.SummaryFile), mod}, &out, &errb)
	if code != 1 {
		t.Fatalf("regression diff exit %d, want 1; out: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "error:") {
		t.Fatalf("regression not named: %s", out.String())
	}

	// A sub-threshold drift: exit 0.
	out.Reset()
	code = run([]string{"-diff", "-threshold", "0.9", filepath.Join(a, ledger.SummaryFile), mod}, &out, &errb)
	if code != 0 {
		t.Fatalf("sub-threshold diff exit %d, want 0; out: %s", code, out.String())
	}

	// The ignore list suppresses matching paths entirely.
	out.Reset()
	code = run([]string{"-diff", "-ignore", "error", filepath.Join(a, ledger.SummaryFile), mod}, &out, &errb)
	if code != 0 {
		t.Fatalf("ignored diff exit %d, want 0; out: %s", code, out.String())
	}
}

// writeJobBundle extends writeBundle with the daemon's terminal
// job.json, making the directory look exactly like an extracted
// /v1/jobs/{id}/bundle download.
func writeJobBundle(t *testing.T, dir string) serve.Job {
	t.Helper()
	writeBundle(t, dir)
	sub := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	j := serve.Job{
		ID:    "j-000042",
		State: serve.StateDone,
		Spec: serve.JobSpec{
			Tenant: "acme", Circuit: "toy", Metric: "er", Bound: 0.05, Seed: 3,
		},
		SubmittedAt: sub,
		StartedAt:   sub.Add(1500 * time.Millisecond),
		FinishedAt:  sub.Add(5 * time.Second),
		Round:       3, Error: 0.045, NumAnds: 93,
		StopReason: "bounded",
		Recovered:  true, Resumed: true,
	}
	body, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, serve.BundleJobFile), body, 0o644); err != nil {
		t.Fatal(err)
	}
	return j
}

// tarGz packs a flat directory the way Manager.WriteBundle does.
func tarGz(t *testing.T, dir, dst string) {
	t.Helper()
	f, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	tw := tar.NewWriter(gz)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		body, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := tw.WriteHeader(&tar.Header{Name: e.Name(), Mode: 0o644, Size: int64(len(body))}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(body); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReportJobStory(t *testing.T) {
	dir := t.TempDir()
	writeJobBundle(t, dir)

	assertStory := func(got string) {
		t.Helper()
		for _, want := range []string{
			"job:       j-000042, tenant acme — done",
			"recovered after a daemon restart; resumed from a checkpoint",
			"admitted:  2026-08-08T10:00:00Z",
			"queued:    1.5s until dispatch",
			"ran:       3.5s (last segment)",
			"stopped:   bounded at round 3, error 0.045000, 93 ANDs",
			// The engine-side analysis still follows the story.
			"accals toy, metric er, bound 0.05, seed 3",
			"finish:       bounded after 3 rounds",
		} {
			if !strings.Contains(got, want) {
				t.Errorf("output missing %q:\n%s", want, got)
			}
		}
	}

	// Directory form.
	var out, errb bytes.Buffer
	if code := run([]string{"-job", dir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	assertStory(out.String())

	// tar.gz download form: same report from the packed archive.
	tgz := filepath.Join(t.TempDir(), "j42.tar.gz")
	tarGz(t, dir, tgz)
	out.Reset()
	if code := run([]string{"-job", tgz}, &out, &errb); code != 0 {
		t.Fatalf("tar.gz exit %d, stderr: %s", code, errb.String())
	}
	assertStory(out.String())
}

func TestReportJobWithoutJobJSON(t *testing.T) {
	// A CLI bundle (no job.json) still analyses; the story line says
	// why it is missing.
	dir := t.TempDir()
	writeBundle(t, dir)
	var out, errb bytes.Buffer
	if code := run([]string{"-job", dir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "no job.json in bundle") {
		t.Errorf("missing job.json not explained:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "finish:       bounded after 3 rounds") {
		t.Errorf("analysis skipped:\n%s", out.String())
	}
}

// TestReportLegacyBundle: a bundle written while speculative
// pipelining existed — speculated/spec_hit on its ledger rounds,
// speculate/evaluators in its manifest, a speculation-lane span in its
// trace — still analyses in every mode.
func TestReportLegacyBundle(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "ledger", "testdata", "legacy-speculate")
	csvPath := filepath.Join(t.TempDir(), "rounds.csv")
	for _, args := range [][]string{
		{dir},
		{"-job", dir},
		{"-timeline", dir},
		{"-csv", csvPath, dir},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("report %v: exit %d, stderr: %s", args, code, errb.String())
		}
		if !strings.Contains(out.String(), "finish:       bounded after 3 rounds") {
			t.Errorf("report %v: analysis incomplete:\n%s", args, out.String())
		}
	}
}

func TestReportJobRejectsUnsafeArchive(t *testing.T) {
	// An archive entry escaping the extraction directory is refused.
	evil := filepath.Join(t.TempDir(), "evil.tar.gz")
	f, err := os.Create(evil)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	tw := tar.NewWriter(gz)
	body := []byte("pwned")
	if err := tw.WriteHeader(&tar.Header{Name: "../escape.txt", Mode: 0o644, Size: int64(len(body))}); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-job", evil}, &out, &errb); code != 2 {
		t.Fatalf("unsafe archive exit %d, want 2; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "unsafe path") {
		t.Errorf("unsafe path not named: %s", errb.String())
	}
	// A plain file that is not gzip is a usage error, not a panic.
	notGz := filepath.Join(t.TempDir(), "x.bin")
	if err := os.WriteFile(notGz, []byte("not a gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-job", notGz}, &out, &errb); code != 2 {
		t.Fatalf("non-gzip exit %d, want 2", code)
	}
}

func TestReportUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{}, &out, &errb); code != 2 {
		t.Fatalf("no-arg exit %d, want 2", code)
	}
	if code := run([]string{"-diff", "only-one"}, &out, &errb); code != 2 {
		t.Fatalf("one-arg diff exit %d, want 2", code)
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing")}, &out, &errb); code != 2 {
		t.Fatalf("missing bundle exit %d, want 2", code)
	}
}
