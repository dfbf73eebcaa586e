// Command report analyses run bundles written by `accals -bundle` (and
// by cmd/experiments): it decodes the round ledger and prints the run's
// round-by-round trajectory, the per-round L_indp duel ratio (the
// paper's Fig. 4 statistic), an estimator-accuracy summary, guard and
// revert activations, and the phase-time breakdown from the bundle's
// summary.json. The per-round table can also be exported as CSV.
//
//	report <bundle-dir>              analyse a bundle
//	report -csv rounds.csv <dir>     also export the round table
//	report -timeline <dir>           per-round wall-clock breakdown
//	report -diff A B                 compare two bundles (or JSON files)
//	report -job j0.tar.gz            decode a daemon job bundle download
//
// Timeline mode reads the bundle's trace.jsonl and splits each round's
// wall-clock into local compute (covered by the round's spans) and the
// unattributed remainder (see timeline.go). The -csv export gains a
// tl_local_us column with each round's local compute; it stays empty
// for traceless bundles.
//
// Job mode takes a bundle downloaded from a running accalsd
// (GET /v1/jobs/{id}/bundle, a tar.gz) or the job's bundle directory
// on the daemon's disk, and prefixes the run analysis with the
// job-level story: admission, queue wait, execution segment, terminal
// state and failure detail from the bundle's job.json.
//
// Diff mode compares the numeric leaves of two bundles' summary.json
// (or of two arbitrary JSON documents, e.g. committed BENCH_*.json
// baselines) and exits 1 when any relative difference exceeds
// -threshold — a noise-tolerant CI regression gate. Exit codes: 0 no
// differences above threshold, 1 differences found, 2 usage error.
package main

import (
	"archive/tar"
	"compress/gzip"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"accals/internal/ledger"
	"accals/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind process exit, factored out so tests
// can drive it. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	diff := fs.Bool("diff", false, "compare two bundles (or two JSON files) instead of analysing one")
	job := fs.Bool("job", false, "the argument is a daemon job bundle (directory or tar.gz download); print the job story before the run analysis")
	threshold := fs.Float64("threshold", 0.0, "relative difference above which -diff reports a regression (e.g. 0.05 = 5%)")
	ignore := fs.String("ignore", "", "comma-separated path substrings to skip in -diff (e.g. runtime,seconds)")
	csvPath := fs.String("csv", "", "export the per-round table as CSV to this file")
	timeline := fs.Bool("timeline", false, "print the per-round wall-clock breakdown from the bundle's trace.jsonl (local-compute/unattributed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *diff {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "report: -diff needs exactly two bundle directories or JSON files")
			return 2
		}
		return runDiff(fs.Arg(0), fs.Arg(1), *threshold, *ignore, stdout, stderr)
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: report [-job] [-timeline] [-csv file] <bundle>  |  report -diff [-threshold x] <a> <b>")
		return 2
	}
	arg := fs.Arg(0)
	if *job {
		dir, cleanup, err := resolveJobBundle(arg)
		if err != nil {
			fmt.Fprintln(stderr, "report:", err)
			return 2
		}
		defer cleanup()
		printJobStory(dir, stdout)
		arg = dir
	}
	if err := analyse(arg, *csvPath, *timeline, stdout); err != nil {
		fmt.Fprintln(stderr, "report:", err)
		return 2
	}
	return 0
}

// resolveJobBundle turns a -job argument into a bundle directory: a
// directory passes through, a tar.gz (the /v1/jobs/{id}/bundle
// download) is extracted into a temp directory the cleanup removes.
func resolveJobBundle(arg string) (dir string, cleanup func(), err error) {
	st, err := os.Stat(arg)
	if err != nil {
		return "", nil, err
	}
	if st.IsDir() {
		return arg, func() {}, nil
	}
	f, err := os.Open(arg)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		return "", nil, fmt.Errorf("%s: not a bundle directory or tar.gz download: %v", arg, err)
	}
	tmp, err := os.MkdirTemp("", "report-job-*")
	if err != nil {
		return "", nil, err
	}
	cleanup = func() { os.RemoveAll(tmp) }
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			cleanup()
			return "", nil, fmt.Errorf("%s: %v", arg, err)
		}
		name := filepath.Clean(filepath.FromSlash(hdr.Name))
		if filepath.IsAbs(name) || name == ".." || strings.HasPrefix(name, ".."+string(filepath.Separator)) {
			cleanup()
			return "", nil, fmt.Errorf("%s: unsafe path %q in archive", arg, hdr.Name)
		}
		dst := filepath.Join(tmp, name)
		if hdr.Typeflag == tar.TypeDir {
			continue
		}
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			cleanup()
			return "", nil, err
		}
		out, err := os.Create(dst)
		if err != nil {
			cleanup()
			return "", nil, err
		}
		if _, err := io.Copy(out, tr); err != nil {
			out.Close()
			cleanup()
			return "", nil, fmt.Errorf("%s: %v", arg, err)
		}
		if err := out.Close(); err != nil {
			cleanup()
			return "", nil, err
		}
	}
	return tmp, cleanup, nil
}

// printJobStory renders the service-side half of a job bundle: the
// admission→queue→run→terminal timeline from job.json. A bundle
// without one (the job has not finished, or the bundle came from the
// accals CLI) just skips to the run analysis.
func printJobStory(dir string, w io.Writer) {
	body, err := os.ReadFile(filepath.Join(dir, serve.BundleJobFile))
	if err != nil {
		fmt.Fprintf(w, "job:       no %s in bundle (job not terminal yet, or a CLI bundle)\n\n", serve.BundleJobFile)
		return
	}
	var j serve.Job
	if err := json.Unmarshal(body, &j); err != nil {
		fmt.Fprintf(w, "job:       unreadable %s: %v\n\n", serve.BundleJobFile, err)
		return
	}
	tenant := j.Spec.Tenant
	if tenant == "" {
		tenant = "(anonymous)"
	}
	fmt.Fprintf(w, "job:       %s, tenant %s — %s\n", j.ID, tenant, j.State)
	var flags []string
	if j.Recovered {
		flags = append(flags, "recovered after a daemon restart")
	}
	if j.Resumed {
		flags = append(flags, "resumed from a checkpoint")
	}
	if len(flags) > 0 {
		fmt.Fprintf(w, "           %s\n", strings.Join(flags, "; "))
	}
	fmt.Fprintf(w, "admitted:  %s\n", j.SubmittedAt.Format(time.RFC3339))
	if !j.StartedAt.IsZero() {
		fmt.Fprintf(w, "queued:    %v until dispatch\n", j.StartedAt.Sub(j.SubmittedAt).Round(time.Millisecond))
		if !j.FinishedAt.IsZero() {
			fmt.Fprintf(w, "ran:       %v (last segment)\n", j.FinishedAt.Sub(j.StartedAt).Round(time.Millisecond))
		}
	}
	switch {
	case j.Failure != "":
		fmt.Fprintf(w, "failed:    [%s] %s\n", j.FailureKind, j.Failure)
	case j.StopReason != "":
		fmt.Fprintf(w, "stopped:   %s at round %d, error %.6f, %d ANDs\n",
			j.StopReason, j.Round, j.Error, j.NumAnds)
	}
	fmt.Fprintln(w)
}

// ledgerPath resolves the argument to a ledger file: a directory means
// its ledger.jsonl, anything else is taken as the ledger itself.
func ledgerPath(arg string) string {
	if st, err := os.Stat(arg); err == nil && st.IsDir() {
		return filepath.Join(arg, ledger.LedgerFile)
	}
	return arg
}

// analyse prints the offline report for one bundle.
func analyse(arg, csvPath string, timeline bool, w io.Writer) error {
	events, err := ledger.DecodeFile(ledgerPath(arg))
	if err != nil {
		return err
	}
	t, err := ledger.Analyze(events)
	if err != nil {
		return err
	}

	m := t.Meta
	fmt.Fprintf(w, "run:       %s %s, metric %s, bound %g, seed %d\n",
		m.Method, m.Circuit, m.Metric, m.Bound, m.Seed)
	fmt.Fprintf(w, "engine:    %d patterns, %d workers\n", m.Patterns, m.Workers)
	fmt.Fprintf(w, "initial:   %d ANDs, area %.1f, depth %d\n",
		m.InitialAnds, m.InitialArea, m.InitialDepth)
	if t.Resumes > 0 {
		fmt.Fprintf(w, "resumes:   %d (ledger spans %d run segments)\n", t.Resumes, t.Resumes+1)
	}

	fmt.Fprintf(w, "\nround  kind    lacs  est_err    error      Δ|est-meas|  ands   area     depth  duel\n")
	for _, r := range t.Rounds {
		kind := "multi "
		switch {
		case r.GuardSingle:
			kind = "guard "
		case !r.Multi:
			kind = "single"
		}
		if r.Reverted {
			kind = "revert"
		}
		duel := "-"
		if r.DuelIndpErr != nil && r.DuelRandErr != nil {
			winner := "rand"
			if r.PickedIndp {
				winner = "indp"
			}
			duel = fmt.Sprintf("%s (%.6f vs %.6f)", winner, *r.DuelIndpErr, *r.DuelRandErr)
		}
		fmt.Fprintf(w, "%5d  %s  %4d  %.6f  %.6f  %.6f     %-5d  %-7.1f  %-5d  %s\n",
			r.Round, kind, len(r.Applied), r.EstErr, r.Error,
			math.Abs(r.EstErr-r.Error), r.NumAnds, r.Area, r.Depth, duel)
	}

	duels, indpWins := t.Duels()
	fmt.Fprintf(w, "\nL_indp ratio: %.3f (%d of %d duels won by the independent set)\n",
		t.IndpRatio(), indpWins, duels)
	acc := t.EstimatorAccuracy()
	fmt.Fprintf(w, "estimator:    mean |est-measured| %.6f, max %.6f (round %d) over %d rounds\n",
		acc.MeanAbs, acc.MaxAbs, acc.MaxRound, acc.Rounds)
	single, reverts := t.Guards()
	fmt.Fprintf(w, "guards:       %d single-LAC fallbacks, %d negative-set reverts\n", single, reverts)
	if attempts, certified, conflicts := t.Certification(); attempts > 0 {
		fmt.Fprintf(w, "certification: %d of %d rounds certified (%d solver conflicts)\n",
			certified, attempts, conflicts)
	}
	if f := t.Finish; f != nil {
		fmt.Fprintf(w, "finish:       %s after %d rounds, error %.6f, %d ANDs, %d LACs, %.3fs\n",
			f.StopReason, f.Rounds, f.Error, f.NumAnds, f.LACsApplied,
			float64(f.RuntimeUS)/1e6)
	} else {
		fmt.Fprintf(w, "finish:       missing (ledger cut off mid-run); last error %.6f\n", t.FinalError())
	}

	printPhases(arg, w)
	if !timeline && csvPath == "" {
		return nil
	}

	// The trace timeline is optional decoration for the CSV export and
	// a hard requirement for -timeline: a bundle without trace.jsonl
	// (tracing was off, or the argument is a bare ledger file) yields
	// tl == nil. Only these two read the trace, so a damaged trace
	// cannot fail a plain analysis.
	tl, err := loadTimeline(arg)
	if err != nil {
		return err
	}
	if timeline {
		if tl == nil {
			return fmt.Errorf("-timeline needs a bundle directory with %s (rerun the synthesis with -bundle and -trace, or any tracer attached)", ledger.TraceFile)
		}
		printTimeline(tl, w)
	}

	if csvPath != "" {
		if err := writeCSV(csvPath, t, tl); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", csvPath)
	}
	return nil
}

// printPhases adds the phase-time breakdown when the bundle carries a
// summary.json; a bare ledger file simply has none.
func printPhases(arg string, w io.Writer) {
	st, err := os.Stat(arg)
	if err != nil || !st.IsDir() {
		return
	}
	sum, err := ledger.ReadSummary(filepath.Join(arg, ledger.SummaryFile))
	if err != nil {
		return
	}
	type row struct {
		name string
		s    float64
		n    uint64
	}
	var rows []row
	total := 0.0
	for name, p := range sum.Obs.Phases {
		if name == "round" {
			total = p.Seconds
			continue
		}
		rows = append(rows, row{name, p.Seconds, p.Count})
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].s > rows[j].s })
	fmt.Fprintf(w, "\nphase breakdown:\n")
	for _, r := range rows {
		share := ""
		if total > 0 {
			share = fmt.Sprintf(" (%4.1f%%)", 100*r.s/total)
		}
		fmt.Fprintf(w, "  %-14s %9.3fs%s  over %d spans\n", r.name, r.s, share, r.n)
	}
}

// writeCSV exports the per-round table with every ledger column, plus
// the trace timeline's local compute when the bundle carries a trace
// (tl may be nil — the tl_local_us column then stays empty).
func writeCSV(path string, t *ledger.Trajectory, tl *traceTimeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(f)
	header := []string{
		"round", "multi", "guard_single", "reverted", "picked_indp",
		"applied", "candidates", "budget_left", "top_size",
		"conflict_nodes", "conflict_edges", "sol_size",
		"infl_pairs", "infl_above", "mis_size", "indp_size", "rand_size",
		"duel_indp_err", "duel_rand_err", "est_err", "error",
		"certified", "cert_conflicts",
		"num_ands", "area", "depth", "no_progress", "duration_us",
		"tl_local_us",
	}
	if err := cw.Write(header); err != nil {
		f.Close()
		return err
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fp := func(v *float64) string {
		if v == nil {
			return ""
		}
		return ff(*v)
	}
	fb := func(b bool) string {
		if b {
			return "1"
		}
		return "0"
	}
	// Certification is tri-state: rounds of statistical-metric runs
	// never attempted one, so their column stays empty.
	fcert := func(c *bool) string {
		if c == nil {
			return ""
		}
		return fb(*c)
	}
	// The timeline column tolerates traceless ledgers: with no trace
	// data (or a round the trace never saw) it stays empty rather than
	// faking a zero.
	ftl := func(round int) string {
		if tl == nil {
			return ""
		}
		rb, ok := tl.byRound[round]
		if !ok {
			return ""
		}
		return strconv.FormatInt(rb.local, 10)
	}
	for _, r := range t.Rounds {
		rec := []string{
			strconv.Itoa(r.Round), fb(r.Multi), fb(r.GuardSingle), fb(r.Reverted), fb(r.PickedIndp),
			strconv.Itoa(len(r.Applied)), strconv.Itoa(r.Candidates), ff(r.BudgetLeft), strconv.Itoa(r.TopSize),
			strconv.Itoa(r.ConflictNodes), strconv.Itoa(r.ConflictEdges), strconv.Itoa(r.SolSize),
			strconv.Itoa(r.InflPairs), strconv.Itoa(r.InflAbove), strconv.Itoa(r.MISSize),
			strconv.Itoa(r.IndpSize), strconv.Itoa(r.RandSize),
			fp(r.DuelIndpErr), fp(r.DuelRandErr), ff(r.EstErr), ff(r.Error),
			fcert(r.Certified), strconv.FormatInt(r.CertConflicts, 10),
			strconv.Itoa(r.NumAnds), ff(r.Area), strconv.Itoa(r.Depth),
			strconv.Itoa(r.NoProgress), strconv.FormatInt(r.DurationUS, 10),
			ftl(r.Round),
		}
		if err := cw.Write(rec); err != nil {
			f.Close()
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// diffPath resolves a -diff argument: a bundle directory means its
// summary.json, anything else is compared as a raw JSON document.
func diffPath(arg string) string {
	if st, err := os.Stat(arg); err == nil && st.IsDir() {
		return filepath.Join(arg, ledger.SummaryFile)
	}
	return arg
}

// runDiff compares the JSON leaves of two documents and reports every
// difference whose relative magnitude exceeds the threshold.
func runDiff(a, b string, threshold float64, ignore string, stdout, stderr io.Writer) int {
	la, err := loadLeaves(diffPath(a))
	if err != nil {
		fmt.Fprintln(stderr, "report:", err)
		return 2
	}
	lb, err := loadLeaves(diffPath(b))
	if err != nil {
		fmt.Fprintln(stderr, "report:", err)
		return 2
	}
	var skips []string
	if ignore != "" {
		skips = strings.Split(ignore, ",")
	}
	skip := func(path string) bool {
		for _, s := range skips {
			if s != "" && strings.Contains(path, s) {
				return true
			}
		}
		return false
	}

	var diffs []string
	keys := make([]string, 0, len(la))
	for k := range la {
		keys = append(keys, k)
	}
	for k := range lb {
		if _, ok := la[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if skip(k) {
			continue
		}
		va, oka := la[k]
		vb, okb := lb[k]
		switch {
		case !oka:
			diffs = append(diffs, fmt.Sprintf("%s: only in %s (%v)", k, b, vb))
		case !okb:
			diffs = append(diffs, fmt.Sprintf("%s: only in %s (%v)", k, a, va))
		default:
			na, isNumA := va.(float64)
			nb, isNumB := vb.(float64)
			if isNumA && isNumB {
				if rel := relDiff(na, nb); rel > threshold {
					diffs = append(diffs, fmt.Sprintf("%s: %g -> %g (%.1f%%)", k, na, nb, 100*rel))
				}
			} else if va != vb {
				diffs = append(diffs, fmt.Sprintf("%s: %v -> %v", k, va, vb))
			}
		}
	}
	if len(diffs) == 0 {
		fmt.Fprintf(stdout, "no differences above threshold %g between %s and %s\n", threshold, a, b)
		return 0
	}
	fmt.Fprintf(stdout, "%d difference(s) above threshold %g:\n", len(diffs), threshold)
	for _, d := range diffs {
		fmt.Fprintf(stdout, "  %s\n", d)
	}
	return 1
}

// relDiff is |a-b| relative to the larger magnitude (0 when both are 0).
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// loadLeaves decodes a JSON document into a flat map of dotted leaf
// paths to scalar values (numbers stay float64, strings and bools are
// compared for equality).
func loadLeaves(path string) (map[string]any, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	leaves := map[string]any{}
	flatten("", doc, leaves)
	return leaves, nil
}

func flatten(prefix string, v any, out map[string]any) {
	switch t := v.(type) {
	case map[string]any:
		for k, sub := range t {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flatten(p, sub, out)
		}
	case []any:
		for i, sub := range t {
			flatten(fmt.Sprintf("%s[%d]", prefix, i), sub, out)
		}
	default:
		out[prefix] = v
	}
}
