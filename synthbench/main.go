// Command synthbench is the repository's synthesis benchmark. Each
// workload is one full AccALS synthesis of a paper circuit under an
// error bound, run through the in-process API (core.RunWithComparatorCtx)
// with the accals command's default options: incremental generation
// on, speculation off, 8192 patterns, no remote evaluators.
//
// With --trace 0 it repeats the synthesis untraced for --seconds and
// reports the end-to-end metrics (medians over the repetitions). The
// times it reports (setup_s, synth_s, rounds_per_s, cpu_s) are scaled
// to a reference host speed, measured by a fixed kernel of the
// benchmark's own timed between the syntheses (see refKernel), because
// the shared host's speed drifts by more than any useful regression
// bound within minutes; the raw times are printed before the result. With
// --trace 1 it pairs untraced and traced syntheses, reads the in-loop
// layer times from the traced run's recorder and ledger, then replays
// every recorded round through the layers' public functions and
// reports the per-layer metrics. Every synthesis result is checked:
// its error is re-measured against a freshly built reference and its
// AIGER bytes must match the run's first result.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash synthbench/run.sh --workload mtp8-nmed --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"accals/internal/errmetric"
)

// workload is one benchmark scenario: a built-in circuit synthesised
// under an error bound with a fixed worker budget.
type workload struct {
	name    string
	circuit string
	metric  errmetric.Kind
	bound   float64
	workers int
	// dominant names the layer group expected to take the largest share
	// of synthesis time in the traced run (see dominantLayer).
	dominant string
}

// workloads are the three paper scenarios, each stressing a different
// layer; BENCHMARK.json records why each was chosen.
var workloads = []workload{
	// Word-level NMED scoring dominates; selection is ~0% and no SAT runs.
	{name: "mtp8-nmed", circuit: "mtp8", metric: errmetric.NMED, bound: 0.0019531, workers: 1, dominant: "estimate"},
	// Conflict graph, influence index, MIS and candidate generation
	// dominate on a 5251-AND CORDIC circuit; ER scoring is cheap.
	{name: "sin-er", circuit: "sin", metric: errmetric.ER, bound: 0.001, workers: 2, dominant: "select+generate"},
	// The only workload where SAT certification runs, every round.
	{name: "wal8-maxed", circuit: "wal8", metric: errmetric.MaxED, bound: 32, workers: 1, dominant: "certify"},
}

func lookupWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// config is one benchmark invocation.
type config struct {
	workload workload
	// seed draws the held-out pattern set the final circuit is scored on
	// (see heldOutError); the synthesis inputs are pinned per workload.
	seed    int64
	seconds float64
	trace   bool
	// maxRounds caps every synthesis (0 = uncapped, as the benchmark
	// runs); the smoke test caps it to stay short.
	maxRounds int
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the final JSON line of a run.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("synthbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: mtp8-nmed, sin-er or wal8-maxed")
	seed := fs.Int64("seed", 1, "seed of the held-out pattern set")
	seconds := fs.Float64("seconds", 30, "measurement time per run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics (untraced); 1: per-layer metrics (traced run and replay)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1) {
		err = fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if err == nil && !(*seconds > 0) {
		err = fmt.Errorf("--seconds %v: want a positive duration", *seconds)
	}
	if err == nil {
		cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1}
		err = run(context.Background(), cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "synthbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark invocation, writing human-readable lines
// and then the final JSON outcome to out.
func run(ctx context.Context, cfg config, out io.Writer) error {
	prov, err := json.Marshal(provenance(cfg))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "provenance %s\n", prov)
	var o outcome
	if cfg.trace {
		o, err = runTraced(ctx, cfg, out)
	} else {
		o, err = runUntraced(ctx, cfg, out)
	}
	if err != nil {
		return err
	}
	o.Correct = o.Failed == 0
	fmt.Fprintf(out, "fail_rate %g (%d of %d syntheses failed a check)\n",
		float64(o.Failed)/float64(o.Attempted), o.Failed, o.Attempted)
	line, err := json.Marshal(o)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// provenance names the host, toolchain, source revision and inputs of
// a run, so every result can be traced back to where it was measured.
func provenance(cfg config) map[string]any {
	w := cfg.workload
	p := map[string]any{
		"workload":    w.name,
		"circuit":     w.circuit,
		"metric":      w.metric.String(),
		"bound":       w.bound,
		"workers":     w.workers,
		"patterns":    patterns,
		"seed":        cfg.seed,
		"cpu_model":   cpuModel(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"git_rev":     "unknown",
		"git_dirty":   "unknown",
		"trace":       cfg.trace,
		"max_seconds": cfg.seconds,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["git_rev"] = s.Value
			case "vcs.modified":
				p["git_dirty"] = s.Value
			}
		}
	}
	return p
}

// cpuModel returns the host's CPU model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printMetrics writes one line per metric in name order.
func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
