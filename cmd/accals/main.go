// Command accals synthesises an approximate circuit from a benchmark
// or a BLIF file under a statistical error bound, using the AccALS
// multi-LAC flow (default) or the SEALS single-selection baseline.
//
// Examples:
//
//	accals -circuit mtp8 -metric er -bound 0.05
//	accals -blif design.blif -metric nmed -bound 0.0019531 -out approx.blif
//	accals -circuit rca32 -method seals -metric mred -bound 0.001 -v
//
// The maxed metric bounds the worst-case error distance and proves it:
// every accepted round carries a certificate that |approx - exact|
// never exceeds -bound on any input (the bound is an absolute integer,
// not a fraction). Circuits with at most 16 inputs are proved by
// simulating every input, wider ones by an UNSAT proof:
//
//	accals -circuit rca8 -metric maxed -bound 4
//
// Long runs are interrupt-safe: SIGINT/SIGTERM stops the run after the
// current round and the best-so-far circuit is still written to -out,
// -aiger and -verilog. With -checkpoint the run snapshots its state
// every -checkpoint-every rounds, and -resume restarts from the latest
// valid snapshot:
//
//	accals -circuit mtp8 -bound 0.05 -checkpoint ckpt/ -max-runtime 30s
//	accals -circuit mtp8 -bound 0.05 -checkpoint ckpt/ -resume
//
// With -bundle the run writes a self-describing run bundle — the
// per-round decision ledger, a config/environment manifest, the
// end-of-run summary, a phase trace, and (past -bundle-slow-round)
// auto-captured CPU/heap profiles — for offline analysis and
// regression diffing with cmd/report:
//
//	accals -circuit mtp8 -bound 0.05 -bundle runs/mtp8
//	report runs/mtp8
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"accals/internal/aig"
	"accals/internal/aiger"
	"accals/internal/blif"
	"accals/internal/checkpoint"
	"accals/internal/circuits"
	"accals/internal/core"
	"accals/internal/errmetric"
	"accals/internal/mapping"
	"accals/internal/maxerr"
	"accals/internal/obs"
	"accals/internal/opt"
	"accals/internal/runctl"
	"accals/internal/session"
	"accals/internal/simulate"
)

// config holds the parsed command line. It is validated up front so
// every rejected combination produces one actionable message instead
// of a failure deep inside the run.
type config struct {
	circuit     string
	blifPath    string
	metricName  string
	bound       float64
	method      string
	patterns    int
	workers     int
	incremental bool
	seed        int64
	hasSeed     bool // -seed given explicitly
	outPath     string
	aigerPath   string
	verilogPath string
	balance     bool
	verbose     bool

	certBudget int64

	checkpointDir   string
	checkpointEvery int
	resume          bool
	maxRuntime      time.Duration

	tracePath       string
	traceChromePath string
	metricsAddr     string
	pprofAddr       string
	summaryPath     string
	progressEvery   time.Duration
	bundleDir       string
	bundleSlowRound time.Duration
}

// wantsObs reports whether any flag requires a live obs.Recorder. With
// none set the flows run with a nil recorder (pure no-op path).
func (c *config) wantsObs() bool {
	return c.tracePath != "" || c.traceChromePath != "" ||
		c.metricsAddr != "" || c.pprofAddr != "" ||
		c.summaryPath != "" || c.progressEvery > 0 ||
		c.bundleDir != ""
}

func parseFlags(args []string) (*config, bool, error) {
	cfg := &config{}
	fs := flag.NewFlagSet("accals", flag.ContinueOnError)
	fs.StringVar(&cfg.circuit, "circuit", "", "built-in benchmark name (see -list)")
	fs.StringVar(&cfg.blifPath, "blif", "", "input BLIF file (alternative to -circuit)")
	fs.StringVar(&cfg.metricName, "metric", "er", "error metric: er, nmed, mred, mhd, maxed (certified worst case)")
	fs.Float64Var(&cfg.bound, "bound", 0.05, "error bound (fraction in (0,1], e.g. 0.05 = 5%; for -metric maxed an absolute integer error distance)")
	fs.StringVar(&cfg.method, "method", "accals", "synthesis method: accals, seals")
	fs.IntVar(&cfg.patterns, "patterns", 8192, "Monte-Carlo pattern budget")
	fs.IntVar(&cfg.workers, "workers", 0, "evaluation worker count (0 = one per CPU, 1 = sequential); results are identical at any setting")
	fs.BoolVar(&cfg.incremental, "incremental", true, "reuse cached LAC candidates outside each round's dirty cone; results are identical either way")
	fs.Int64Var(&cfg.seed, "seed", 1, "random seed")
	fs.StringVar(&cfg.outPath, "out", "", "write the approximate circuit as BLIF")
	fs.StringVar(&cfg.aigerPath, "aiger", "", "write the approximate circuit as binary AIGER")
	fs.StringVar(&cfg.verilogPath, "verilog", "", "write the mapped approximate circuit as structural Verilog")
	fs.BoolVar(&cfg.balance, "balance", false, "balance the circuit before synthesis (depth reduction)")
	fs.BoolVar(&cfg.verbose, "v", false, "print per-round progress")
	fs.StringVar(&cfg.checkpointDir, "checkpoint", "", "directory for periodic run snapshots")
	fs.IntVar(&cfg.checkpointEvery, "checkpoint-every", 10, "snapshot cadence in rounds (with -checkpoint)")
	fs.BoolVar(&cfg.resume, "resume", false, "resume from the latest snapshot in -checkpoint")
	fs.DurationVar(&cfg.maxRuntime, "max-runtime", 0, "stop after this wall-clock budget, keeping the best so far (e.g. 30s, 10m)")
	fs.Int64Var(&cfg.certBudget, "cert-budget", 0, fmt.Sprintf("SAT conflict budget per certification with -metric maxed (0 = default, negative = unlimited); an exhausted budget rejects the round. Only circuits with more than %d inputs use SAT; narrower ones are certified by exhaustive simulation", simulate.ExhaustiveLimit))
	fs.StringVar(&cfg.tracePath, "trace", "", "write per-phase span events as JSONL to this file")
	fs.StringVar(&cfg.traceChromePath, "trace-chrome", "", "write a Chrome trace_event file (open in chrome://tracing or Perfetto)")
	fs.StringVar(&cfg.metricsAddr, "metrics-addr", "", "serve /metrics (Prometheus), /status (JSON) and /debug/vars on this address (e.g. :9090, 127.0.0.1:0)")
	fs.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve /debug/pprof/ on this address")
	fs.StringVar(&cfg.summaryPath, "summary", "", "write an end-of-run JSON summary (phase times, guard counts, duel win rates) to this file")
	fs.DurationVar(&cfg.progressEvery, "progress-every", 0, "print a one-line progress summary to stderr at this interval (e.g. 5s; 0 disables)")
	fs.StringVar(&cfg.bundleDir, "bundle", "", "write a run bundle (round ledger, manifest, summary, phase trace) into this directory; with -resume the ledger is appended")
	fs.DurationVar(&cfg.bundleSlowRound, "bundle-slow-round", 0, "capture CPU/heap profiles into the bundle once a round takes at least this long (0 disables)")
	list := fs.Bool("list", false, "list built-in benchmarks and exit")
	if err := fs.Parse(args); err != nil {
		return nil, false, err
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			cfg.hasSeed = true
		}
	})
	cfg.metricName = strings.ToLower(cfg.metricName)
	cfg.method = strings.ToLower(cfg.method)
	return cfg, *list, nil
}

// validate rejects unusable flag combinations before any work starts.
func (c *config) validate() error {
	switch {
	case c.circuit != "" && c.blifPath != "":
		return errors.New("use either -circuit or -blif, not both")
	case c.circuit == "" && c.blifPath == "":
		return errors.New("no input: use -circuit <name> or -blif <file> (-list shows benchmarks)")
	}
	metric, err := errmetric.ParseKind(c.metricName)
	if err != nil {
		return err
	}
	if c.method != "accals" && c.method != "seals" {
		return fmt.Errorf("unknown method %q (want accals or seals)", c.method)
	}
	if err := errmetric.ValidateBound(metric, c.bound); err != nil {
		if metric == errmetric.MaxED {
			return fmt.Errorf("-bound %v out of range: -metric maxed wants a non-negative integer error distance, e.g. 4", c.bound)
		}
		return fmt.Errorf("-bound %v out of range: want a fraction in (0,1], e.g. 0.05 for 5%%", c.bound)
	}
	if metric == errmetric.MaxED {
		if c.method != "accals" {
			return errors.New("-metric maxed requires -method accals (SAT certification is wired into the multi-LAC loop)")
		}
	} else if c.certBudget != 0 {
		return errors.New("-cert-budget needs -metric maxed")
	}
	if c.patterns <= 0 {
		return fmt.Errorf("-patterns %d out of range: want a positive pattern budget", c.patterns)
	}
	if c.workers < 0 {
		return fmt.Errorf("-workers %d out of range: want 0 (all CPUs) or a positive worker count", c.workers)
	}
	if c.checkpointEvery < 1 {
		return fmt.Errorf("-checkpoint-every %d out of range: want at least 1", c.checkpointEvery)
	}
	if c.resume && c.checkpointDir == "" {
		return errors.New("-resume needs -checkpoint <dir> to load snapshots from")
	}
	if c.progressEvery < 0 {
		return fmt.Errorf("-progress-every %v out of range: want a non-negative interval", c.progressEvery)
	}
	if c.bundleSlowRound < 0 {
		return fmt.Errorf("-bundle-slow-round %v out of range: want a non-negative duration", c.bundleSlowRound)
	}
	if c.bundleSlowRound > 0 && c.bundleDir == "" {
		return errors.New("-bundle-slow-round needs -bundle <dir> to store the profiles in")
	}
	return nil
}

func main() {
	cfg, list, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if list {
		for _, n := range circuits.Names() {
			fmt.Println(n)
		}
		return
	}

	// SIGINT/SIGTERM cancels the run after the current round; the
	// best-so-far circuit is still reported and written below, and with
	// -checkpoint the last accepted round is snapshotted even between
	// cadence points, so a signalled run resumes without losing work.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// After the first signal the handler is deregistered, restoring the
	// default disposition: a second signal terminates immediately
	// instead of waiting for the drain.
	context.AfterFunc(ctx, stop)

	if err := cfg.validate(); err != nil {
		fatal(err)
	}

	if err := run(ctx, cfg, os.Stdout); err != nil {
		fatal(err)
	}
}

// run executes one synthesis according to cfg, writing the human
// report to w. It is the whole command behind flag parsing, factored
// out so tests can drive it directly.
func run(ctx context.Context, cfg *config, w io.Writer) error {
	g, err := loadCircuit(cfg.circuit, cfg.blifPath)
	if err != nil {
		return err
	}
	metric, err := errmetric.ParseKind(cfg.metricName)
	if err != nil {
		return err
	}
	if cfg.balance {
		g, err = opt.BalanceCtx(ctx, g)
		if err != nil {
			return err
		}
	}
	if err := errmetric.Validate(metric, g); err != nil {
		return err
	}

	rec, closeObs, err := setupObs(cfg, w)
	if err != nil {
		return err
	}
	defer closeObs()
	s := &session.Session{Graph: g, Method: cfg.method, Metric: metric, Bound: cfg.bound, Opt: core.Options{
		NumPatterns:    cfg.patterns,
		PatternSeed:    cfg.seed,
		HasPatternSeed: cfg.hasSeed,
		Params:         core.Params{Seed: cfg.seed, HasSeed: cfg.hasSeed},
		MaxRuntime:     cfg.maxRuntime,
		Workers:        cfg.workers,
		Incremental:    cfg.incremental,
		CertBudget:     cfg.certBudget,
		Recorder:       rec,
	}}
	defer s.Close(nil)

	var ckpt *session.Checkpointer
	if cfg.checkpointDir != "" {
		cw, err := checkpoint.NewWriter(cfg.checkpointDir, cfg.checkpointEvery)
		if err != nil {
			return err
		}
		ckpt = s.Checkpoint(cw, func(snap *checkpoint.Snapshot) error {
			err := cw.Save(snap)
			if err != nil {
				fmt.Fprintf(os.Stderr, "accals: checkpoint round %d: %v\n", snap.Round, err)
			}
			return err
		}, nil)
	}
	if cfg.resume {
		snap, err := s.Resume(cfg.checkpointDir)
		if err != nil {
			return err
		}
		if cfg.hasSeed && snap.Seed != cfg.seed {
			return fmt.Errorf("snapshot in %s was created with -seed %d, got -seed %d; matching seeds are required for an exact resume",
				cfg.checkpointDir, snap.Seed, cfg.seed)
		}
		fmt.Fprintf(w, "resuming:  round %d, error %.6f (from %s)\n",
			snap.Round+1, snap.Error, cfg.checkpointDir)
	}
	if cfg.bundleDir != "" {
		if err := s.OpenBundle(cfg.bundleDir, os.Args, cfg.bundleSlowRound); err != nil {
			return err
		}
		fmt.Fprintf(w, "bundle:    %s\n", cfg.bundleDir)
	}
	if rec.Tracing() {
		fmt.Fprintf(w, "trace id:  %s\n", rec.TraceID())
	}

	var onRound func(core.RoundStats)
	if cfg.verbose || cfg.progressEvery > 0 {
		lastProgress := time.Now()
		onRound = func(rs core.RoundStats) {
			if cfg.verbose {
				kind := "multi "
				if !rs.MultiRound {
					kind = "single"
				}
				fmt.Fprintf(w, "round %4d [%s] lacs=%3d err=%.6f ands=%d\n",
					rs.Round, kind, rs.AppliedLACs, rs.Error, rs.NumAnds)
			}
			if cfg.progressEvery > 0 && time.Since(lastProgress) >= cfg.progressEvery {
				lastProgress = time.Now()
				fmt.Fprintf(os.Stderr, "accals: round %d err=%.6f ands=%d lacs=%d noprog=%d\n",
					rs.Round, rs.Error, rs.NumAnds, rs.AppliedLACs, rs.NoProgress)
			}
		}
	}
	res := s.Run(ctx, onRound)
	if round, ok := ckpt.Final(); ok {
		fmt.Fprintf(w, "checkpoint: final snapshot at round %d (interrupted off-cadence)\n", round)
	}

	oa, od := mapping.AreaDelay(g)
	aa, ad := mapping.AreaDelay(res.Final)
	fmt.Fprintf(w, "circuit:   %s (%d PIs, %d POs)\n", g.Name, g.NumPIs(), g.NumPOs())
	fmt.Fprintf(w, "method:    %s, metric %v, bound %g\n", cfg.method, metric, cfg.bound)
	fmt.Fprintf(w, "error:     %.6f\n", res.Error)
	fmt.Fprintf(w, "AIG nodes: %d -> %d (%.2f%%)\n", g.NumAnds(), res.Final.NumAnds(),
		pct(res.Final.NumAnds(), g.NumAnds()))
	fmt.Fprintf(w, "area:      %.1f -> %.1f (%.2f%%)\n", oa, aa, 100*aa/oa)
	fmt.Fprintf(w, "delay:     %.1f -> %.1f (%.2f%%)\n", od, ad, 100*ad/od)
	fmt.Fprintf(w, "rounds:    %d (%d LACs applied)\n", len(res.Rounds), res.LACsApplied)
	fmt.Fprintf(w, "runtime:   %v\n", res.Runtime.Round(res.Runtime/1000+1))
	fmt.Fprintf(w, "stopped:   %v\n", res.StopReason)
	if res.Certified {
		if maxerr.BySimulation(g.NumPIs()) {
			fmt.Fprintf(w, "certified: worst-case error distance <= %g proved by exhaustive simulation of all 2^%d inputs\n",
				cfg.bound, g.NumPIs())
		} else {
			fmt.Fprintf(w, "certified: worst-case error distance <= %g proved by SAT (%d conflicts)\n",
				cfg.bound, res.CertConflicts)
		}
	}
	if res.StopReason == runctl.Uncertified {
		fmt.Fprintf(w, "note:      a candidate round failed certification; outputs hold the last certified circuit\n")
	}
	if res.StopReason.Interrupted() {
		fmt.Fprintf(w, "note:      run interrupted; outputs hold the best circuit found so far\n")
	}

	if cfg.summaryPath != "" {
		sum := s.Summary(res)
		err := writeFile(w, cfg.summaryPath, func(f *os.File) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(sum)
		})
		if err != nil {
			return err
		}
	}
	if err := s.Close(res); err != nil {
		return err
	}

	if cfg.outPath != "" {
		if err := writeFile(w, cfg.outPath, func(f *os.File) error { return blif.Write(f, res.Final) }); err != nil {
			return err
		}
	}
	if cfg.aigerPath != "" {
		if err := writeFile(w, cfg.aigerPath, func(f *os.File) error { return aiger.WriteBinary(f, res.Final) }); err != nil {
			return err
		}
	}
	if cfg.verilogPath != "" {
		_, nl := mapping.MapNetlist(res.Final, mapping.MCNC())
		if err := writeFile(w, cfg.verilogPath, func(f *os.File) error { return nl.WriteVerilog(f) }); err != nil {
			return err
		}
	}
	// Surface trace-sink write failures (ENOSPC, closed pipe) instead
	// of silently shipping a truncated trace.
	return closeObs()
}

// setupObs wires the observability flags into a recorder with trace
// sinks and introspection servers attached. The returned close
// function is idempotent, flushes the trace files, shuts the servers
// down, and reports the first trace write error. With no obs flag set
// it returns a nil recorder (the flows' no-op path).
func setupObs(cfg *config, w io.Writer) (*obs.Recorder, func() error, error) {
	if !cfg.wantsObs() {
		return nil, func() error { return nil }, nil
	}
	rec := obs.NewRecorder()
	var (
		tracers []*obs.Tracer
		files   []*os.File
		servers []*obs.Server
	)
	var once sync.Once
	var closeErr error
	closeAll := func() error {
		once.Do(func() {
			for _, t := range tracers {
				if err := t.Close(); err != nil && closeErr == nil {
					closeErr = fmt.Errorf("trace: %w", err)
				}
			}
			for _, f := range files {
				if err := f.Close(); err != nil && closeErr == nil {
					closeErr = fmt.Errorf("trace: %w", err)
				}
			}
			for _, s := range servers {
				_ = s.Close()
			}
		})
		return closeErr
	}
	addTracer := func(path string, format obs.TraceFormat) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		files = append(files, f)
		t := obs.NewTracer(f, format)
		tracers = append(tracers, t)
		rec.AddTracer(t)
		return nil
	}
	if cfg.tracePath != "" {
		if err := addTracer(cfg.tracePath, obs.TraceJSONL); err != nil {
			_ = closeAll()
			return nil, nil, err
		}
	}
	if cfg.traceChromePath != "" {
		if err := addTracer(cfg.traceChromePath, obs.TraceChrome); err != nil {
			_ = closeAll()
			return nil, nil, err
		}
	}
	if cfg.metricsAddr != "" {
		srv, err := obs.Serve(cfg.metricsAddr, rec.MetricsHandler())
		if err != nil {
			_ = closeAll()
			return nil, nil, err
		}
		servers = append(servers, srv)
		fmt.Fprintf(w, "metrics:   http://%s/metrics\n", srv.Addr())
	}
	if cfg.pprofAddr != "" {
		srv, err := obs.Serve(cfg.pprofAddr, obs.PprofHandler())
		if err != nil {
			_ = closeAll()
			return nil, nil, err
		}
		servers = append(servers, srv)
		fmt.Fprintf(w, "pprof:     http://%s/debug/pprof/\n", srv.Addr())
	}
	return rec, closeAll, nil
}

// writeFile creates path and runs the writer.
func writeFile(w io.Writer, path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

func loadCircuit(name, path string) (*aig.Graph, error) {
	if name != "" {
		return circuits.ByName(name)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := blif.Read(f)
	if err != nil && errors.Is(err, runctl.ErrMalformedInput) {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, err
}

func pct(a, b int) float64 {
	if b == 0 {
		return 100
	}
	return 100 * float64(a) / float64(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "accals:", err)
	os.Exit(1)
}
