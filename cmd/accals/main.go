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
	"accals/internal/ledger"
	"accals/internal/mapping"
	"accals/internal/maxerr"
	"accals/internal/obs"
	"accals/internal/opt"
	"accals/internal/runctl"
	"accals/internal/seals"
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
	metric, err := parseMetric(c.metricName)
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
	metric, err := parseMetric(cfg.metricName)
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

	ropt := core.Options{
		NumPatterns: cfg.patterns,
		PatternSeed: cfg.seed,
		Params:      core.Params{Seed: cfg.seed, HasSeed: cfg.hasSeed},
		MaxRuntime:  cfg.maxRuntime,
		Workers:     cfg.workers,
		Incremental: cfg.incremental,
		CertBudget:  cfg.certBudget,
	}
	ropt.HasPatternSeed = cfg.hasSeed

	rec, closeObs, err := setupObs(cfg, w)
	if err != nil {
		return err
	}
	defer closeObs()
	rec.SetRunInfo(cfg.method, g.Name, cfg.metricName, cfg.bound, g.NumAnds())
	ropt.Recorder = rec

	var ckpt *checkpoint.Writer
	if cfg.checkpointDir != "" {
		ckpt, err = checkpoint.NewWriter(cfg.checkpointDir, cfg.checkpointEvery)
		if err != nil {
			return err
		}
	}
	var snap *checkpoint.Snapshot
	if cfg.resume {
		snap, err = prepareResume(cfg, g, &ropt)
		if err != nil {
			return err
		}
		if reg := rec.Registry(); reg != nil && snap.Metrics != nil {
			reg.RestoreCounters(snap.Metrics)
		}
		fmt.Fprintf(w, "resuming:  round %d, error %.6f (from %s)\n",
			ropt.Start.Round, snap.Error, cfg.checkpointDir)
	}

	// The run bundle is opened after the resume snapshot is loaded: a
	// resumed run appends to the existing ledger, first truncating it to
	// the byte offset the snapshot recorded so rounds the resume will
	// re-execute do not appear twice. It must be attached before the run
	// starts (AddSink is setup-time only).
	var bundle *ledger.Bundle
	bundleDone := false
	if cfg.bundleDir != "" {
		if cfg.resume {
			trunc := int64(-1)
			if snap != nil && snap.LedgerBytes > 0 {
				trunc = snap.LedgerBytes
			}
			bundle, err = ledger.Resume(cfg.bundleDir, trunc)
		} else {
			bundle, err = ledger.Create(cfg.bundleDir)
		}
		if err != nil {
			return err
		}
		defer func() {
			if !bundleDone {
				_ = bundle.Close()
			}
		}()
		rec.AddSink(bundle.Writer())
		bundle.SetSlowRoundThreshold(cfg.bundleSlowRound)
		// The bundle carries its own phase trace unless the user already
		// routes one elsewhere with -trace.
		if cfg.tracePath == "" {
			tf, err := os.Create(bundle.Path(ledger.TraceFile))
			if err != nil {
				return err
			}
			bt := obs.NewTracer(tf, obs.TraceJSONL)
			rec.AddTracer(bt)
			prev := closeObs
			closeObs = func() error {
				terr := bt.Close()
				if cerr := tf.Close(); cerr != nil && terr == nil {
					terr = cerr
				}
				if perr := prev(); perr != nil {
					return perr
				}
				return terr
			}
		}
		m := ledger.Manifest{
			CreatedAt:   time.Now(),
			Command:     os.Args,
			Circuit:     g.Name,
			Method:      cfg.method,
			Metric:      cfg.metricName,
			Bound:       cfg.bound,
			Seed:        ropt.Params.Seed,
			Patterns:    cfg.patterns,
			Workers:     cfg.workers,
			Incremental: cfg.incremental,
			TraceID:     rec.TraceID(),
			Resumed:     cfg.resume,
		}
		m.FillEnvironment()
		if err := bundle.WriteManifest(m); err != nil {
			return err
		}
		fmt.Fprintf(w, "bundle:    %s\n", bundle.Dir())
	}

	if rec.Tracing() {
		fmt.Fprintf(w, "trace id:  %s\n", rec.TraceID())
	}

	// lastAccepted holds a ready-to-write snapshot of the newest
	// accepted round; lastSaved is the newest round already on disk.
	// Together they let an interrupted run persist its final accepted
	// round even when the cadence would have skipped it.
	var lastAccepted *checkpoint.Snapshot
	lastSaved := -1
	if ropt.Start != nil {
		lastSaved = ropt.Start.Round - 1
	}
	lastProgress := time.Now()
	progress := func(rs core.RoundStats) {
		if bundle != nil {
			bundle.ObserveRound(rs.Round, rs.RoundDuration)
		}
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
		// A round whose measured error exceeds the bound is rejected at
		// the top of the next round and never joins the accepted
		// trajectory — snapshotting it would make a resume adopt a
		// circuit that violates the bound. The same goes for a round
		// whose certification failed (maxed metric): its sampled
		// error passed but the proof did not, so a resume must never
		// adopt it. Only accepted rounds are checkpointed, so the
		// latest snapshot always restarts the run on the exact
		// trajectory it was interrupted on. The snapshot is built for
		// every accepted round (not just cadence rounds) so an
		// interrupt can persist the last accepted round off-cadence.
		if ckpt != nil && rs.Graph != nil && rs.Error <= cfg.bound &&
			(!rs.CertRan || rs.Certified) {
			s := &checkpoint.Snapshot{
				Round:   rs.Round,
				Error:   rs.Error,
				Seed:    ropt.Params.Seed,
				HasSeed: ropt.Params.HasSeed,
				Metric:  cfg.metricName,
				Bound:   cfg.bound,
				Method:  cfg.method,
			}
			if reg := rec.Registry(); reg != nil {
				s.Metrics = reg.CounterSnapshot()
			}
			if bundle != nil {
				s.LedgerBytes = bundle.LedgerSize()
			}
			if err := s.SetGraph(rs.Graph); err != nil {
				fmt.Fprintf(os.Stderr, "accals: checkpoint round %d: %v\n", rs.Round, err)
				return
			}
			lastAccepted = s
			if !ckpt.Due(rs.Round) {
				return
			}
			if err := ckpt.Save(s); err != nil {
				fmt.Fprintf(os.Stderr, "accals: checkpoint round %d: %v\n", rs.Round, err)
				return
			}
			lastSaved = rs.Round
		}
	}
	ropt.Progress = progress

	var res *core.Result
	switch cfg.method {
	case "accals":
		res = core.RunCtx(ctx, g, metric, cfg.bound, ropt)
	case "seals":
		res = seals.RunCtx(ctx, g, metric, cfg.bound, ropt)
	}

	// Checkpoint-on-signal: an interrupted run (SIGINT/SIGTERM or
	// -max-runtime) force-saves its last accepted round even between
	// cadence points, so resuming loses no completed work.
	if ckpt != nil && res.StopReason.Interrupted() &&
		lastAccepted != nil && lastAccepted.Round > lastSaved {
		if err := ckpt.Save(lastAccepted); err != nil {
			fmt.Fprintf(os.Stderr, "accals: final checkpoint round %d: %v\n", lastAccepted.Round, err)
		} else {
			fmt.Fprintf(w, "checkpoint: final snapshot at round %d (interrupted off-cadence)\n", lastAccepted.Round)
		}
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

	if cfg.summaryPath != "" || bundle != nil {
		sum := ledger.RunSummary{
			Circuit:        g.Name,
			Method:         cfg.method,
			Metric:         cfg.metricName,
			Bound:          cfg.bound,
			Error:          res.Error,
			InitialAnds:    g.NumAnds(),
			FinalAnds:      res.Final.NumAnds(),
			Rounds:         len(res.Rounds),
			LACsApplied:    res.LACsApplied,
			RuntimeSeconds: res.Runtime.Seconds(),
			StopReason:     res.StopReason.String(),
			IndpWinRate:    res.IndpRatio(),
			Obs:            rec.Summary(),
		}
		if cfg.summaryPath != "" {
			err := writeFile(w, cfg.summaryPath, func(f *os.File) error {
				enc := json.NewEncoder(f)
				enc.SetIndent("", "  ")
				return enc.Encode(sum)
			})
			if err != nil {
				return err
			}
		}
		if bundle != nil {
			if err := bundle.WriteSummary(sum); err != nil {
				return err
			}
		}
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
	// Surface trace- and ledger-sink write failures (ENOSPC, closed
	// pipe) instead of silently shipping a truncated trace or ledger.
	if err := closeObs(); err != nil {
		return err
	}
	if bundle != nil {
		bundleDone = true
		if err := bundle.Close(); err != nil {
			return err
		}
	}
	return nil
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

// prepareResume loads the latest snapshot, checks it belongs to this
// run configuration, and installs it as the warm start.
func prepareResume(cfg *config, g *aig.Graph, ropt *core.Options) (*checkpoint.Snapshot, error) {
	snap, err := checkpoint.Latest(cfg.checkpointDir)
	if err != nil {
		return nil, err
	}
	if snap.Metric != cfg.metricName || snap.Bound != cfg.bound || snap.Method != cfg.method {
		return nil, fmt.Errorf("snapshot in %s is from a different run (metric %s, bound %g, method %s); rerun with matching flags or a fresh -checkpoint dir",
			cfg.checkpointDir, snap.Metric, snap.Bound, snap.Method)
	}
	if cfg.hasSeed && snap.Seed != cfg.seed {
		return nil, fmt.Errorf("snapshot in %s was created with -seed %d, got -seed %d; matching seeds are required for an exact resume",
			cfg.checkpointDir, snap.Seed, cfg.seed)
	}
	sg, err := snap.Graph()
	if err != nil {
		return nil, err
	}
	if sg.NumPIs() != g.NumPIs() || sg.NumPOs() != g.NumPOs() {
		return nil, fmt.Errorf("snapshot circuit has %d PIs / %d POs but the input has %d / %d; wrong -checkpoint dir for this circuit?",
			sg.NumPIs(), sg.NumPOs(), g.NumPIs(), g.NumPOs())
	}
	// Adopt the snapshot's seed so an unseeded resume continues the
	// original trajectory.
	ropt.Params.Seed = snap.Seed
	ropt.Params.HasSeed = snap.HasSeed
	ropt.PatternSeed = snap.Seed
	ropt.HasPatternSeed = snap.HasSeed
	ropt.Start = &core.StartState{Graph: sg, Round: snap.Round + 1}
	return snap, nil
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

func parseMetric(s string) (errmetric.Kind, error) {
	switch strings.ToLower(s) {
	case "er":
		return errmetric.ER, nil
	case "nmed":
		return errmetric.NMED, nil
	case "mred":
		return errmetric.MRED, nil
	case "mhd":
		return errmetric.MHD, nil
	case "maxed":
		return errmetric.MaxED, nil
	}
	return 0, fmt.Errorf("unknown metric %q (want er, nmed, mred, mhd or maxed)", s)
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
