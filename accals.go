// Package accals is the public API of the AccALS library, a Go
// implementation of "AccALS: Accelerating Approximate Logic Synthesis
// by Selection of Multiple Local Approximate Changes" (DAC 2023).
//
// The library synthesises approximate combinational circuits: given a
// circuit and a statistical error bound (error rate, normalised mean
// error distance, or mean relative error distance), it iteratively
// applies local approximate changes (LACs) that shrink the circuit
// while keeping the measured error within the bound. The AccALS flow
// selects multiple mutually independent LACs per round, which is what
// makes it fast; the SEALS-style single-selection flow and an
// AMOSA-style evolutionary optimiser are provided as baselines.
//
// # Quick start
//
//	g, _ := accals.Benchmark("mtp8")            // an 8x8 multiplier
//	res := accals.Synthesize(g, accals.NMED, 0.002, accals.Options{})
//	fmt.Println(res.Final.NumAnds(), "AND nodes, error", res.Error)
//
// Circuits can also be built directly with the Graph API (see New) or
// read from BLIF files (see ReadBLIF). Mapped area and delay against
// an MCNC-style standard-cell library are available through
// AreaDelay.
//
// # Run control
//
// Long runs are controllable: SynthesizeCtx (and the SEALS/AMOSA
// variants) accept a context.Context, whose deadline bounds the run,
// plus Options.MaxRuntime, check them once per round, and on
// interruption return the best circuit found so far with
// Result.StopReason set to StopCancelled or StopDeadlineExceeded. The Ctx variants also
// validate their inputs up front and convert internal panics into
// typed errors (ErrTooManyInputs, ErrTooManyOutputs, ErrInvalidBound,
// ...), so they never panic on bad input. Runs can be checkpointed and
// resumed through Options.Progress and Options.Start; the accals
// command wires this up behind -checkpoint/-resume.
//
// # Observability
//
// Attaching a Recorder (Options.Recorder) instruments a run with phase
// spans, metrics and a live status snapshot. Adding a ledger sink
// (NewLedgerWriter + Recorder.AddSink) additionally records every
// per-round selection decision as a versioned JSONL stream that can be
// decoded (DecodeLedger), analysed (AnalyzeLedger) or diffed offline;
// the accals command's -bundle flag wraps the ledger, manifest,
// summary and auto-captured profiles into a run-bundle directory for
// the cmd/report tool. A nil Recorder keeps all of this at near-zero
// cost.
package accals

import (
	"io"

	"accals/internal/aig"
	"accals/internal/aiger"
	"accals/internal/amosa"
	"accals/internal/blif"
	"accals/internal/cec"
	"accals/internal/circuits"
	"accals/internal/core"
	"accals/internal/errmetric"
	"accals/internal/ledger"
	"accals/internal/mapping"
	"accals/internal/maxerr"
	"accals/internal/obs"
	"accals/internal/opt"
	"accals/internal/seals"
)

// Graph is a combinational circuit represented as a structurally
// hashed AND-inverter graph. Build one with New, Benchmark or
// ReadBLIF.
type Graph = aig.Graph

// Lit is an AIG edge literal (node id plus complement flag).
type Lit = aig.Lit

// Constant literals.
const (
	ConstFalse = aig.ConstFalse
	ConstTrue  = aig.ConstTrue
)

// New returns an empty circuit with the given name.
func New(name string) *Graph { return aig.New(name) }

// Metric is a statistical error metric.
type Metric = errmetric.Kind

// Supported metrics: error rate, normalised mean error distance, mean
// relative error distance, mean Hamming distance, and maximum error
// distance. MaxED is the one non-statistical metric: its bound is an
// absolute integer error distance, and every circuit a MaxED run
// adopts carries a SAT proof that the bound holds on all inputs (see
// CertifyMaxError).
const (
	ER    = errmetric.ER
	NMED  = errmetric.NMED
	MRED  = errmetric.MRED
	MHD   = errmetric.MHD
	MaxED = errmetric.MaxED
)

// Options configures a synthesis run. The zero value uses the paper's
// parameters scaled by circuit size.
type Options = core.Options

// Params are the AccALS hyper-parameters (Section II of the paper).
type Params = core.Params

// Result is the outcome of a synthesis run.
type Result = core.Result

// RoundStats records one synthesis round.
type RoundStats = core.RoundStats

// Synthesize runs the AccALS multi-LAC flow: it returns an
// approximate version of orig whose error under the metric does not
// exceed bound (as measured on the evaluation pattern set).
func Synthesize(orig *Graph, metric Metric, bound float64, opt Options) *Result {
	return core.Run(orig, metric, bound, opt)
}

// SynthesizeSEALS runs the single-selection baseline flow (one LAC
// per round, as in SEALS, DAC 2022). It produces comparable quality
// to Synthesize but needs many more rounds.
func SynthesizeSEALS(orig *Graph, metric Metric, bound float64, opt Options) *Result {
	return seals.Run(orig, metric, bound, opt)
}

// AMOSAOptions configures the evolutionary baseline.
type AMOSAOptions = amosa.Options

// AMOSAResult is the archive returned by the evolutionary baseline.
type AMOSAResult = amosa.Result

// AMOSAIterStats is the per-iteration snapshot passed to
// AMOSAOptions.Progress.
type AMOSAIterStats = amosa.IterStats

// SynthesizeAMOSA runs the archived multi-objective simulated
// annealing baseline, returning a Pareto archive of (error, area)
// trade-offs rather than a single circuit.
func SynthesizeAMOSA(orig *Graph, metric Metric, opt AMOSAOptions) *AMOSAResult {
	return amosa.Run(orig, metric, opt)
}

// Benchmark builds one of the built-in benchmark circuits (adders,
// multipliers, dividers, ALUs, ISCAS/LGSynt91 stand-ins, ...). See
// BenchmarkNames for the list.
func Benchmark(name string) (*Graph, error) { return circuits.ByName(name) }

// BenchmarkNames lists the built-in benchmark circuits.
func BenchmarkNames() []string { return circuits.Names() }

// ReadBLIF parses a combinational BLIF model. It never panics on
// malformed input: parse failures are reported as errors wrapping
// ErrMalformedInput.
func ReadBLIF(r io.Reader) (*Graph, error) { return readGuarded(r, blif.Read) }

// WriteBLIF emits a circuit as a BLIF model.
func WriteBLIF(w io.Writer, g *Graph) error { return blif.Write(w, g) }

// AreaDelay maps the circuit onto the built-in MCNC-style cell
// library and returns its area and critical-path delay, both
// normalised to the inverter.
func AreaDelay(g *Graph) (area, delay float64) { return mapping.AreaDelay(g) }

// Netlist is a mapped gate-level netlist (see MapToCells).
type Netlist = mapping.Netlist

// MapToCells maps the circuit onto the built-in cell library and
// returns the gate-level netlist, which can be written as structural
// Verilog with its WriteVerilog method.
func MapToCells(g *Graph) *Netlist {
	_, nl := mapping.MapNetlist(g, mapping.MCNC())
	return nl
}

// Balance rebuilds single-fanout AND chains as balanced trees,
// reducing circuit depth without changing the function — a light
// stand-in for ABC's preprocessing, useful before synthesis.
func Balance(g *Graph) *Graph { return opt.Balance(g) }

// ReadAIGER parses a combinational AIGER file (ASCII or binary). It
// never panics on malformed input: parse failures are reported as
// errors wrapping ErrMalformedInput.
func ReadAIGER(r io.Reader) (*Graph, error) { return readGuarded(r, aiger.Read) }

// WriteAIGER emits the circuit in binary AIGER format.
func WriteAIGER(w io.Writer, g *Graph) error { return aiger.WriteBinary(w, g) }

// WriteAIGERASCII emits the circuit in ASCII AIGER (aag) format.
func WriteAIGERASCII(w io.Writer, g *Graph) error { return aiger.WriteASCII(w, g) }

// Recorder collects a synthesis run's instrumentation: per-phase
// spans, Prometheus-style metrics and a live status snapshot. Attach
// one via Options.Recorder (or AMOSAOptions.Recorder); a nil Recorder
// disables observability at near-zero cost. See the internal obs
// package and the accals command's -trace/-metrics-addr flags.
type Recorder = obs.Recorder

// NewRecorder returns a live Recorder with the standard synthesis
// metric series pre-registered.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// Tracer is a span sink for a Recorder (JSONL or Chrome trace_event
// format); attach one with Recorder.AddTracer.
type Tracer = obs.Tracer

// TraceFormat selects a Tracer's output encoding.
type TraceFormat = obs.TraceFormat

// Trace output encodings: newline-delimited JSON events, or a Chrome
// trace_event array loadable in chrome://tracing and Perfetto.
const (
	TraceJSONL  = obs.TraceJSONL
	TraceChrome = obs.TraceChrome
)

// NewTracer writes one trace event per finished span to w in the
// given format. Call Close (or Recorder.Finish) to flush.
func NewTracer(w io.Writer, format TraceFormat) *Tracer { return obs.NewTracer(w, format) }

// RunSummary aggregates a Recorder's metrics at end of run: per-phase
// time breakdown, guard activation counts and duel win rates.
type RunSummary = obs.Summary

// Sink receives a run's ledger events (run metadata, one event per
// round, and the final outcome) from a Recorder. Attach one with
// Recorder.AddSink; NewLedgerWriter provides the standard JSONL sink.
type Sink = obs.Sink

// RunMeta is the ledger's opening event: the run's configuration and
// the circuit's initial size.
type RunMeta = obs.RunMeta

// RoundEvent is the ledger record of one synthesis round: every
// selection-pipeline decision (top set, conflict graph, mutual
// influence, MIS, duel), the applied LACs with estimated and measured
// errors, guard activations, and the size/area/depth trajectory.
type RoundEvent = obs.RoundEvent

// AppliedLAC is one applied local approximate change inside a
// RoundEvent.
type AppliedLAC = obs.AppliedLAC

// RunFinish is the ledger's closing event: stop reason and final
// error/size.
type RunFinish = obs.RunFinish

// LedgerWriter encodes ledger events as versioned JSONL (one JSON
// object per line). It implements Sink.
type LedgerWriter = ledger.Writer

// NewLedgerWriter returns a ledger sink writing to w. Attach it with
// Recorder.AddSink to turn a run into a persistent decision stream:
//
//	rec := accals.NewRecorder()
//	var buf bytes.Buffer
//	rec.AddSink(accals.NewLedgerWriter(&buf))
//	res := accals.Synthesize(g, accals.ER, 0.05, accals.Options{Recorder: rec})
func NewLedgerWriter(w io.Writer) *LedgerWriter { return ledger.NewWriter(w) }

// LedgerEvent is one decoded ledger line.
type LedgerEvent = ledger.Event

// DecodeLedger reads a complete ledger stream back into events. It
// rejects ledgers written under an incompatible major schema version
// and tolerates a torn trailing line from a crashed writer.
func DecodeLedger(r io.Reader) ([]LedgerEvent, error) { return ledger.Decode(r) }

// Trajectory is a decoded ledger reassembled into run order, with
// derived analyses: the Fig. 4 L_indp ratio, duel tallies, estimator
// accuracy and guard counts. The cmd/report tool prints the same
// analyses offline.
type Trajectory = ledger.Trajectory

// AnalyzeLedger reassembles decoded ledger events into a Trajectory.
func AnalyzeLedger(events []LedgerEvent) (*Trajectory, error) { return ledger.Analyze(events) }

// Bundle manages a run-bundle directory: the ledger, a config and
// environment manifest, the end-of-run summary, and auto-captured
// profiles on slow rounds. The accals command writes one per run
// behind -bundle; cmd/report analyses and diffs them.
type Bundle = ledger.Bundle

// CreateBundle initialises dir as a fresh run bundle.
func CreateBundle(dir string) (*Bundle, error) { return ledger.Create(dir) }

// ResumeBundle reopens dir's ledger in append mode, truncating it to
// truncateTo bytes first (pass -1 to append without truncating). This
// is how a checkpoint resume discards ledger lines from rounds it will
// re-execute.
func ResumeBundle(dir string, truncateTo int64) (*Bundle, error) {
	return ledger.Resume(dir, truncateTo)
}

// EquivalenceResult reports a formal equivalence check.
type EquivalenceResult = cec.Result

// Equivalent proves or refutes functional equivalence of two circuits
// with the built-in SAT-based combinational equivalence checker.
// budget caps solver conflicts (0 = unlimited); when the budget runs
// out the result's Proved field is false.
func Equivalent(a, b *Graph, budget int64) (*EquivalenceResult, error) {
	return cec.Check(a, b, budget)
}

// ErrorCertificate is the verdict of a worst-case error check (see
// CertifyMaxError).
type ErrorCertificate = maxerr.Certificate

// CertifyMaxError proves or refutes that the approximate circuit's
// error distance |approx - exact| stays within bound on every input —
// not just on sampled patterns. Circuits with at most 16 inputs are
// decided by simulating every input assignment, which always reaches
// a verdict and spends no conflicts. Wider circuits are decided by
// SAT, and there Certified and Exceeded are both false when the
// conflict budget (0 = unlimited) ran out: budget exhaustion is never
// acceptance. This is the certifier a MaxED synthesis run applies to
// every round it accepts.
func CertifyMaxError(approx, exact *Graph, bound uint64, budget int64) (*ErrorCertificate, error) {
	return maxerr.Certify(approx, exact, bound, budget)
}

// Error measures the error of an approximate circuit against a
// reference under the given metric. The pattern set is exhaustive
// when the full input space fits within numPatterns (and the circuit
// has at most 16 inputs); otherwise numPatterns seeded Monte-Carlo
// samples are used.
func Error(reference, approx *Graph, metric Metric, numPatterns int, seed int64) float64 {
	opt := Options{NumPatterns: numPatterns, PatternSeed: seed}
	cmp := errmetric.NewComparator(metric, reference, opt.Patterns(reference))
	return cmp.Error(approx)
}
