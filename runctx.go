package accals

import (
	"context"
	"fmt"
	"io"
	"math"

	"accals/internal/aig"
	"accals/internal/amosa"
	"accals/internal/core"
	"accals/internal/errmetric"
	"accals/internal/opt"
	"accals/internal/runctl"
	"accals/internal/seals"
)

// StopReason explains why a synthesis run stopped. A run ends either
// normally — the next change would exceed the bound (StopBounded), the
// round budget ran out (StopMaxRounds), or no further change was found
// (StopStagnated) — or early, through cancellation or a deadline. An
// interrupted run still carries its best-so-far circuit in
// Result.Final.
type StopReason = runctl.StopReason

// StopReason values.
const (
	StopBounded          = runctl.Bounded
	StopMaxRounds        = runctl.MaxRounds
	StopStagnated        = runctl.Stagnated
	StopCancelled        = runctl.Cancelled
	StopDeadlineExceeded = runctl.DeadlineExceeded
	// StopUncertified: a MaxED round's certification refuted the
	// bound or ran out of conflict budget; the run kept the last
	// certified circuit instead of adopting the unproved one.
	StopUncertified = runctl.Uncertified
)

// Sentinel errors returned by the error-reporting API variants. Match
// them with errors.Is.
var (
	// ErrTooManyInputs: the circuit has too many primary inputs for an
	// exhaustive pattern set (at most 20).
	ErrTooManyInputs = runctl.ErrTooManyInputs
	// ErrTooManyOutputs: the circuit has too many primary outputs for
	// a word-level metric (at most 63 for NMED/MRED/MaxED).
	ErrTooManyOutputs = runctl.ErrTooManyOutputs
	// ErrNoOutputs: the circuit has no primary outputs, so no error
	// metric is defined over it.
	ErrNoOutputs = runctl.ErrNoOutputs
	// ErrMalformedInput: a circuit file failed to parse, or a nil or
	// output-less circuit was passed to synthesis.
	ErrMalformedInput = runctl.ErrMalformedInput
	// ErrInterfaceMismatch: two circuits that must share a PI/PO
	// interface do not.
	ErrInterfaceMismatch = runctl.ErrInterfaceMismatch
	// ErrInvalidBound: the error bound is negative or NaN.
	ErrInvalidBound = runctl.ErrInvalidBound
	// ErrInternal: an invariant violation inside the library was
	// caught at the API boundary instead of crashing the caller.
	ErrInternal = runctl.ErrInternal
)

// StartState warm-starts a synthesis run from a checkpointed graph
// (see SynthesizeCtx and internal/checkpoint).
type StartState = core.StartState

// validateRun checks the arguments common to all synthesis entry
// points and returns a typed error for anything a caller could get
// wrong.
func validateRun(orig *Graph, metric Metric, bound float64) error {
	if orig == nil {
		return fmt.Errorf("%w: nil circuit", ErrMalformedInput)
	}
	if math.IsNaN(bound) || bound < 0 {
		return fmt.Errorf("%w: %v", ErrInvalidBound, bound)
	}
	// Validate also rejects output-less circuits (ErrNoOutputs): with
	// zero outputs every comparator would divide by zero and score the
	// whole run NaN.
	return errmetric.Validate(metric, orig)
}

// SynthesizeCtx is Synthesize with cooperative cancellation and input
// validation. The run checks ctx (its cancellation and deadline) and
// Options.MaxRuntime once per round; on cancellation it returns the
// best circuit found so far with Result.StopReason set to
// StopCancelled or StopDeadlineExceeded and a nil error — an
// interrupted run is still a usable result. A non-nil error means the inputs were unusable (see
// the Err* sentinels); no panic escapes this function.
func SynthesizeCtx(ctx context.Context, orig *Graph, metric Metric, bound float64, opt Options) (res *Result, err error) {
	defer runctl.Guard(&err)
	if err := validateRun(orig, metric, bound); err != nil {
		return nil, err
	}
	return core.RunCtx(ctx, orig, metric, bound, opt), nil
}

// SynthesizeSEALSCtx is SynthesizeSEALS with the same cancellation,
// validation, and panic-safety contract as SynthesizeCtx.
func SynthesizeSEALSCtx(ctx context.Context, orig *Graph, metric Metric, bound float64, opt Options) (res *Result, err error) {
	defer runctl.Guard(&err)
	if err := validateRun(orig, metric, bound); err != nil {
		return nil, err
	}
	return seals.RunCtx(ctx, orig, metric, bound, opt), nil
}

// SynthesizeAMOSACtx is SynthesizeAMOSA with the same cancellation,
// validation, and panic-safety contract as SynthesizeCtx. The bound
// checked here is opt.ErrBound (the archive's error ceiling).
func SynthesizeAMOSACtx(ctx context.Context, orig *Graph, metric Metric, opt AMOSAOptions) (res *AMOSAResult, err error) {
	defer runctl.Guard(&err)
	if err := validateRun(orig, metric, opt.ErrBound); err != nil {
		return nil, err
	}
	return amosa.RunCtx(ctx, orig, metric, opt), nil
}

// BalanceCtx is Balance with cooperative cancellation for very large
// graphs; it returns ctx.Err() when interrupted.
func BalanceCtx(ctx context.Context, g *Graph) (*Graph, error) {
	return opt.BalanceCtx(ctx, g)
}

// ErrorChecked is Error with validation instead of panics: it returns
// a typed error when the metric cannot be evaluated on the reference
// (ErrTooManyOutputs for word-level metrics past 63 outputs,
// ErrInterfaceMismatch when the two circuits disagree on PIs/POs).
func ErrorChecked(reference, approx *Graph, metric Metric, numPatterns int, seed int64) (e float64, err error) {
	defer runctl.Guard(&err)
	if reference == nil || approx == nil {
		return 0, fmt.Errorf("%w: nil circuit", ErrMalformedInput)
	}
	o := Options{NumPatterns: numPatterns, PatternSeed: seed, HasPatternSeed: seed != 0}
	cmp, err := errmetric.NewComparatorChecked(metric, reference, o.Patterns(reference))
	if err != nil {
		return 0, err
	}
	return cmp.Error(approx), nil
}

// readGuarded wraps a parser so that no malformed input can panic
// through the public API.
func readGuarded(r io.Reader, read func(io.Reader) (*aig.Graph, error)) (g *Graph, err error) {
	defer runctl.Guard(&err)
	return read(r)
}
