// Package runctl provides the run-control vocabulary shared by every
// synthesis flow: the StopReason enum describing why a run ended, a
// Controller that folds context cancellation, explicit deadlines and
// wall-clock budgets into a single per-round check, and the typed
// sentinel errors the public API reports instead of panicking.
//
// The package deliberately depends only on the standard library so
// that parsers, simulators and flows can all import it without cycles.
package runctl

import (
	"context"
	"errors"
	"time"
)

// StopReason records why a synthesis run stopped.
type StopReason int

const (
	// StopNone means the run has not stopped (zero value).
	StopNone StopReason = iota
	// Bounded: the next candidate circuit exceeded the error bound,
	// the normal AccALS/SEALS termination.
	Bounded
	// MaxRounds: the Params.MaxRounds (or AMOSA iteration) budget was
	// exhausted.
	MaxRounds
	// Stagnated: the flow ran out of candidate changes or made no
	// progress for several consecutive rounds.
	Stagnated
	// Cancelled: the run's context was cancelled; the result holds the
	// best circuit accepted so far.
	Cancelled
	// DeadlineExceeded: the run hit Options.Deadline, Options.MaxRuntime
	// or the context's deadline; the result holds the best circuit
	// accepted so far.
	DeadlineExceeded
	// Failed: the run aborted on a precondition violation discovered
	// mid-flight (for example a warm-start circuit whose interface
	// does not match the pattern set). The result still holds the best
	// circuit accepted so far.
	Failed
	// Uncertified: a round's certification (maximum-error metric)
	// refuted the bound or could not prove it within its conflict
	// budget, so the round was rejected and the run stopped on the
	// last certified circuit. An exhausted budget is never treated as
	// acceptance.
	Uncertified
)

// String returns a stable lower-case name for the reason.
func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case Bounded:
		return "bounded"
	case MaxRounds:
		return "max-rounds"
	case Stagnated:
		return "stagnated"
	case Cancelled:
		return "cancelled"
	case DeadlineExceeded:
		return "deadline-exceeded"
	case Failed:
		return "failed"
	case Uncertified:
		return "uncertified"
	}
	return "unknown"
}

// Interrupted reports whether the run ended early for an external
// reason (cancellation or deadline) rather than by converging.
func (r StopReason) Interrupted() bool {
	return r == Cancelled || r == DeadlineExceeded
}

// Controller folds a context and a relative wall-clock budget into
// one cheap per-round stop check. The zero value never stops.
type Controller struct {
	ctx      context.Context
	deadline time.Time
}

// NewController builds a controller. ctx may be nil (treated as
// context.Background()). maxRuntime, when positive, is a budget
// counted from start. The context's own deadline, if any, is folded
// in as well, so a context.WithDeadline or context.WithTimeout parent
// stops the run with DeadlineExceeded rather than Cancelled.
func NewController(ctx context.Context, maxRuntime time.Duration, start time.Time) Controller {
	if ctx == nil {
		ctx = context.Background()
	}
	var d time.Time
	if maxRuntime > 0 {
		d = start.Add(maxRuntime)
	}
	if cd, ok := ctx.Deadline(); ok && (d.IsZero() || cd.Before(d)) {
		d = cd
	}
	return Controller{ctx: ctx, deadline: d}
}

// Stop reports whether the run should stop now and why. It is intended
// to be called once per round: the cost is a non-blocking channel poll
// and at most one clock read.
func (c Controller) Stop() (StopReason, bool) {
	if c.ctx != nil {
		select {
		case <-c.ctx.Done():
			if errors.Is(c.ctx.Err(), context.DeadlineExceeded) {
				return DeadlineExceeded, true
			}
			return Cancelled, true
		default:
		}
	}
	if !c.deadline.IsZero() && !time.Now().Before(c.deadline) {
		return DeadlineExceeded, true
	}
	return StopNone, false
}

// Err returns the context error corresponding to an interrupted stop
// reason, or nil for the convergent reasons. Useful for callers that
// want an error-shaped signal (e.g. BalanceCtx).
func (r StopReason) Err() error {
	switch r {
	case Cancelled:
		return context.Canceled
	case DeadlineExceeded:
		return context.DeadlineExceeded
	}
	return nil
}
