// Package session runs one synthesis for the accals command and the
// accalsd daemon, and is the one home of the protocol around it:
//
//   - Resume loads the latest snapshot, checks that it belongs to the
//     run and the circuit, and installs its circuit, seeds and counters;
//   - OpenBundle creates the run bundle, or reopens it after a resume,
//     and attaches its ledger and its own trace to the recorder;
//   - a Checkpointer snapshots the run's accepted rounds;
//   - Run dispatches to the AccALS or the SEALS flow;
//   - Summary and Close record the outcome in the bundle.
//
// Four rules hold for both callers:
//
//  1. A round is accepted when its error is within the bound and, if
//     certification ran, it was certified. No other round becomes a
//     snapshot, so a resume never adopts a circuit that violates the
//     bound.
//  2. A resumed bundle's ledger is cut to the snapshot's LedgerBytes,
//     and an offset of 0 (a snapshot taken without a bundle) leaves it
//     empty, so re-executed rounds are recorded once.
//  3. Every snapshot carries the recorder's counters when there is a
//     recorder, so a resumed run's counters continue.
//  4. Every bundle carries its own trace.jsonl, holding the phases of
//     the run that opened it.
//
// A snapshot's circuit is BLIF-encoded only when the snapshot is saved,
// not for every accepted round.
package session

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"accals/internal/aig"
	"accals/internal/checkpoint"
	"accals/internal/core"
	"accals/internal/errmetric"
	"accals/internal/ledger"
	"accals/internal/obs"
	"accals/internal/runctl"
	"accals/internal/seals"
)

// Session is one synthesis of Graph under Metric and Bound with Method
// ("accals" or "seals") and the options Opt, whose Recorder may be nil
// unless a bundle is opened. The set-up steps Resume, OpenBundle and
// Checkpoint come before Run, Resume before OpenBundle; Close releases
// what OpenBundle opened.
type Session struct {
	Graph  *aig.Graph
	Method string
	Metric errmetric.Kind
	Bound  float64
	Opt    core.Options

	snap      *checkpoint.Snapshot
	bundle    *ledger.Bundle
	trace     *obs.Tracer
	traceFile *os.File
	ckpt      *Checkpointer
}

// metricName is the metric's name as snapshots, manifests and
// summaries record it: er, nmed, mred, mhd or maxed.
func (s *Session) metricName() string { return strings.ToLower(s.Metric.String()) }

// Resume warm-starts the session from the latest usable snapshot in
// dir. The snapshot must come from a run with the same metric, bound
// and method, and its circuit must have the input circuit's inputs and
// outputs. Resume then installs that circuit as the warm start, adopts
// the snapshot's seeds, so that a run given no seed continues the
// original trajectory, and restores the snapshot's counters into the
// recorder. On error the session is unchanged.
func (s *Session) Resume(dir string) (*checkpoint.Snapshot, error) {
	snap, err := checkpoint.Latest(dir)
	if err != nil {
		return nil, err
	}
	if snap.Metric != s.metricName() || snap.Bound != s.Bound || snap.Method != s.Method {
		return nil, fmt.Errorf("snapshot in %s is from a different run (metric %s, bound %g, method %s); resume with matching settings or from a fresh checkpoint directory",
			dir, snap.Metric, snap.Bound, snap.Method)
	}
	sg, err := snap.Graph()
	if err != nil {
		return nil, err
	}
	if sg.NumPIs() != s.Graph.NumPIs() || sg.NumPOs() != s.Graph.NumPOs() {
		return nil, fmt.Errorf("snapshot circuit has %d PIs / %d POs but the input has %d / %d; wrong checkpoint directory for this circuit?",
			sg.NumPIs(), sg.NumPOs(), s.Graph.NumPIs(), s.Graph.NumPOs())
	}
	s.Opt.Params.Seed, s.Opt.Params.HasSeed = snap.Seed, snap.HasSeed
	s.Opt.PatternSeed, s.Opt.HasPatternSeed = snap.Seed, snap.HasSeed
	s.Opt.Start = &core.StartState{Graph: sg, Round: snap.Round + 1}
	if reg := s.Opt.Recorder.Registry(); reg != nil && snap.Metrics != nil {
		reg.RestoreCounters(snap.Metrics)
	}
	s.snap = snap
	return snap, nil
}

// OpenBundle opens the run bundle in dir, writes its manifest and
// attaches its ledger and its own trace.jsonl to the recorder. A fresh
// session creates the bundle. A resumed one reopens it with the ledger
// cut to the snapshot's LedgerBytes, so the rounds the resume
// re-executes are recorded once; an offset of 0 leaves an empty ledger.
// The trace is rewritten and holds this run's phases only. command is
// the manifest's argument vector, and slowRound arms the bundle's
// profile capture (0 disables it). On error nothing stays open or
// attached.
func (s *Session) OpenBundle(dir string, command []string, slowRound time.Duration) error {
	var b *ledger.Bundle
	var err error
	if s.snap != nil {
		b, err = ledger.Resume(dir, s.snap.LedgerBytes)
	} else {
		b, err = ledger.Create(dir)
	}
	if err != nil {
		return err
	}
	rec := s.Opt.Recorder
	m := ledger.Manifest{
		CreatedAt:   time.Now(),
		Command:     command,
		Circuit:     s.Graph.Name,
		Method:      s.Method,
		Metric:      s.metricName(),
		Bound:       s.Bound,
		Seed:        s.Opt.Params.Seed,
		Patterns:    s.Opt.NumPatterns,
		Workers:     s.Opt.Workers,
		Incremental: s.Opt.Incremental,
		TraceID:     rec.TraceID(),
		Resumed:     s.snap != nil,
	}
	m.FillEnvironment()
	if err := b.WriteManifest(m); err != nil {
		b.Close()
		return err
	}
	tf, err := os.Create(b.Path(ledger.TraceFile))
	if err != nil {
		b.Close()
		return err
	}
	b.SetSlowRoundThreshold(slowRound)
	s.bundle, s.traceFile, s.trace = b, tf, obs.NewTracer(tf, obs.TraceJSONL)
	rec.AddSink(b.Writer())
	rec.AddTracer(s.trace)
	return nil
}

// A Checkpointer snapshots a session's accepted rounds: every round due
// on the writer's cadence, and the newest accepted round of a run that
// stops interrupted, unless it is on disk already. It keeps the newest
// accepted round's circuit and encodes it as BLIF only to save it.
type Checkpointer struct {
	s    *Session
	w    *checkpoint.Writer
	save func(*checkpoint.Snapshot) error
	skip func()

	last  *checkpoint.Snapshot // newest accepted round
	graph *aig.Graph           // its circuit
	saved int                  // newest round on disk, -1 for none
	final int                  // round saved after an interrupt, -1 for none
}

// Checkpoint snapshots the session's accepted rounds on w's cadence.
// save writes one snapshot, w.Save or a caller's wrapper around it
// with its own fault points, metrics and logs; skip, when non-nil,
// hears of every accepted round that is not saved, because the cadence
// skips it or because it is on disk already.
func (s *Session) Checkpoint(w *checkpoint.Writer, save func(*checkpoint.Snapshot) error, skip func()) *Checkpointer {
	if skip == nil {
		skip = func() {}
	}
	s.ckpt = &Checkpointer{s: s, w: w, save: save, skip: skip, saved: -1, final: -1}
	return s.ckpt
}

// Final reports the round that the run saved after it stopped
// interrupted, when the cadence had not saved it. A nil Checkpointer
// saved none.
func (c *Checkpointer) Final() (round int, ok bool) {
	if c == nil {
		return -1, false
	}
	return c.final, c.final >= 0
}

// round offers one completed round. A round over the bound is rejected
// at the top of the next one, and a MaxED round whose certification
// failed has passed only on the sampled patterns, a lower bound on its
// true worst case: neither is accepted. The counters and the ledger
// offset are taken now, since later rounds move them.
func (c *Checkpointer) round(rs core.RoundStats) {
	if rs.Error > c.s.Bound || (rs.CertRan && !rs.Certified) {
		return
	}
	c.last = &checkpoint.Snapshot{
		Round:   rs.Round,
		Error:   rs.Error,
		Seed:    c.s.Opt.Params.Seed,
		HasSeed: c.s.Opt.Params.HasSeed,
		Metric:  c.s.metricName(),
		Bound:   c.s.Bound,
		Method:  c.s.Method,
	}
	if reg := c.s.Opt.Recorder.Registry(); reg != nil {
		c.last.Metrics = reg.CounterSnapshot()
	}
	if c.s.bundle != nil {
		c.last.LedgerBytes = c.s.bundle.LedgerSize()
	}
	c.graph = rs.Graph
	if c.w.Due(rs.Round) {
		c.saveLast()
	} else {
		c.skip()
	}
}

// stop saves the newest accepted round of an interrupted run.
func (c *Checkpointer) stop(reason runctl.StopReason) {
	if reason.Interrupted() && c.last != nil && c.saveLast() {
		c.final = c.last.Round
	}
}

// saveLast encodes and saves the newest accepted round unless it is on
// disk already, and reports whether it saved it.
func (c *Checkpointer) saveLast() bool {
	if c.last.Round <= c.saved {
		c.skip()
		return false
	}
	if c.last.SetGraph(c.graph) != nil || c.save(c.last) != nil {
		return false
	}
	c.saved = c.last.Round
	return true
}

// Run synthesises the session's circuit under ctx with its method.
// onRound, when non-nil, sees every completed round first, then the
// bundle's slow-round trigger and the checkpointer do. With none of
// the three, no round's circuit is copied out of the run. An
// interrupted run's newest accepted round is saved before Run returns.
func (s *Session) Run(ctx context.Context, onRound func(core.RoundStats)) *core.Result {
	opt := s.Opt
	if onRound != nil || s.bundle != nil || s.ckpt != nil {
		opt.Progress = func(rs core.RoundStats) {
			if onRound != nil {
				onRound(rs)
			}
			if s.bundle != nil {
				s.bundle.ObserveRound(rs.Round, rs.RoundDuration)
			}
			if s.ckpt != nil {
				s.ckpt.round(rs)
			}
		}
	}
	var res *core.Result
	if s.Method == "seals" {
		res = seals.RunCtx(ctx, s.Graph, s.Metric, s.Bound, opt)
	} else {
		res = core.RunCtx(ctx, s.Graph, s.Metric, s.Bound, opt)
	}
	if s.ckpt != nil {
		s.ckpt.stop(res.StopReason)
	}
	return res
}

// Summary is the run summary of res: its headline numbers and the
// recorder's aggregate.
func (s *Session) Summary(res *core.Result) ledger.RunSummary {
	return ledger.RunSummary{
		Circuit:        s.Graph.Name,
		Method:         s.Method,
		Metric:         s.metricName(),
		Bound:          s.Bound,
		Error:          res.Error,
		InitialAnds:    s.Graph.NumAnds(),
		FinalAnds:      res.Final.NumAnds(),
		Rounds:         len(res.Rounds),
		LACsApplied:    res.LACsApplied,
		RuntimeSeconds: res.Runtime.Seconds(),
		StopReason:     res.StopReason.String(),
		IndpWinRate:    res.IndpRatio(),
		Certified:      res.Certified,
		CertConflicts:  res.CertConflicts,
		Obs:            s.Opt.Recorder.Summary(),
	}
}

// Close writes the summary of res into the bundle, unless res is nil
// (a run that never returned), then closes the bundle's trace and the
// bundle. It reports every error; a second call does nothing.
func (s *Session) Close(res *core.Result) error {
	b := s.bundle
	if b == nil {
		return nil
	}
	s.bundle = nil
	var err error
	if res != nil {
		err = b.WriteSummary(s.Summary(res))
	}
	return errors.Join(err, s.trace.Close(), s.traceFile.Close(), b.Close())
}
