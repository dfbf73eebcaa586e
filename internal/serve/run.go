package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"accals/internal/aig"
	"accals/internal/blif"
	"accals/internal/checkpoint"
	"accals/internal/core"
	"accals/internal/errmetric"
	"accals/internal/obs"
	"accals/internal/runctl"
	"accals/internal/session"
)

// jobSink streams a run's obs ledger events into the job's
// subscriber fanout and keeps the live trajectory fields (round,
// error, size) and the watchdog heartbeat fresh. It implements
// obs.Sink; attaching it makes the flows fill the events' ledger
// columns (area, depth, measured errors), which is exactly what the
// SSE stream serves.
type jobSink struct{ j *job }

func (s *jobSink) RunMeta(mt obs.RunMeta) {
	s.j.publish(Event{Type: EventMeta, Meta: &mt}, false)
}

func (s *jobSink) Round(ev obs.RoundEvent) {
	s.j.mu.Lock()
	s.j.info.Round = ev.Round
	s.j.info.Error = ev.Error
	s.j.info.NumAnds = ev.NumAnds
	s.j.lastBeat = time.Now()
	s.j.mu.Unlock()
	s.j.publish(Event{Type: EventRound, Round: &ev}, false)
}

func (s *jobSink) Finish(f obs.RunFinish) {
	s.j.publish(Event{Type: EventFinish, Finish: &f}, false)
}

// terminalInfo carries the detail journaled with a terminal state
// transition.
type terminalInfo struct {
	stopReason string
	failure    string
	kind       string
	round      int
}

// finishJob performs a terminal transition: journal record first
// (durable), then the in-memory state, then the closing state event
// to subscribers. A journal failure is logged but does not block the
// in-memory transition — the job re-runs after a restart and
// converges to the same result, which loses no work and duplicates
// none.
func (m *Manager) finishJob(j *job, state JobState, ti terminalInfo) {
	now := time.Now()
	j.mu.Lock()
	id := j.info.ID
	tenant := j.info.Spec.Tenant
	round := j.info.Round
	j.mu.Unlock()
	if ti.round > round {
		round = ti.round
	}
	err := m.store.append(journalRec{
		Op: "state", ID: id, State: state,
		Failure: ti.failure, FailureKind: ti.kind,
		StopReason: ti.stopReason, Round: round, At: now,
	})
	if err != nil {
		m.cfg.Log.Warn("terminal journal record lost; job will re-run after restart",
			"job", id, "tenant", tenant, "state", state, "err", err)
	}
	j.mu.Lock()
	j.info.State = state
	j.info.FinishedAt = now
	j.info.StopReason = ti.stopReason
	j.info.Failure = ti.failure
	j.info.FailureKind = ti.kind
	info := j.info
	j.mu.Unlock()
	m.met.jobEvent(tenant, terminalEvent(state))
	m.cfg.Log.Info("job finished",
		"job", id, "tenant", tenant, "state", state, "round", round,
		"stop_reason", ti.stopReason, "failure_kind", ti.kind)
	// The bundle's job.json is the terminal Job snapshot: it ties the
	// ledger/trace artifacts to their admission story (queue wait,
	// tenant, failure detail) so a downloaded bundle is self-describing.
	if m.cfg.Bundles {
		m.writeBundleJob(&info)
	}
	j.publish(Event{Type: EventState, Job: &info}, true)
}

// runJob is one runner goroutine: it executes the job to a terminal
// state (or back to the queue on drain) and then frees its slot.
// Panics cannot escape execute, so a crashing job can never take the
// manager down.
func (m *Manager) runJob(j *job) {
	defer func() {
		m.mu.Lock()
		m.running--
		m.dispatchLocked()
		m.mu.Unlock()
		m.wg.Done()
	}()

	now := time.Now()
	j.mu.Lock()
	id := j.info.ID
	tenant := j.info.Spec.Tenant
	j.info.State = StateRunning
	j.info.StartedAt = now
	j.lastBeat = now
	enqueued := j.enqueuedAt
	info := j.info
	j.mu.Unlock()
	if !enqueued.IsZero() {
		m.met.observeQueueWait(now.Sub(enqueued))
	}
	// The running transition is journaled best-effort: losing it only
	// costs a restart the StartedAt timestamp, not correctness —
	// recovery re-queues on "accepted without terminal record".
	if err := m.store.append(journalRec{Op: "state", ID: id, State: StateRunning, At: now}); err != nil {
		m.cfg.Log.Warn("running journal record lost", "job", id, "tenant", tenant, "err", err)
	}
	m.cfg.Log.Info("job running", "job", id, "tenant", tenant,
		"queue_wait", now.Sub(enqueued).Round(time.Millisecond))
	j.publish(Event{Type: EventState, Job: &info}, false)

	res, runtime, err := m.execute(j)
	m.met.observeRun(runtime)

	j.mu.Lock()
	reason := j.reason
	j.mu.Unlock()

	switch {
	case err != nil:
		kind := "internal"
		switch {
		case errors.Is(err, ErrJobPanicked):
			kind = "panic"
		case errors.Is(err, ErrBadSpec):
			kind = "spec"
		case errors.Is(err, ErrDisk):
			kind = "disk"
		}
		m.cfg.Log.Warn("job failed", "job", id, "tenant", tenant, "kind", kind, "err", err)
		m.finishJob(j, StateFailed, terminalInfo{failure: err.Error(), kind: kind})
	case res.StopReason == runctl.Cancelled && reason == cancelDrain:
		// Graceful shutdown: the run stopped after its current round
		// and execute took a final snapshot. No terminal record — the
		// journal still says running, so the next Open resumes the job
		// from that snapshot. Subscribers see a queued state event and
		// their streams end.
		j.mu.Lock()
		j.info.State = StateQueued
		j.info.StartedAt = time.Time{}
		j.enqueuedAt = time.Now()
		info := j.info
		j.mu.Unlock()
		m.cfg.Log.Info("job re-queued for drain", "job", id, "tenant", tenant, "round", info.Round)
		j.publish(Event{Type: EventState, Job: &info}, true)
	case res.StopReason == runctl.Cancelled && reason == cancelWatchdog:
		m.finishJob(j, StateFailed, terminalInfo{
			failure: fmt.Sprintf("%v: no round completed within %v", ErrJobHung, m.cfg.Watchdog),
			kind:    "hung",
		})
	case res.StopReason == runctl.Cancelled:
		// User cancellation: the best-so-far circuit is still a valid
		// within-bound result and is persisted like a completed one.
		if werr := m.persistResult(j, res, runtime); werr != nil {
			m.finishJob(j, StateFailed, terminalInfo{failure: werr.Error(), kind: "disk"})
			return
		}
		m.finishJob(j, StateCancelled, terminalInfo{stopReason: res.StopReason.String()})
	default:
		if werr := m.persistResult(j, res, runtime); werr != nil {
			m.finishJob(j, StateFailed, terminalInfo{failure: werr.Error(), kind: "disk"})
			return
		}
		m.finishJob(j, StateDone, terminalInfo{stopReason: res.StopReason.String()})
	}
}

// persistResult writes the job's durable result artifact. It must
// succeed before the terminal journal record, so a terminal job's
// result is always readable (the crash-safety ordering invariant).
func (m *Manager) persistResult(j *job, res *core.Result, runtime time.Duration) error {
	j.mu.Lock()
	id := j.info.ID
	resumed := j.info.Resumed
	initial := j.initialAnds
	j.mu.Unlock()
	var sb strings.Builder
	if err := blif.Write(&sb, res.Final); err != nil {
		return fmt.Errorf("%w: encode result BLIF: %v", ErrDisk, err)
	}
	return m.store.writeResult(&JobResult{
		ID:          id,
		BLIF:        sb.String(),
		Error:       res.Error,
		InitialAnds: initial,
		NumAnds:     res.Final.NumAnds(),
		Rounds:      len(res.Rounds),
		LACsApplied: res.LACsApplied,
		StopReason:  res.StopReason.String(),
		RuntimeSec:  runtime.Seconds(),
		Resumed:     resumed,
	})
}

// buildOptions materialises a spec into the circuit, metric and run
// options the synthesis flows take. Shared by the runner and the
// chaos harness's clean-run comparator, so both execute specs
// identically.
func buildOptions(spec JobSpec, defaultWorkers int, defaultDeadline time.Duration) (*aig.Graph, errmetric.Kind, core.Options, error) {
	g, err := spec.graph()
	if err != nil {
		return nil, 0, core.Options{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	metric, err := errmetric.ParseKind(spec.Metric)
	if err != nil {
		return nil, 0, core.Options{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	workers := spec.Workers
	if workers == 0 {
		workers = defaultWorkers
	}
	ropt := core.Options{
		NumPatterns: spec.Patterns,
		Workers:     workers,
		Incremental: true,
		MaxRuntime:  spec.maxRuntime(defaultDeadline),
	}
	if spec.Seed != 0 {
		ropt.Params.Seed = spec.Seed
		ropt.Params.HasSeed = true
		ropt.PatternSeed = spec.Seed
		ropt.HasPatternSeed = true
	}
	if spec.MaxRounds > 0 {
		ropt.Params.MaxRounds = spec.MaxRounds
	}
	return g, metric, ropt, nil
}

// execute runs one job segment: build options, resume from the
// latest valid snapshot if one exists, open the job's bundle, and run
// the flow with checkpointing. The deferred recover converts any
// panic — the flows', the fault injector's, or this package's own —
// into ErrJobPanicked, so the job fails alone.
func (m *Manager) execute(j *job) (res *core.Result, runtime time.Duration, err error) {
	start := time.Now()
	defer func() {
		runtime = time.Since(start)
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: %v", ErrJobPanicked, r)
		}
	}()

	j.mu.Lock()
	spec := j.info.Spec
	id := j.info.ID
	j.mu.Unlock()

	g, metric, ropt, err := buildOptions(spec, m.cfg.DefaultWorkers, m.cfg.DefaultMaxRuntime)
	if err != nil {
		return nil, 0, err
	}
	j.mu.Lock()
	j.info.NumAnds = g.NumAnds()
	j.initialAnds = g.NumAnds()
	j.mu.Unlock()
	ropt.Recorder = obs.NewRecorder()
	ropt.Recorder.AddSink(&jobSink{j: j})
	s := &session.Session{Graph: g, Method: spec.method(), Metric: metric, Bound: spec.Bound, Opt: ropt}

	// Resume from the latest valid snapshot, if any. Corrupt
	// snapshots were already skipped by checkpoint.Latest; a job dir
	// with nothing usable starts from scratch (never an error — the
	// accepted spec is the durable source of truth).
	ckptDir := m.store.ckptDir(id)
	if snap, err := s.Resume(ckptDir); err == nil {
		j.mu.Lock()
		j.info.Resumed = true
		j.info.Round = snap.Round
		j.info.Error = snap.Error
		j.mu.Unlock()
		m.cfg.Log.Info("resuming from checkpoint", "job", id, "tenant", spec.Tenant, "round", snap.Round)
	}

	// Per-job run bundle, rooted in the job's state directory so
	// GET /v1/jobs/{id}/bundle can serve it after the client is gone.
	// Bundle failures are logged and dropped: bundling is
	// observability, the journal is correctness.
	if m.cfg.Bundles {
		command := []string{"accalsd", "job=" + id, "tenant=" + spec.Tenant}
		if berr := s.OpenBundle(m.store.bundleDir(id), command, m.cfg.BundleSlowRound); berr != nil {
			m.cfg.Log.Warn("bundle open failed; running without one", "job", id, "err", berr)
		}
	}
	defer func() {
		// Runs on every exit, including a propagating panic (before the
		// recover above converts it), which closes the bundle without a
		// summary.
		if cerr := s.Close(res); cerr != nil {
			m.cfg.Log.Warn("bundle close failed", "job", id, "err", cerr)
		}
	}()

	ckpt, err := checkpoint.NewWriter(ckptDir, m.cfg.CheckpointEvery)
	if err != nil {
		return nil, 0, err
	}
	s.Checkpoint(ckpt, m.saveSnapshot(id, ckpt), func() { m.met.checkpoint(ckptSkipped, 0) })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel
	pending := j.reason != cancelNone
	j.mu.Unlock()
	if pending {
		cancel() // a Cancel raced the dispatch; stop before round 1
	}

	// Interrupted runs (drain, cancel, watchdog) snapshot their last
	// accepted round even off-cadence, so a drain-then-restart cycle
	// loses no completed work.
	res = s.Run(ctx, func(core.RoundStats) {
		// Fault points: a stalled round for the watchdog to catch,
		// and an in-run panic for the isolation contract.
		m.cfg.Inj.Sleep(ctx, FaultRoundHang)
		m.cfg.Inj.Crash(FaultJobPanic)
	})
	return res, time.Since(start), nil
}

// saveSnapshot returns the job's snapshot writer, which saves through
// the fault points: an injected write error skips the snapshot (the
// run continues — checkpointing is an optimisation, the journal holds
// correctness), and an injected corruption truncates the snapshot
// file on disk like a torn write surviving a crash.
func (m *Manager) saveSnapshot(id string, ckpt *checkpoint.Writer) func(*checkpoint.Snapshot) error {
	return func(s *checkpoint.Snapshot) error {
		if m.store.frozen.Load() {
			return fmt.Errorf("%w: store frozen", ErrDisk)
		}
		err := m.cfg.Inj.Fail(FaultCkptWrite)
		start := time.Now()
		if err == nil {
			err = ckpt.Save(s)
		}
		if err != nil {
			m.met.checkpoint(ckptFailed, 0)
			m.cfg.Log.Warn("checkpoint save failed", "job", id, "round", s.Round, "err", err)
			return err
		}
		m.met.checkpoint(ckptSaved, time.Since(start))
		path := filepath.Join(ckpt.Dir(), fmt.Sprintf("ckpt-%08d.json", s.Round))
		if fi, err := os.Stat(path); err == nil {
			if kept := m.cfg.Inj.Data(FaultCkptCorrupt, make([]byte, fi.Size())); int64(len(kept)) < fi.Size() {
				_ = os.Truncate(path, int64(len(kept)))
			}
		}
		return nil
	}
}

// writeBundleJob drops the terminal Job snapshot into the bundle
// directory as job.json. Best-effort, and only when the bundle exists
// (a job that failed validation before execute never opened one). The
// file is written beside the bundle directory and renamed into it, so
// a concurrent download never reads a partial job.json.
func (m *Manager) writeBundleJob(info *Job) {
	dir := m.store.bundleDir(info.ID)
	if _, err := os.Stat(dir); err != nil {
		return
	}
	body, err := json.MarshalIndent(info, "", "  ")
	if err != nil {
		return
	}
	tmp := filepath.Join(filepath.Dir(dir), BundleJobFile+".tmp")
	err = os.WriteFile(tmp, body, 0o644)
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, BundleJobFile))
	}
	if err != nil {
		m.cfg.Log.Warn("bundle job.json write failed", "job", info.ID, "err", err)
	}
}
