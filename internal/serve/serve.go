// Package serve turns the AccALS library into a crash-safe,
// multi-tenant synthesis service. A Manager accepts concurrent jobs
// behind admission control (bounded queue, per-tenant quotas),
// multiplexes them over a bounded set of runner goroutines, streams
// per-round progress from the obs ledger event vocabulary, enforces
// per-job deadlines through the runctl layer, and isolates panics so
// a crashing job fails alone with a typed error instead of taking the
// process down.
//
// Every lifecycle step is durable: job acceptance and state
// transitions go through an fsync'd journal, running jobs resume,
// checkpoint and record bundles through internal/session (the accals
// command's code path), and Open's recovery replays the
// journal to re-queue every non-terminal job, resuming each from its
// latest valid snapshot — byte-identically, because the synthesis
// trajectory is deterministic from (snapshot, seed). Graceful
// shutdown (Close) drains running rounds, snapshots the rest, and
// leaks no goroutines; Kill emulates a process crash for the fault
// harness. The internal/faultinject points wired through the store
// and runner make the failure behaviour testable (see chaos_test.go).
//
// cmd/accalsd exposes the Manager over HTTP/JSON + SSE (see http.go).
package serve

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"accals/internal/faultinject"
	"accals/internal/obs"
)

// Config parameterises a Manager. The zero value serves from the
// current directory with conservative defaults.
type Config struct {
	// Dir is the durable state directory (journal, per-job
	// checkpoints and results). Defaults to ".".
	Dir string
	// MaxRunning bounds concurrently executing jobs. Default 2.
	MaxRunning int
	// MaxQueue bounds jobs waiting behind the running set; Submit
	// past it fails with ErrQueueFull. Default 256.
	MaxQueue int
	// TenantQuota bounds one tenant's queued+running jobs; 0 means
	// unlimited.
	TenantQuota int
	// CheckpointEvery is the per-job snapshot cadence in rounds.
	// Default 10.
	CheckpointEvery int
	// DefaultMaxRuntime is the per-job deadline applied when a spec
	// does not set its own; 0 means none.
	DefaultMaxRuntime time.Duration
	// Watchdog, when positive, fails a running job (ErrJobHung) if no
	// synthesis round completes within the interval. It should
	// comfortably exceed the slowest expected round.
	Watchdog time.Duration
	// DefaultWorkers is the evaluation worker count for jobs that do
	// not set one. Default 1, so N concurrent jobs use ~N cores
	// rather than N×NumCPU.
	DefaultWorkers int
	// Inj, when non-nil, arms the fault-injection points (see the
	// Fault* constants). Production leaves it nil.
	Inj *faultinject.Injector
	// Metrics, when non-nil, receives the daemon's service-level
	// Prometheus series (queue depth, admission rejections, journal
	// latency, per-tenant job counters, SSE fanout health, ...). Nil
	// disables service metrics at provably zero cost: every
	// instrumentation point is one nil check.
	Metrics *obs.Registry
	// Bundles, when set, makes every job write a run bundle (round
	// ledger, manifest, phase trace, summary, profiles on slow rounds)
	// under its state directory — the downloadable flight-recorder
	// artifact served at /v1/jobs/{id}/bundle. Off by default because
	// ledgering buys per-round measurement work.
	Bundles bool
	// BundleSlowRound arms per-job profile capture: the first round of
	// a job that takes at least this long triggers CPU/heap profiles
	// into its bundle. Zero disables. Only meaningful with Bundles.
	BundleSlowRound time.Duration
	// Log, when non-nil, receives structured operational log records
	// (job lifecycle, recovery, watchdog) tagged with job/tenant/state
	// attributes. Nil discards them.
	Log *slog.Logger
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Dir == "" {
		c.Dir = "."
	}
	if c.MaxRunning <= 0 {
		c.MaxRunning = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 10
	}
	if c.DefaultWorkers <= 0 {
		c.DefaultWorkers = 1
	}
	if c.Log == nil {
		c.Log = slog.New(nopHandler{})
	}
	return c
}

// nopHandler is the discard slog handler behind an unset Config.Log:
// Enabled is false, so call sites skip attribute evaluation.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

// job is the runtime state behind one Job snapshot.
type job struct {
	mu   sync.Mutex
	info Job
	// cancel interrupts the running synthesis; reason records who
	// asked (cancelUser, cancelDrain, cancelWatchdog) so the runner
	// picks the right terminal state.
	cancel context.CancelFunc
	reason cancelReason
	// lastBeat is the watchdog heartbeat: the time the job last made
	// observable progress. Guarded by mu.
	lastBeat time.Time
	// initialAnds is the input circuit's AND count, which the job's
	// result reports; info.NumAnds follows the run's rounds. Set by
	// execute, guarded by mu.
	initialAnds int
	// enqueuedAt is when the job last entered the queue (submission,
	// recovery, or the drain back-edge); the dispatch latency between
	// it and runJob feeds the queue-wait histogram. Guarded by mu.
	enqueuedAt time.Time
	// events is the replay buffer for late subscribers; subs the live
	// fanout. Guarded by mu.
	events []Event
	subs   []*subscriber
	// met is the owning Manager's service metrics (nil when metrics
	// are off); the fanout counts published events and drops on it.
	met *metrics
}

type cancelReason int

const (
	cancelNone cancelReason = iota
	cancelUser
	cancelDrain
	cancelWatchdog
)

// subscriber is one progress-stream consumer. A consumer that stops
// draining its channel is dropped (the channel is closed); it can
// re-subscribe and replay.
type subscriber struct {
	ch     chan Event
	closed bool
}

// Manager is the synthesis service: a bounded job queue, a bounded
// runner pool, a durable journal, and the recovery logic that ties
// them together. All methods are safe for concurrent use.
type Manager struct {
	cfg   Config
	store *store
	met   *metrics
	start time.Time

	mu       sync.Mutex
	jobs     map[string]*job
	queue    []*job // FIFO of StateQueued jobs
	running  int
	nextID   int
	draining bool
	killed   bool
	// pending counts submissions whose fsync'd journal append is in
	// flight outside m.mu; pendingTenant is the same per tenant. Both
	// keep the queue bound and quotas exact while the disk is slow.
	pending       int
	pendingTenant map[string]int

	wg           sync.WaitGroup // runner goroutines
	watchdogOnce sync.Once
	watchdogStop chan struct{}
	watchdogDone chan struct{}
}

// Open starts a Manager over cfg.Dir, first recovering any journaled
// state from a previous process: terminal jobs become queryable
// history, and every accepted-but-unfinished job is re-queued to
// resume from its latest valid checkpoint snapshot.
func Open(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	met := newMetrics(cfg.Metrics)
	st, err := openStore(cfg.Dir, cfg.Inj, met)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:           cfg,
		store:         st,
		met:           met,
		start:         time.Now(),
		jobs:          make(map[string]*job),
		pendingTenant: make(map[string]int),
	}
	if err := m.recover(); err != nil {
		st.close()
		return nil, err
	}
	if cfg.Watchdog > 0 {
		m.watchdogStop = make(chan struct{})
		m.watchdogDone = make(chan struct{})
		go m.watchdog()
	}
	return m, nil
}

// recover replays the journal, rebuilds job state, and re-queues
// non-terminal jobs in their original submission order.
func (m *Manager) recover() error {
	recs, err := m.store.replay()
	if err != nil {
		return err
	}
	var order []string
	for _, rec := range recs {
		switch rec.Op {
		case "accept":
			if rec.Spec == nil || rec.ID == "" {
				continue
			}
			if _, dup := m.jobs[rec.ID]; dup {
				continue // replayed accept can never duplicate a job
			}
			m.jobs[rec.ID] = &job{met: m.met, info: Job{
				ID:          rec.ID,
				State:       StateQueued,
				Spec:        *rec.Spec,
				SubmittedAt: rec.At,
			}}
			order = append(order, rec.ID)
			if n, err := strconv.Atoi(strings.TrimPrefix(rec.ID, "j-")); err == nil && n >= m.nextID {
				m.nextID = n + 1
			}
		case "state":
			j := m.jobs[rec.ID]
			if j == nil {
				continue
			}
			j.info.State = rec.State
			j.info.Failure = rec.Failure
			j.info.FailureKind = rec.FailureKind
			j.info.StopReason = rec.StopReason
			if rec.Round > j.info.Round {
				j.info.Round = rec.Round
			}
			if rec.State == StateRunning {
				j.info.StartedAt = rec.At
			}
			if rec.State.Terminal() {
				j.info.FinishedAt = rec.At
			}
		}
	}
	requeued := 0
	now := time.Now()
	for _, id := range order {
		j := m.jobs[id]
		if j.info.State.Terminal() {
			continue
		}
		// Interrupted mid-run or never started: back to the queue,
		// marked recovered. The runner resumes from the latest valid
		// snapshot if one exists.
		j.info.State = StateQueued
		j.info.Recovered = true
		j.info.StartedAt = time.Time{}
		j.enqueuedAt = now
		m.queue = append(m.queue, j)
		m.met.jobEvent(j.info.Spec.Tenant, jobRecovered)
		requeued++
	}
	if requeued > 0 {
		m.cfg.Log.Info("recovered interrupted jobs",
			"requeued", requeued, "journaled", len(order))
	}
	m.mu.Lock()
	m.met.setQueue(len(m.queue)+m.pending, m.running)
	m.dispatchLocked()
	m.mu.Unlock()
	return nil
}

// Submit validates and accepts a job. The job exists once the journal
// append is durable; any failure before that leaves no trace. The
// returned snapshot is the accepted job in its initial state.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		m.met.reject(rejectBadSpec)
		return nil, err
	}
	m.mu.Lock()
	if m.draining || m.killed {
		m.mu.Unlock()
		m.met.reject(rejectDraining)
		return nil, ErrDraining
	}
	if queued := len(m.queue) + m.pending; queued >= m.cfg.MaxQueue {
		m.mu.Unlock()
		m.met.reject(rejectQueueFull)
		return nil, fmt.Errorf("%w: %d job(s) queued", ErrQueueFull, queued)
	}
	if q := m.cfg.TenantQuota; q > 0 {
		active := m.pendingTenant[spec.Tenant]
		for _, j := range m.jobs {
			j.mu.Lock()
			if !j.info.State.Terminal() && j.info.Spec.Tenant == spec.Tenant {
				active++
			}
			j.mu.Unlock()
		}
		if active >= q {
			m.mu.Unlock()
			m.met.reject(rejectQuota)
			return nil, fmt.Errorf("%w: tenant %q has %d active job(s)", ErrQuotaExceeded, spec.Tenant, active)
		}
	}
	id := fmt.Sprintf("j-%06d", m.nextID)
	m.nextID++
	m.pending++
	m.pendingTenant[spec.Tenant]++
	m.met.setQueue(len(m.queue)+m.pending, m.running)
	m.mu.Unlock()

	// The fsync'd append runs outside m.mu so disk-sync latency stalls
	// only this submission, never Get/List/Stats/Cancel or dispatch;
	// the reserved ID and pending counts hold its admission slot open.
	now := time.Now()
	err := m.store.append(journalRec{Op: "accept", ID: id, Spec: &spec, At: now})

	m.mu.Lock()
	defer m.mu.Unlock()
	m.pending--
	if m.pendingTenant[spec.Tenant]--; m.pendingTenant[spec.Tenant] <= 0 {
		delete(m.pendingTenant, spec.Tenant)
	}
	if err != nil {
		m.met.setQueue(len(m.queue)+m.pending, m.running)
		m.met.reject(rejectDisk)
		return nil, err
	}
	// A drain or kill that began during the append does not undo the
	// acceptance: the record is durable, so the job is registered as
	// queued (dispatchLocked refuses to start it) and the next Open
	// resumes it — exactly the crash-recovery contract.
	j := &job{met: m.met, info: Job{ID: id, State: StateQueued, Spec: spec, SubmittedAt: now}}
	j.enqueuedAt = now
	m.jobs[id] = j
	m.queue = append(m.queue, j)
	m.met.jobEvent(spec.Tenant, jobSubmitted)
	m.met.setQueue(len(m.queue)+m.pending, m.running)
	m.cfg.Log.Info("job accepted",
		"job", id, "tenant", spec.Tenant, "circuit", spec.Circuit,
		"metric", spec.Metric, "bound", spec.Bound)
	m.dispatchLocked()
	info := j.snapshot()
	return &info, nil
}

// dispatchLocked starts queued jobs while runner slots are free.
// Callers hold m.mu.
func (m *Manager) dispatchLocked() {
	for !m.draining && !m.killed && m.running < m.cfg.MaxRunning && len(m.queue) > 0 {
		j := m.queue[0]
		m.queue = m.queue[1:]
		m.running++
		m.wg.Add(1)
		go m.runJob(j)
	}
	m.met.setQueue(len(m.queue)+m.pending, m.running)
}

// Get returns a snapshot of the job.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	info := j.snapshot()
	return &info, nil
}

// List returns snapshots of all jobs in ID (= submission) order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	out := make([]*Job, len(jobs))
	for i, j := range jobs {
		info := j.snapshot()
		out[i] = &info
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Result returns a terminal job's durable result artifact. Failed
// jobs have no result; queued and running jobs are not ready yet.
func (m *Manager) Result(id string) (*JobResult, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	j.mu.Lock()
	state := j.info.State
	j.mu.Unlock()
	if !state.Terminal() {
		return nil, fmt.Errorf("%w: job is %s", ErrNotReady, state)
	}
	return m.store.readResult(id)
}

// Cancel stops a job: a queued job transitions to cancelled
// immediately, a running one is interrupted and keeps its
// best-so-far circuit as the result. Cancelling a terminal job is a
// no-op returning its current snapshot.
func (m *Manager) Cancel(id string) (*Job, error) {
	m.mu.Lock()
	j := m.jobs[id]
	if j == nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	j.mu.Lock()
	switch {
	case j.info.State.Terminal():
		j.mu.Unlock()
		m.mu.Unlock()
	case j.info.State == StateQueued:
		removed := false
		for i, q := range m.queue {
			if q == j {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				m.met.setQueue(len(m.queue)+m.pending, m.running)
				removed = true
				break
			}
		}
		if !removed {
			// The dispatcher already popped the job and its runner is
			// starting up: record the request; the runner cancels its
			// context as soon as it is installed.
			j.reason = cancelUser
			j.mu.Unlock()
			m.mu.Unlock()
			break
		}
		j.mu.Unlock()
		m.mu.Unlock()
		// Terminal transition outside the locks; the job is no longer
		// dispatchable, so the runner cannot race us.
		m.finishJob(j, StateCancelled, terminalInfo{stopReason: "cancelled"})
	default: // running
		j.reason = cancelUser
		cancel := j.cancel
		j.mu.Unlock()
		m.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	info := j.snapshot()
	return &info, nil
}

// Subscribe returns a channel of the job's progress events, starting
// with a replay of everything recorded so far (for a terminal job,
// that is its whole history). The channel closes after the terminal
// state event. The returned stop function detaches the subscriber;
// it must be called unless the channel was drained to close.
func (m *Manager) Subscribe(id string) (<-chan Event, func(), error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return nil, nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	j.mu.Lock()
	// The replay happens under j.mu with a channel sized for the whole
	// backlog (plus live headroom and the reserved drop slot): no
	// publish can interleave live events ahead of the replay or close
	// the subscriber mid-replay, and the replay cannot overflow the
	// buffer, so the stream is gapless and in order.
	sub := &subscriber{ch: make(chan Event, len(j.events)+256)}
	for _, ev := range j.events {
		sub.trySend(ev)
	}
	terminal := j.info.State.Terminal()
	if terminal {
		close(sub.ch)
	} else {
		j.subs = append(j.subs, sub)
	}
	j.mu.Unlock()
	m.met.subscribed(!terminal)
	if terminal {
		return sub.ch, func() {}, nil
	}
	stop := func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		j.dropSub(sub, false)
	}
	return sub.ch, stop, nil
}

// trySend delivers without blocking, keeping the channel's last slot
// free for the synthetic dropped marker; a (near-)full channel means
// the consumer stalled and reports failure. Callers hold the owning
// job's mu, which also guards s.closed.
func (s *subscriber) trySend(ev Event) bool {
	if s.closed || len(s.ch) >= cap(s.ch)-1 {
		return false
	}
	select {
	case s.ch <- ev:
		return true
	default:
		return false
	}
}

// dropSub removes and closes one subscriber. With forced set (the
// consumer stopped draining) a final synthetic EventDropped is
// delivered into the reserved buffer slot first, so the client's
// stream ends with an explicit marker instead of a silent close.
// Caller holds j.mu.
func (j *job) dropSub(sub *subscriber, forced bool) {
	for i, s := range j.subs {
		if s == sub {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			break
		}
	}
	if !sub.closed {
		if forced {
			select {
			case sub.ch <- Event{Type: EventDropped}:
			default:
			}
		}
		sub.closed = true
		close(sub.ch)
		j.met.unsubscribed(forced)
	}
}

// publish records ev in the job's replay buffer and fans it out;
// subscribers that stopped draining are dropped (with a final
// EventDropped marker) so a stalled consumer cannot stall the run.
// When terminal is set, all subscribers are closed after delivery.
func (j *job) publish(ev Event, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	const replayCap = 512
	if len(j.events) >= replayCap {
		j.events = append(j.events[:0], j.events[len(j.events)-replayCap/2:]...)
	}
	j.events = append(j.events, ev)
	j.met.published()
	for i := len(j.subs) - 1; i >= 0; i-- {
		sub := j.subs[i]
		if !sub.trySend(ev) {
			j.dropSub(sub, true)
		}
	}
	if terminal {
		for _, sub := range j.subs {
			if !sub.closed {
				sub.closed = true
				close(sub.ch)
				j.met.unsubscribed(false)
			}
		}
		j.subs = nil
	}
}

// snapshot returns a copy of the job's public state.
func (j *job) snapshot() Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.info
}

// Stats is the health summary served by /healthz and /v1/stats.
type Stats struct {
	Total     int  `json:"total"`
	Queued    int  `json:"queued"`
	Running   int  `json:"running"`
	Done      int  `json:"done"`
	Failed    int  `json:"failed"`
	Cancelled int  `json:"cancelled"`
	Draining  bool `json:"draining"`
	// UptimeSeconds is how long this Manager has been open; it resets
	// on restart (job counts, being journal-derived, do not).
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Stats counts jobs by state.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	st := Stats{Total: len(jobs), Draining: m.draining}
	st.UptimeSeconds = time.Since(m.start).Seconds()
	m.mu.Unlock()
	for _, j := range jobs {
		switch j.snapshot().State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	return st
}

// watchdog periodically cancels running jobs that have not made
// progress within cfg.Watchdog; the runner turns that cancellation
// into a typed ErrJobHung failure.
func (m *Manager) watchdog() {
	defer close(m.watchdogDone)
	interval := m.cfg.Watchdog / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.watchdogStop:
			return
		case <-t.C:
		}
		m.mu.Lock()
		jobs := make([]*job, 0, len(m.jobs))
		for _, j := range m.jobs {
			jobs = append(jobs, j)
		}
		m.mu.Unlock()
		now := time.Now()
		for _, j := range jobs {
			j.mu.Lock()
			hung := j.info.State == StateRunning && j.reason == cancelNone &&
				!j.lastBeat.IsZero() && now.Sub(j.lastBeat) > m.cfg.Watchdog
			var cancel context.CancelFunc
			if hung {
				j.reason = cancelWatchdog
				cancel = j.cancel
			}
			j.mu.Unlock()
			if cancel != nil {
				m.met.watchdogFired()
				m.cfg.Log.Warn("watchdog cancelling hung job",
					"job", j.info.ID, "tenant", j.info.Spec.Tenant,
					"interval", m.cfg.Watchdog)
				cancel()
			}
		}
	}
}

// Close drains the Manager gracefully: no new jobs are accepted,
// running jobs are interrupted after their current round and
// checkpointed (they stay non-terminal in the journal, so a new Open
// resumes them), queued jobs stay queued, and every goroutine is
// joined before the journal closes. ctx bounds the drain wait.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	var cancels []context.CancelFunc
	for _, j := range m.jobs {
		j.mu.Lock()
		// Non-terminal covers running jobs AND jobs already popped from
		// the queue whose runner has not yet marked them running: the
		// runner re-checks the reason after installing its cancel func.
		// Jobs that never dispatch ignore the reason entirely.
		if !j.info.State.Terminal() && j.reason == cancelNone {
			j.reason = cancelDrain
			if j.cancel != nil {
				cancels = append(cancels, j.cancel)
			}
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	err := m.waitRunners(ctx)
	m.stopWatchdog()
	if cerr := m.store.close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Kill emulates a process crash for the fault harness: durable writes
// freeze (as if the disk vanished with the process), running jobs are
// cancelled, and goroutines are joined so the test process stays
// leak-free. On-disk state is exactly what a real crash at this
// moment would leave. A new Open over the same directory recovers.
func (m *Manager) Kill() {
	m.store.freeze()
	m.mu.Lock()
	if m.killed {
		m.mu.Unlock()
		return
	}
	m.killed = true
	var cancels []context.CancelFunc
	for _, j := range m.jobs {
		j.mu.Lock()
		if !j.info.State.Terminal() {
			// Mark the reason even when the runner has not yet installed
			// its cancel func: execute re-checks the reason right after
			// installing it, so the job stops either way.
			if j.reason == cancelNone {
				j.reason = cancelDrain
			}
			if j.cancel != nil {
				cancels = append(cancels, j.cancel)
			}
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	m.wg.Wait()
	m.stopWatchdog()
	m.store.close()
}

// waitRunners waits for all runner goroutines, bounded by ctx.
func (m *Manager) waitRunners(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// stopWatchdog joins the watchdog goroutine, once.
func (m *Manager) stopWatchdog() {
	if m.watchdogStop == nil {
		return
	}
	m.watchdogOnce.Do(func() { close(m.watchdogStop) })
	<-m.watchdogDone
}
