// Package obs is the observability layer of the synthesis flows: a
// span-based phase tracer, a metrics registry rendered in Prometheus
// text format, and an HTTP introspection server. It depends only on
// the standard library so every internal package can import it.
//
// The central type is Recorder. A nil *Recorder is a valid no-op —
// every method checks the receiver — so the flows thread a recorder
// unconditionally and pay a single nil check per call when
// observability is off. One Recorder covers one synthesis run; its
// metrics are cumulative across a checkpoint/resume boundary when the
// caller restores the counter snapshot (see Registry.CounterSnapshot).
package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one instrumented stage of a synthesis round. The
// taxonomy follows the AccALS round structure: simulate the current
// circuit, generate candidate LACs, estimate their error increases,
// build the LAC conflict graph and extract a conflict-free set, solve
// the maximum-independent-set problem, apply a LAC set, measure the
// true error, and (when the negative-set guard fires) revert. PhaseCEC
// covers SAT-based equivalence checks and maximum-error certification
// (by SAT or by exhaustive simulation), and PhaseRound spans a whole
// round.
type Phase uint8

// The phase taxonomy.
const (
	PhaseSimulate Phase = iota
	PhaseGenerate
	PhaseEstimate
	PhaseConflictGraph
	PhaseMIS
	PhaseApply
	PhaseMeasure
	PhaseRevert
	PhaseCEC
	PhaseRound
	PhaseDirtyCone
	numPhases
)

var phaseNames = [numPhases]string{
	"simulate",
	"generate",
	"estimate",
	"conflict-graph",
	"mis",
	"apply",
	"measure",
	"revert",
	"cec",
	"round",
	"dirty-cone",
}

// String returns the phase's stable lower-case name (used as the
// `phase` label value and in trace events).
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Phases lists every phase in taxonomy order.
func Phases() []Phase {
	out := make([]Phase, numPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// Status is a point-in-time snapshot of a live run, served as JSON by
// the introspection server's /status endpoint.
type Status struct {
	Method      string    `json:"method,omitempty"`
	Circuit     string    `json:"circuit,omitempty"`
	Metric      string    `json:"metric,omitempty"`
	Bound       float64   `json:"bound,omitempty"`
	Workers     int       `json:"workers,omitempty"`
	Round       int       `json:"round"`
	Error       float64   `json:"error"`
	NumAnds     int       `json:"num_ands"`
	InitialAnds int       `json:"initial_ands,omitempty"`
	LACsApplied int64     `json:"lacs_applied"`
	NoProgress  int       `json:"no_progress_rounds"`
	GuardSingle int64     `json:"guard_single_lac"`
	GuardRevert int64     `json:"guard_negative_revert"`
	DuelIndp    int64     `json:"duel_indp_wins"`
	DuelRandom  int64     `json:"duel_random_wins"`
	Running     bool      `json:"running"`
	StopReason  string    `json:"stop_reason,omitempty"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	UpdatedAt   time.Time `json:"updated_at,omitempty"`
}

// Recorder collects the instrumentation of one synthesis run: phase
// spans, run counters and gauges, and a live status snapshot. All
// methods are safe for concurrent use and are no-ops on a nil
// receiver.
type Recorder struct {
	reg     *Registry
	tracers []*Tracer // fixed after setup; read without locking
	sinks   []Sink    // ledger sinks; fixed after setup (see events.go)
	traceID string    // fixed at construction

	curRound atomic.Int64

	mu     sync.Mutex
	status Status

	// Pre-resolved hot-path series (one atomic op per update).
	phaseDur      [numPhases]*Histogram
	shardDur      [numPhases]*Histogram
	utilization   [numPhases]*Histogram
	workersGauge  *Gauge
	roundsTotal   *Counter
	lacsEvaluated *Counter
	lacsApplied   *Counter
	lacsReverted  *Counter
	guardSingle   *Counter
	guardRevert   *Counter
	duelIndp      *Counter
	duelRandom    *Counter
	simPatterns   *Counter
	satConflicts  *Counter
	evaluations   *Counter
	cacheHits     *Counter
	cacheMisses   *Counter
	roundGauge    *Gauge
	errorGauge    *Gauge
	andsGauge     *Gauge
	noProgress    *Gauge
	certCertified *Counter
	certRefuted   *Counter
	certBudget    *Counter
}

// NewRecorder returns a recorder with the standard AccALS series
// pre-registered in a fresh registry.
func NewRecorder() *Recorder {
	reg := NewRegistry()
	r := &Recorder{reg: reg}
	for p := Phase(0); p < numPhases; p++ {
		r.phaseDur[p] = reg.Histogram("accals_phase_duration_seconds",
			"Wall-clock time spent per synthesis phase.", nil, L("phase", p.String()))
		r.shardDur[p] = reg.Histogram("accals_shard_duration_seconds",
			"Busy time of individual worker shards in parallel phases.", nil, L("phase", p.String()))
		r.utilization[p] = reg.Histogram("accals_worker_utilization",
			"Worker utilization of parallel regions: shard busy time over elapsed x workers.",
			UtilizationBuckets, L("phase", p.String()))
	}
	r.workersGauge = reg.Gauge("accals_workers",
		"Resolved worker count of the parallel evaluation engine.")
	r.roundsTotal = reg.Counter("accals_rounds_total", "Synthesis rounds completed.")
	r.lacsEvaluated = reg.Counter("accals_lacs_total", "Local approximate changes by disposition.", L("kind", "evaluated"))
	r.lacsApplied = reg.Counter("accals_lacs_total", "Local approximate changes by disposition.", L("kind", "applied"))
	r.lacsReverted = reg.Counter("accals_lacs_total", "Local approximate changes by disposition.", L("kind", "reverted"))
	r.guardSingle = reg.Counter("accals_guard_activations_total",
		"Paper guard activations: single-LAC fallback at l_e, negative-set revert at l_d.", L("guard", "single_lac"))
	r.guardRevert = reg.Counter("accals_guard_activations_total",
		"Paper guard activations: single-LAC fallback at l_e, negative-set revert at l_d.", L("guard", "negative_revert"))
	r.duelIndp = reg.Counter("accals_duel_total",
		"Candidate-set duel outcomes: which set produced the better circuit.", L("winner", "indp"))
	r.duelRandom = reg.Counter("accals_duel_total",
		"Candidate-set duel outcomes: which set produced the better circuit.", L("winner", "random"))
	r.simPatterns = reg.Counter("accals_sim_patterns_total",
		"Input patterns evaluated by the bit-parallel simulator.")
	r.satConflicts = reg.Counter("accals_sat_conflicts_total",
		"CDCL conflicts spent by SAT-based equivalence checks.")
	r.evaluations = reg.Counter("accals_evaluations_total",
		"Candidate circuit evaluations (AMOSA annealer).")
	r.cacheHits = reg.Counter("accals_lac_cache_total",
		"Per-target LAC candidate lists served by the incremental generator, by cache disposition.", L("result", "hit"))
	r.cacheMisses = reg.Counter("accals_lac_cache_total",
		"Per-target LAC candidate lists served by the incremental generator, by cache disposition.", L("result", "miss"))
	r.certCertified = reg.Counter("accals_cert_total",
		"Certification outcomes of maximum-error rounds: certified (bound proved), refuted (counterexample found), budget (conflict budget exhausted, round rejected).", L("result", "certified"))
	r.certRefuted = reg.Counter("accals_cert_total",
		"Certification outcomes of maximum-error rounds: certified (bound proved), refuted (counterexample found), budget (conflict budget exhausted, round rejected).", L("result", "refuted"))
	r.certBudget = reg.Counter("accals_cert_total",
		"Certification outcomes of maximum-error rounds: certified (bound proved), refuted (counterexample found), budget (conflict budget exhausted, round rejected).", L("result", "budget"))
	r.roundGauge = reg.Gauge("accals_round", "Current synthesis round.")
	r.errorGauge = reg.Gauge("accals_error", "Measured error of the current circuit.")
	r.andsGauge = reg.Gauge("accals_and_count", "AND-node count of the current circuit.")
	r.noProgress = reg.Gauge("accals_no_progress_rounds",
		"Consecutive rounds without progress (stagnation guard state).")
	r.status.Running = true
	r.status.StartedAt = time.Now()
	r.traceID = NewTraceID()
	return r
}

// NewTraceID returns a fresh 64-bit random trace identifier in hex.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b[:])
}

// TraceID returns the run's trace identifier ("" for a nil recorder).
// Every recorder gets a fresh one at construction; it names the run in
// the bundle manifest and the end-of-run summary.
func (r *Recorder) TraceID() string {
	if r == nil {
		return ""
	}
	return r.traceID
}

// Tracing reports whether the recorder has at least one trace sink
// attached.
func (r *Recorder) Tracing() bool {
	return r != nil && len(r.tracers) > 0
}

// EmitEvent fans one trace event out to every attached tracer. Unlike
// Span.End it does not feed the phase histograms, so work outside the
// phase taxonomy (the round tail's ledger-only measurement, the ledger's
// technology mapping) shows on the timeline without skewing the
// per-phase time summary. No-op without tracers.
func (r *Recorder) EmitEvent(ev TraceEvent) {
	if r == nil || len(r.tracers) == 0 {
		return
	}
	for _, t := range r.tracers {
		t.Emit(ev)
	}
}

// Registry returns the recorder's metrics registry (nil for a nil
// recorder).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// AddTracer attaches a trace sink. Must be called before the run
// starts; spans fan out to every attached tracer.
func (r *Recorder) AddTracer(t *Tracer) {
	if r == nil || t == nil {
		return
	}
	r.tracers = append(r.tracers, t)
}

// Span is one in-flight phase measurement; obtain one with StartPhase
// or StartSpan and finish it with End. The zero Span (from a nil
// recorder) is a no-op.
type Span struct {
	r     *Recorder
	phase Phase
	round int
	start time.Time
}

// StartPhase opens a span for the given round and phase.
func (r *Recorder) StartPhase(round int, p Phase) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, phase: p, round: round, start: time.Now()}
}

// StartSpan opens a span for the recorder's current round (set by
// BeginRound); used by packages that instrument work inside a round
// without knowing the round number.
func (r *Recorder) StartSpan(p Phase) Span {
	if r == nil {
		return Span{}
	}
	return r.StartPhase(int(r.curRound.Load()), p)
}

// End closes the span, recording its duration in the phase histogram
// and emitting one trace event per attached tracer. It returns the
// span's duration (zero for a no-op span).
func (s Span) End() time.Duration {
	if s.r == nil {
		return 0
	}
	d := time.Since(s.start)
	s.r.phaseDur[s.phase].Observe(d.Seconds())
	for _, t := range s.r.tracers {
		t.emit(s.phase, s.round, s.start, d)
	}
	return d
}

// SetRunInfo records the static facts of the run for /status.
func (r *Recorder) SetRunInfo(method, circuit, metric string, bound float64, initialAnds int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.status.Method = method
	r.status.Circuit = circuit
	r.status.Metric = metric
	r.status.Bound = bound
	r.status.InitialAnds = initialAnds
}

// BeginRound marks the start of a round, updating the round gauge and
// the current-round context used by StartSpan.
func (r *Recorder) BeginRound(round int) {
	if r == nil {
		return
	}
	r.curRound.Store(int64(round))
	r.roundGauge.Set(float64(round))
}

// EndRound records a completed round's outcome: the live gauges, the
// rounds counter and the /status snapshot.
func (r *Recorder) EndRound(round int, err float64, numAnds, noProgress, applied int) {
	if r == nil {
		return
	}
	r.roundsTotal.Inc()
	r.errorGauge.Set(err)
	r.andsGauge.Set(float64(numAnds))
	r.noProgress.Set(float64(noProgress))
	r.mu.Lock()
	r.status.Round = round
	r.status.Error = err
	r.status.NumAnds = numAnds
	r.status.NoProgress = noProgress
	r.status.LACsApplied += int64(applied)
	r.status.UpdatedAt = time.Now()
	r.mu.Unlock()
}

// Finish marks the run as stopped with the given reason and closes
// every attached tracer.
func (r *Recorder) Finish(stopReason string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.status.Running = false
	r.status.StopReason = stopReason
	r.status.UpdatedAt = time.Now()
	r.mu.Unlock()
	for _, t := range r.tracers {
		t.Close()
	}
}

// Status returns a copy of the live status snapshot, with the guard
// and duel tallies read from the counters.
func (r *Recorder) Status() Status {
	if r == nil {
		return Status{}
	}
	r.mu.Lock()
	s := r.status
	r.mu.Unlock()
	s.GuardSingle = int64(r.guardSingle.Value())
	s.GuardRevert = int64(r.guardRevert.Value())
	s.DuelIndp = int64(r.duelIndp.Value())
	s.DuelRandom = int64(r.duelRandom.Value())
	return s
}

// CountCandidates adds n to the evaluated-LAC counter.
func (r *Recorder) CountCandidates(n int) {
	if r == nil {
		return
	}
	r.lacsEvaluated.Add(float64(n))
}

// CountApplied adds n to the applied-LAC counter.
func (r *Recorder) CountApplied(n int) {
	if r == nil {
		return
	}
	r.lacsApplied.Add(float64(n))
}

// CountReverted adds n to the reverted-LAC counter (LACs that were
// applied and then undone by the negative-set guard).
func (r *Recorder) CountReverted(n int) {
	if r == nil {
		return
	}
	r.lacsReverted.Add(float64(n))
}

// GuardSingleLAC counts one activation of improvement technique 1
// (single-LAC fallback once the error exceeds l_e · e_b).
func (r *Recorder) GuardSingleLAC() {
	if r == nil {
		return
	}
	r.guardSingle.Inc()
}

// GuardNegativeRevert counts one activation of improvement technique 2
// (negative-set revert when the estimate gap exceeds l_d).
func (r *Recorder) GuardNegativeRevert() {
	if r == nil {
		return
	}
	r.guardRevert.Inc()
}

// DuelOutcome records which candidate set won the per-round duel
// between the independent and the random LAC set.
func (r *Recorder) DuelOutcome(indpWon bool) {
	if r == nil {
		return
	}
	if indpWon {
		r.duelIndp.Inc()
	} else {
		r.duelRandom.Inc()
	}
}

// SetWorkers records the resolved worker count of the run's parallel
// evaluation engine (gauge accals_workers and the /status snapshot).
func (r *Recorder) SetWorkers(n int) {
	if r == nil {
		return
	}
	r.workersGauge.Set(float64(n))
	r.mu.Lock()
	r.status.Workers = n
	r.mu.Unlock()
}

// ObserveShards records one timed parallel region of the given phase:
// each shard's busy time feeds the per-shard duration histogram, and
// the region's utilization (total busy time over elapsed x shards,
// clamped to [0,1]) feeds the utilization histogram. elapsed is the
// region's wall-clock span. A region with no shards is ignored.
func (r *Recorder) ObserveShards(p Phase, elapsed time.Duration, shards []time.Duration) {
	if r == nil || len(shards) == 0 {
		return
	}
	var busy time.Duration
	for _, d := range shards {
		r.shardDur[p].Observe(d.Seconds())
		busy += d
	}
	if elapsed > 0 {
		u := float64(busy) / (float64(elapsed) * float64(len(shards)))
		if u > 1 {
			u = 1
		}
		r.utilization[p].Observe(u)
	}
}

// CountSimPatterns adds n simulated input patterns (one full-circuit
// sweep over a pattern set counts its pattern count).
func (r *Recorder) CountSimPatterns(n int) {
	if r == nil {
		return
	}
	r.simPatterns.Add(float64(n))
}

// AddSATConflicts adds n CDCL conflicts from an equivalence check.
func (r *Recorder) AddSATConflicts(n int64) {
	if r == nil {
		return
	}
	r.satConflicts.Add(float64(n))
}

// CountLACCache records one incremental-generation round's cache
// dispositions: hits are targets whose candidate lists were reused from
// the previous round (after id translation), misses are targets
// regenerated inside the dirty cone (a full generation counts every
// target as a miss).
func (r *Recorder) CountLACCache(hits, misses int) {
	if r == nil {
		return
	}
	r.cacheHits.Add(float64(hits))
	r.cacheMisses.Add(float64(misses))
}

// CountEvaluation counts one candidate-circuit evaluation (AMOSA).
func (r *Recorder) CountEvaluation() {
	if r == nil {
		return
	}
	r.evaluations.Inc()
}

// CertOutcome is the disposition of one certification attempt.
type CertOutcome int

// Certification outcomes, matching the accals_cert_total result label.
const (
	// CertCertified: the bound was proved to hold on all inputs.
	CertCertified CertOutcome = iota
	// CertRefuted: an input exceeding the bound was found.
	CertRefuted
	// CertBudget: the conflict budget ran out; the round is rejected.
	CertBudget
)

// CountCert records one certification outcome of a maximum-error
// round.
func (r *Recorder) CountCert(o CertOutcome) {
	if r == nil {
		return
	}
	switch o {
	case CertCertified:
		r.certCertified.Inc()
	case CertRefuted:
		r.certRefuted.Inc()
	case CertBudget:
		r.certBudget.Inc()
	}
}
