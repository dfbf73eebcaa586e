package obs

import "time"

// This file defines the run ledger's event vocabulary: the typed,
// schema-stable records a synthesis flow emits through its Recorder so
// that every selection decision survives the run. The encoding (JSONL
// envelope, schema version, bundle layout) lives in internal/ledger;
// the structs live here so core/seals/amosa can build events without
// importing the ledger package, and so the ledger can depend on obs
// without a cycle.
//
// The Recorder is itself a Sink. The flows report each run to it once —
// one RunMeta, one RoundEvent per round, one RunFinish — and it derives
// its counters, gauges and /status snapshot from those events before
// fanning them out to the attached sinks.
//
// Cost contract: with a nil Recorder the flows build no events at all.
// A live Recorder gets every event, but the columns that cost real work
// — mapped area, logic depth, the per-LAC measured errors — are filled
// only behind Recorder.Ledgering(), when a sink is attached (see
// BenchmarkRunObsOff/On/Ledger in internal/core).

// RunMeta opens a run's ledger: the static facts every later event is
// interpreted against. A resumed run appends a second RunMeta with
// Resumed set, so a ledger records its own interruption history.
type RunMeta struct {
	// Method is the synthesis flow: "accals", "seals" or "amosa".
	Method string `json:"method"`
	// Circuit is the input circuit's name.
	Circuit string `json:"circuit,omitempty"`
	// Metric and Bound give the error constraint of the run.
	Metric string  `json:"metric"`
	Bound  float64 `json:"bound"`
	// Seed is the run's random seed (LAC set selection, MIS restarts).
	Seed int64 `json:"seed"`
	// Patterns is the evaluation pattern count.
	Patterns int `json:"patterns,omitempty"`
	// Workers is the resolved parallel-engine worker count.
	Workers int `json:"workers,omitempty"`
	// InitialAnds/Area/Depth describe the original circuit, anchoring
	// the per-round trajectory. A resumed segment records the same
	// circuit, not the checkpoint it warm-starts from.
	InitialAnds  int     `json:"initial_ands,omitempty"`
	InitialArea  float64 `json:"initial_area,omitempty"`
	InitialDepth int     `json:"initial_depth,omitempty"`
	// StartRound is the first round this (segment of the) run executes;
	// non-zero for warm starts from a checkpoint.
	StartRound int `json:"start_round,omitempty"`
	// Resumed marks a ledger segment appended by a checkpoint resume.
	Resumed bool `json:"resumed,omitempty"`
}

// AppliedLAC is one applied local approximate change inside a
// RoundEvent: its target node, estimated gain and estimated error
// increase, plus the measured error of applying it alone, so estimator
// accuracy is analysable per applied LAC.
type AppliedLAC struct {
	Target int     `json:"target"`
	Gain   int     `json:"gain"`
	DeltaE float64 `json:"delta_e"`
	// MeasuredErr is the circuit's measured error with only this LAC
	// applied (estimator.MeasureEach); computed only when ledgering.
	MeasuredErr float64 `json:"measured_err,omitempty"`
}

// RoundEvent records one synthesis round's complete decision trail:
// how the candidate set was narrowed (top set, conflict graph,
// mutual-influence threshold, MIS), what the duel measured, which
// guards fired, and where the trajectory ended up. Fields that only
// exist for one flow are omitempty; the AccALS multi-LAC shape fills
// everything, SEALS fills the single-selection subset, and AMOSA maps
// its iterations onto rounds with the Accepted/ArchiveSize extras.
type RoundEvent struct {
	// Round is the global round number (continuous across resumes).
	Round int `json:"round"`
	// Candidates is the generated LAC candidate count.
	Candidates int `json:"candidates,omitempty"`
	// BudgetLeft is the error budget remaining at the round's start:
	// bound minus the accepted error entering the round.
	BudgetLeft float64 `json:"budget_left"`
	// TopSize is |L_top| under Eq. (2).
	TopSize int `json:"top_size,omitempty"`
	// ConflictNodes/ConflictEdges size the LAC conflict graph of
	// Definition 1 (Type-1 and Type-2 conflicts over L_top).
	ConflictNodes int `json:"conflict_nodes,omitempty"`
	ConflictEdges int `json:"conflict_edges,omitempty"`
	// SolSize is the conflict-free subset size |L_sol|.
	SolSize int `json:"sol_size,omitempty"`
	// InflPairs counts the target pairs scored by the mutual-influence
	// index p_ji; InflAbove counts those above the t_b threshold (the
	// edges of G_sol the MIS is solved on).
	InflPairs int `json:"infl_pairs,omitempty"`
	InflAbove int `json:"infl_above,omitempty"`
	// MISSize is |N_indp|, the solved maximum independent set.
	MISSize int `json:"mis_size,omitempty"`
	// IndpSize/RandSize are the sizes of the two duel candidate sets
	// after the r_sel / λ·e_b budget.
	IndpSize int `json:"indp_size,omitempty"`
	RandSize int `json:"rand_size,omitempty"`
	// DuelIndpErr/DuelRandErr are both candidate sets' measured errors
	// when the duel ran (the Fig. 4 L_indp ratio is derived from which
	// was lower); nil when the round had only one set.
	DuelIndpErr *float64 `json:"duel_indp_err,omitempty"`
	DuelRandErr *float64 `json:"duel_rand_err,omitempty"`
	// PickedIndp reports the duel winner (or the only set in play).
	PickedIndp bool `json:"picked_indp,omitempty"`
	// Multi is false for single-selection rounds (the l_e fallback, or
	// the SEALS flow).
	Multi bool `json:"multi,omitempty"`
	// GuardSingle marks improvement technique 1: single-LAC selection
	// because the error exceeded l_e · e_b.
	GuardSingle bool `json:"guard_single,omitempty"`
	// Reverted marks improvement technique 2: the applied set was
	// declared negative (beta > l_d, or a multi-LAC overshoot) and the
	// round was redone with the single best LAC.
	Reverted bool `json:"reverted,omitempty"`
	// Certified reports the round's certification verdict under the
	// maximum-error metric: nil when the round was not certified
	// (non-MaxED runs), false when the certification failed (bound
	// refuted or conflict budget exhausted — the round was rejected).
	// CertConflicts is the SAT solver effort the attempt spent: 0 for
	// circuits certified by exhaustive simulation.
	Certified     *bool `json:"certified,omitempty"`
	CertConflicts int64 `json:"cert_conflicts,omitempty"`
	// Applied lists the LACs of the final (post-revert) rebuild.
	Applied []AppliedLAC `json:"applied,omitempty"`
	// EstErr is the estimated error of the applied set under Eq. (1);
	// Error is the measured error. Their gap is the estimator-accuracy
	// column of the offline report.
	EstErr float64 `json:"est_err"`
	Error  float64 `json:"error"`
	// NumAnds/Area/Depth track the circuit trajectory after the round.
	// Area and Depth are filled only when a ledger sink is attached
	// (technology mapping per round is not free).
	NumAnds int     `json:"num_ands"`
	Area    float64 `json:"area,omitempty"`
	Depth   int     `json:"depth,omitempty"`
	// NoProgress is the stagnation-guard state after the round.
	NoProgress int `json:"no_progress,omitempty"`
	// DurationUS is the round's wall-clock time in microseconds.
	DurationUS int64 `json:"duration_us"`
	// Accepted/ArchiveSize are the AMOSA iteration extras: whether the
	// proposed move was taken and the non-dominated archive size after
	// the iteration.
	Accepted    *bool `json:"accepted,omitempty"`
	ArchiveSize int   `json:"archive_size,omitempty"`
}

// RunFinish closes a run's ledger with the outcome: the stop reason,
// the final accepted circuit's error and size, and the run totals.
type RunFinish struct {
	StopReason  string  `json:"stop_reason"`
	Rounds      int     `json:"rounds"`
	Error       float64 `json:"error"`
	NumAnds     int     `json:"num_ands,omitempty"`
	Area        float64 `json:"area,omitempty"`
	Depth       int     `json:"depth,omitempty"`
	LACsApplied int     `json:"lacs_applied,omitempty"`
	RuntimeUS   int64   `json:"runtime_us"`
}

// Sink receives a run's ledger events in order: one RunMeta (plus one
// per resume), any number of RoundEvents, one RunFinish. Implementations
// must be safe for concurrent use with the HTTP introspection handlers
// but events themselves arrive from the single synthesis goroutine.
type Sink interface {
	RunMeta(RunMeta)
	Round(RoundEvent)
	Finish(RunFinish)
}

// AddSink attaches a ledger sink. Must be called before the run
// starts; events fan out to every attached sink.
func (r *Recorder) AddSink(s Sink) {
	if r == nil || s == nil {
		return
	}
	r.sinks = append(r.sinks, s)
}

// Ledgering reports whether any ledger sink is attached. The flows
// guard the events' costly columns (the per-round area/depth mapping
// and the per-LAC measured errors) behind it.
func (r *Recorder) Ledgering() bool {
	return r != nil && len(r.sinks) > 0
}

// The Recorder is the sink the flows report to.
var _ Sink = (*Recorder)(nil)

// RunMeta opens a run (or a resumed segment of one): it records the
// run's static facts in /status and the workers gauge, then fans m out
// to the attached sinks.
func (r *Recorder) RunMeta(m RunMeta) {
	if r == nil {
		return
	}
	r.workersGauge.Set(float64(m.Workers))
	r.mu.Lock()
	r.status.Method = m.Method
	r.status.Circuit = m.Circuit
	r.status.Metric = m.Metric
	r.status.Bound = m.Bound
	r.status.Workers = m.Workers
	r.status.InitialAnds = m.InitialAnds
	r.mu.Unlock()
	for _, s := range r.sinks {
		s.RunMeta(m)
	}
}

// Round records one completed round, then fans ev out to the attached
// sinks. Every per-round counter and gauge derives from ev: the rounds
// counter; evaluated (Candidates), applied (Applied) and reverted LACs;
// the guard activations (GuardSingle, Reverted); the duel outcome (a
// round with both duel errors, won by PickedIndp); the round, error,
// AND-count and no-progress gauges; and the /status snapshot.
func (r *Recorder) Round(ev RoundEvent) {
	if r == nil {
		return
	}
	r.roundsTotal.Inc()
	r.lacsEvaluated.Add(float64(ev.Candidates))
	r.lacsApplied.Add(float64(len(ev.Applied)))
	if ev.GuardSingle {
		r.guardSingle.Inc()
	}
	if ev.Reverted {
		// The revert undid the multi-LAC set the round had picked.
		undone := ev.RandSize
		if ev.PickedIndp {
			undone = ev.IndpSize
		}
		r.guardRevert.Inc()
		r.lacsReverted.Add(float64(undone))
	}
	if ev.DuelIndpErr != nil && ev.DuelRandErr != nil {
		if ev.PickedIndp {
			r.duelIndp.Inc()
		} else {
			r.duelRandom.Inc()
		}
	}
	r.roundGauge.Set(float64(ev.Round))
	r.errorGauge.Set(ev.Error)
	r.andsGauge.Set(float64(ev.NumAnds))
	r.noProgress.Set(float64(ev.NoProgress))
	r.mu.Lock()
	r.status.Round = ev.Round
	r.status.Error = ev.Error
	r.status.NumAnds = ev.NumAnds
	r.status.NoProgress = ev.NoProgress
	r.status.UpdatedAt = time.Now()
	r.mu.Unlock()
	for _, s := range r.sinks {
		s.Round(ev)
	}
}

// Finish closes the run: it marks /status stopped with f's reason, fans
// f out to the attached sinks and closes every attached tracer.
func (r *Recorder) Finish(f RunFinish) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.status.Running = false
	r.status.StopReason = f.StopReason
	r.status.UpdatedAt = time.Now()
	r.mu.Unlock()
	for _, s := range r.sinks {
		s.Finish(f)
	}
	for _, t := range r.tracers {
		t.Close()
	}
}
