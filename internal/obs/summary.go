package obs

// PhaseSummary aggregates one phase's spans over a whole run.
type PhaseSummary struct {
	// Count is the number of spans recorded for the phase.
	Count uint64 `json:"count"`
	// Seconds is the cumulative wall-clock time spent in the phase.
	Seconds float64 `json:"seconds"`
}

// Summary is the end-of-run aggregate written into the accals
// command's JSON summary output, shaped for aggregation by the
// experiment harness: per-phase time breakdown, guard activation
// counts and candidate-set duel win rates.
type Summary struct {
	// Phases maps phase name to its time breakdown.
	Phases map[string]PhaseSummary `json:"phases"`
	// Rounds is the number of synthesis rounds completed.
	Rounds int64 `json:"rounds"`
	// LACsEvaluated/Applied/Reverted tally candidate dispositions.
	LACsEvaluated int64 `json:"lacs_evaluated"`
	LACsApplied   int64 `json:"lacs_applied"`
	LACsReverted  int64 `json:"lacs_reverted"`
	// GuardSingleLAC counts single-LAC fallback activations (l_e);
	// GuardNegativeRevert counts negative-set reverts (l_d).
	GuardSingleLAC      int64 `json:"guard_single_lac"`
	GuardNegativeRevert int64 `json:"guard_negative_revert"`
	// DuelIndpWins/DuelRandomWins count per-round duel outcomes;
	// DuelIndpWinRate is the independent set's win fraction (0 when no
	// duels ran).
	DuelIndpWins    int64   `json:"duel_indp_wins"`
	DuelRandomWins  int64   `json:"duel_random_wins"`
	DuelIndpWinRate float64 `json:"duel_indp_win_rate"`
	// SimPatterns is the total number of input patterns pushed through
	// the bit-parallel simulator; with the simulate/measure phase times
	// it yields pattern throughput.
	SimPatterns int64 `json:"sim_patterns"`
	// SATConflicts is the cumulative CDCL conflict count of
	// equivalence checks run under this recorder.
	SATConflicts int64 `json:"sat_conflicts"`
	// Workers is the resolved worker count of the parallel evaluation
	// engine (0 when the run never set one).
	Workers int64 `json:"workers,omitempty"`
	// WorkerUtilization is the mean utilization over every timed
	// parallel region of the run (0 when none were recorded); per-phase
	// distributions are in the accals_worker_utilization histogram.
	WorkerUtilization float64 `json:"worker_utilization,omitempty"`
	// LACCacheHits/LACCacheMisses tally per-target candidate lists
	// served from the incremental generator's cache versus regenerated
	// (both zero when the run did not use incremental generation).
	LACCacheHits   int64 `json:"lac_cache_hits,omitempty"`
	LACCacheMisses int64 `json:"lac_cache_misses,omitempty"`
	// CertCertified/CertRefuted/CertBudget tally certification
	// outcomes of maximum-error rounds (all zero when the run did not
	// use the MaxED metric).
	CertCertified int64 `json:"cert_certified,omitempty"`
	CertRefuted   int64 `json:"cert_refuted,omitempty"`
	CertBudget    int64 `json:"cert_budget,omitempty"`
	// TraceID names the run; it matches the trace_id field of the
	// bundle manifest.
	TraceID string `json:"trace_id,omitempty"`
}

// Summary aggregates the recorder's metrics into a Summary. A nil
// recorder yields a zero Summary.
func (r *Recorder) Summary() Summary {
	if r == nil {
		return Summary{}
	}
	s := Summary{
		Phases:              make(map[string]PhaseSummary, int(numPhases)),
		Rounds:              int64(r.roundsTotal.Value()),
		LACsEvaluated:       int64(r.lacsEvaluated.Value()),
		LACsApplied:         int64(r.lacsApplied.Value()),
		LACsReverted:        int64(r.lacsReverted.Value()),
		GuardSingleLAC:      int64(r.guardSingle.Value()),
		GuardNegativeRevert: int64(r.guardRevert.Value()),
		DuelIndpWins:        int64(r.duelIndp.Value()),
		DuelRandomWins:      int64(r.duelRandom.Value()),
		SimPatterns:         int64(r.simPatterns.Value()),
		SATConflicts:        int64(r.satConflicts.Value()),
		LACCacheHits:        int64(r.cacheHits.Value()),
		LACCacheMisses:      int64(r.cacheMisses.Value()),
		CertCertified:       int64(r.certCertified.Value()),
		CertRefuted:         int64(r.certRefuted.Value()),
		CertBudget:          int64(r.certBudget.Value()),
		TraceID:             r.traceID,
	}
	if n := s.DuelIndpWins + s.DuelRandomWins; n > 0 {
		s.DuelIndpWinRate = float64(s.DuelIndpWins) / float64(n)
	}
	for p := Phase(0); p < numPhases; p++ {
		h := r.phaseDur[p]
		if h.Count() == 0 {
			continue
		}
		s.Phases[p.String()] = PhaseSummary{Count: h.Count(), Seconds: h.Sum()}
	}
	s.Workers = int64(r.workersGauge.Value())
	var utilSum float64
	var utilCount uint64
	for p := Phase(0); p < numPhases; p++ {
		utilSum += r.utilization[p].Sum()
		utilCount += r.utilization[p].Count()
	}
	if utilCount > 0 {
		s.WorkerUtilization = utilSum / float64(utilCount)
	}
	return s
}
