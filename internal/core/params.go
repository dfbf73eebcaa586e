// Package core implements the AccALS framework (Algorithm 1 of the
// paper): an iterative approximate logic synthesis flow that applies
// multiple local approximate changes per round. Each round it
//
//  1. generates and estimates candidate LACs (package lac/estimator),
//  2. keeps a top set sized by Eq. (2),
//  3. extracts a conflict-free subset via a LAC conflict graph,
//  4. selects an independent LAC set by thresholding the structural
//     mutual-influence index p_ji and solving a maximum independent
//     set problem,
//  5. also draws a random conflict-free set, applies both, and keeps
//     the better circuit,
//
// with the paper's two improvement techniques: single-LAC fallback
// near the error bound, and revert-on-negative-set.
package core

import (
	"time"

	"accals/internal/aig"
	"accals/internal/runctl"
)

// Params holds the AccALS hyper-parameters. Zero values are replaced
// by the paper's defaults (Section III).
type Params struct {
	// TB is the threshold t_b on the mutual-influence index p_ji above
	// which two LACs are considered likely dependent. Paper: 0.5.
	TB float64
	// Lambda bounds the per-round estimated error to Lambda*errBound.
	// Paper: 0.9.
	Lambda float64
	// LE triggers single-LAC selection once the error exceeds
	// LE*errBound. Paper: 0.9.
	LE float64
	// LD is the relative error difference beta above which the applied
	// set is declared negative and the round is redone with a single
	// LAC. Paper: 0.3.
	LD float64
	// RRef is the reference top-LAC count r_ref in Eq. (2).
	RRef int
	// RSel is the reference selected-LAC count r_sel.
	RSel int
	// Seed drives the random LAC set selection and the MIS restarts.
	// Each round derives its own generator from (Seed, round), so a
	// resumed run replays exactly the same random choices as an
	// uninterrupted one. A zero Seed means "use the default seed (1)"
	// unless HasSeed is set.
	Seed int64
	// HasSeed marks Seed as explicit, making a zero seed usable.
	// Without it, Seed == 0 is the historical "default, please" sentinel
	// and is remapped to 1.
	HasSeed bool
	// MaxRounds caps the number of synthesis rounds as a safety net.
	// Round numbers are global across resumed runs: resuming at round
	// 50 with MaxRounds 60 runs at most 10 more rounds.
	MaxRounds int

	// Ablation switches (all false in the paper's configuration; used
	// by the ablation benchmarks to quantify each design choice).

	// DisableIndp skips the MIS-based independent LAC set, leaving
	// only the random set per round.
	DisableIndp bool
	// DisableRandom skips the random LAC set, leaving only the
	// independent set per round.
	DisableRandom bool
	// DisableImprovements turns off both improvement techniques of
	// Section II-E (single-LAC fallback near the bound, and the
	// negative-set/overshoot revert).
	DisableImprovements bool
}

// DefaultParams returns the paper's parameter choices, with r_ref and
// r_sel scaled by circuit size exactly as in Section III: <600 AIG
// nodes -> 100/20, 600..4999 -> 200/40, >=5000 -> 400/80.
func DefaultParams(numAnds int) Params {
	p := Params{
		TB:        0.5,
		Lambda:    0.9,
		LE:        0.9,
		LD:        0.3,
		Seed:      1,
		MaxRounds: 1 << 20,
	}
	switch {
	case numAnds < 600:
		p.RRef, p.RSel = 100, 20
	case numAnds < 5000:
		p.RRef, p.RSel = 200, 40
	default:
		p.RRef, p.RSel = 400, 80
	}
	return p
}

// fillDefaults replaces zero-valued fields with defaults for the given
// circuit size.
func (p Params) fillDefaults(numAnds int) Params {
	d := DefaultParams(numAnds)
	if p.TB == 0 {
		p.TB = d.TB
	}
	if p.Lambda == 0 {
		p.Lambda = d.Lambda
	}
	if p.LE == 0 {
		p.LE = d.LE
	}
	if p.LD == 0 {
		p.LD = d.LD
	}
	if p.RRef == 0 {
		p.RRef = d.RRef
	}
	if p.RSel == 0 {
		p.RSel = d.RSel
	}
	if p.Seed == 0 && !p.HasSeed {
		p.Seed = d.Seed
	}
	if p.MaxRounds == 0 {
		p.MaxRounds = d.MaxRounds
	}
	return p
}

// StagnationRounds is the number of consecutive rounds without
// progress (no size reduction and no error movement) after which the
// AccALS flow stops with StopReason Stagnated. RoundStats.NoProgress
// exposes the live counter, so a Stagnated stop is explainable from
// the round trajectory.
const StagnationRounds = 4

// RoundStats records what happened in one synthesis round, feeding the
// paper's statistical analysis (Fig. 4).
type RoundStats struct {
	Round      int
	Candidates int
	TopSize    int
	// ConflictEdges counts the edges of the LAC conflict graph
	// (Definition 1) built over the top set.
	ConflictEdges int
	SolSize       int
	// InflPairs is the number of target pairs scored by the
	// mutual-influence index p_ji; InflAbove counts those above the t_b
	// threshold (the edges of G_sol); MISSize is the solved |N_indp|.
	InflPairs int
	InflAbove int
	MISSize   int
	IndpSize  int
	RandSize  int
	// HasDuel marks rounds in which both candidate sets were measured;
	// DuelIndpErr/DuelRandErr are then their measured errors.
	HasDuel     bool
	DuelIndpErr float64
	DuelRandErr float64
	AppliedLACs int
	PickedIndp  bool
	MultiRound  bool // false when the single-LAC fallback ran
	GuardSingle bool // improvement technique 1 fired
	Reverted    bool // improvement technique 2 fired
	// CertRan marks rounds whose circuit went through SAT
	// certification (MaxED runs whose measured error passed the
	// bound); Certified is the verdict — a false verdict (bound
	// refuted on an unsampled input, or conflict budget exhausted)
	// rejects the round and stops the run with StopReason Uncertified.
	// CertConflicts is the solver effort the attempt spent.
	CertRan       bool
	Certified     bool
	CertConflicts int64
	Error         float64
	EstimatedErr  float64
	NumAnds       int
	// NoProgress is the stagnation-guard state after this round: the
	// number of consecutive rounds (including this one) that neither
	// shrank the circuit nor moved the error. The run stops with
	// StopReason Stagnated when it reaches StagnationRounds.
	NoProgress    int
	RoundDuration time.Duration
	// Graph is the circuit produced by this round. It is only set on
	// the copy passed to the Progress callback (so trajectory
	// consumers can inspect or map it) and is nil in Result.Rounds to
	// avoid retaining every intermediate circuit.
	Graph *aig.Graph
}

// StopReason records why a run ended; see accals/internal/runctl.
type StopReason = runctl.StopReason

// Result is the outcome of a synthesis run.
type Result struct {
	// Final is the synthesised approximate circuit; its error is
	// guaranteed to be at most the bound under the evaluation
	// pattern set.
	Final *aig.Graph
	// Error is the final circuit's measured error.
	Error float64
	// StopReason records why the run ended: runctl.Bounded (the next
	// step would exceed the error bound), runctl.MaxRounds,
	// runctl.Stagnated, runctl.Cancelled or runctl.DeadlineExceeded.
	// For the interrupted reasons Final still holds the best circuit
	// accepted so far, whose error is within the bound.
	StopReason StopReason
	// Rounds records per-round statistics.
	Rounds []RoundStats
	// LACsApplied is the total number of LACs applied.
	LACsApplied int
	// Certified is true for MaxED runs: every circuit the run adopted
	// carried a SAT proof that its worst-case error distance stays
	// within the bound on all inputs (the exact circuit trivially so).
	// Always false for the statistical metrics, whose Error is only a
	// sampled estimate.
	Certified bool
	// CertConflicts is the total CDCL conflict effort spent on SAT
	// certification across the run.
	CertConflicts int64
	// Runtime is the wall-clock synthesis time.
	Runtime time.Duration
}

// IndpRatio returns the fraction of multi-selection rounds in which
// the independent LAC set beat the random set (the paper's Fig. 4
// statistic). It returns 0 when no multi-selection rounds ran.
func (r *Result) IndpRatio() float64 {
	multi, indp := 0, 0
	for _, s := range r.Rounds {
		if s.MultiRound && !s.Reverted {
			multi++
			if s.PickedIndp {
				indp++
			}
		}
	}
	if multi == 0 {
		return 0
	}
	return float64(indp) / float64(multi)
}
