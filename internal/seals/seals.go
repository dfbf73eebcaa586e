// Package seals implements the single-selection baseline flow modelled
// on SEALS (Meng et al., DAC 2022): each round, the error increases of
// all candidate LACs are estimated with the batch simulation-based
// estimator, and only the single best LAC (minimum estimated error
// increase, ties broken by larger area gain) is applied. This is the
// state-of-the-art baseline AccALS is compared against in the paper's
// Figs. 5-6 and Table II; both flows share the LAC generator and
// estimator, so measured speedups isolate the effect of multi-LAC
// selection.
package seals

import (
	"context"
	"sort"
	"strings"
	"time"

	"accals/internal/aig"
	"accals/internal/core"
	"accals/internal/errmetric"
	"accals/internal/estimator"
	"accals/internal/lac"
	"accals/internal/mapping"
	"accals/internal/obs"
	"accals/internal/runctl"
	"accals/internal/simulate"
)

// stagnationRounds is the number of consecutive no-progress rounds
// after which the greedy single-LAC flow stops. Selection is
// deterministic, so SEALS converges faster than AccALS's
// core.StagnationRounds threshold.
const stagnationRounds = 2

// Run synthesises an approximate version of orig whose error under the
// given metric does not exceed errBound, applying one LAC per round.
func Run(orig *aig.Graph, metric errmetric.Kind, errBound float64, opt core.Options) *core.Result {
	return RunCtx(context.Background(), orig, metric, errBound, opt)
}

// RunCtx is Run with a context: cancelling ctx (or reaching its
// deadline or Options.MaxRuntime) stops the run at the next round
// boundary, returning the best circuit so far with StopReason
// Cancelled or DeadlineExceeded.
func RunCtx(ctx context.Context, orig *aig.Graph, metric errmetric.Kind, errBound float64, opt core.Options) *core.Result {
	start := time.Now()
	pats := opt.Patterns(orig)
	cmp := errmetric.NewComparator(metric, orig, pats)
	return RunWithComparatorCtx(ctx, orig, cmp, errBound, opt, start)
}

// RunWithComparator is Run with a caller-supplied comparator.
func RunWithComparator(orig *aig.Graph, cmp *errmetric.Comparator, errBound float64, opt core.Options, start time.Time) *core.Result {
	return RunWithComparatorCtx(context.Background(), orig, cmp, errBound, opt, start)
}

// RunWithComparatorCtx is RunCtx with a caller-supplied comparator.
func RunWithComparatorCtx(ctx context.Context, orig *aig.Graph, cmp *errmetric.Comparator, errBound float64, opt core.Options, start time.Time) *core.Result {
	if start.IsZero() {
		start = time.Now()
	}
	params := opt.Params
	maxRounds := params.MaxRounds
	if maxRounds == 0 {
		maxRounds = 1 << 20
	}
	ctl := runctl.NewController(ctx, opt.MaxRuntime, start)
	rec := opt.Recorder
	patCount := cmp.Patterns().NumPatterns()
	// The flow shares the parallel evaluation engine with core:
	// sharded base simulation, sharded estimation and cone-overlay
	// measurement, bit-identical at any Options.Workers setting.
	runner := simulate.NewRunner(opt.Workers)
	est := estimator.New(opt.Workers)
	// Each round's fanout index and measured error.
	var fo aig.Fanouts
	var measured [1]float64
	rec.SetWorkers(runner.Workers())

	gNew := orig.Clone()
	e := 0.0
	round0 := 0
	if opt.Start != nil && opt.Start.Graph != nil {
		gNew = opt.Start.Graph.Clone()
		e = cmp.Error(gNew)
		round0 = opt.Start.Round
	}
	g := gNew
	eG := e
	result := &core.Result{}
	noProgress := 0
	reason := runctl.Bounded

	// Round ledger (see internal/ledger): the single-selection flow
	// emits the subset of the event vocabulary it has — one applied LAC
	// per round, no conflict graph or duel columns. Guarded by led so an
	// unledgered run never invokes the technology mapper.
	led := rec.Ledgering()
	if led {
		area, _ := mapping.AreaDelay(g)
		rec.EmitMeta(obs.RunMeta{
			Method:       "seals",
			Circuit:      orig.Name,
			Metric:       strings.ToLower(cmp.Kind().String()),
			Bound:        errBound,
			Seed:         params.Seed,
			Patterns:     patCount,
			Workers:      runner.Workers(),
			InitialAnds:  g.NumAnds(),
			InitialArea:  area,
			InitialDepth: g.Depth(),
			StartRound:   round0,
			Resumed:      opt.Start != nil && opt.Start.Graph != nil,
		})
	}

	for round := round0; ; round++ {
		if e > errBound {
			reason = runctl.Bounded
			break
		}
		g, eG = gNew, e
		if round >= maxRounds {
			reason = runctl.MaxRounds
			break
		}
		if r, stop := ctl.Stop(); stop {
			reason = r
			break
		}
		roundStart := time.Now()
		rs := core.RoundStats{Round: round, NumAnds: g.NumAnds()}
		rec.BeginRound(round)
		roundSpan := rec.StartPhase(round, obs.PhaseRound)

		simSpan := rec.StartPhase(round, obs.PhaseSimulate)
		simRes, serr := runner.RunRec(g, cmp.Patterns(), rec)
		simSpan.End()
		if serr != nil {
			roundSpan.End()
			reason = runctl.Failed
			break
		}
		rec.CountSimPatterns(patCount)

		genSpan := rec.StartPhase(round, obs.PhaseGenerate)
		cands := lac.Generate(g, simRes, opt.GenCfg)
		genSpan.End()
		rs.Candidates = len(cands)
		rec.CountCandidates(len(cands))
		if len(cands) == 0 {
			roundSpan.End()
			reason = runctl.Stagnated
			break
		}
		if opt.ExactEstimates {
			est.EstimateAllExactRec(g, simRes, cmp, cands, rec)
		} else {
			est.EstimateAllRec(g, simRes, cmp, cands, rec)
		}
		best := selectBest(cands)

		applySpan := rec.StartPhase(round, obs.PhaseApply)
		gNew = lac.Apply(g, []*lac.LAC{best})
		applySpan.End()
		// Measure by resimulating what the winner changes on the base
		// simulation — bit-identical to cmp.Error(gNew) since Rebuild
		// preserves output functions.
		measureSpan := rec.StartPhase(round, obs.PhaseMeasure)
		g.FanoutsInto(&fo)
		est.MeasureSets(g, simRes, cmp, &fo, [][]*lac.LAC{{best}}, measured[:])
		e = measured[0]
		measureSpan.End()
		rec.CountSimPatterns(patCount)
		runner.Release(simRes)
		// A candidate may rebuild the same function without shrinking
		// the circuit (its gain estimate was optimistic); selection is
		// deterministic, so repeated stagnation means convergence.
		if gNew.NumAnds() >= g.NumAnds() && e <= eG {
			noProgress++
			if noProgress >= stagnationRounds {
				gNew, e = g, eG
				roundSpan.End()
				reason = runctl.Stagnated
				break
			}
		} else {
			noProgress = 0
		}
		rs.AppliedLACs = 1
		rs.Error = e
		rs.EstimatedErr = eG + best.DeltaE
		rs.NoProgress = noProgress
		rs.RoundDuration = time.Since(roundStart)
		result.Rounds = append(result.Rounds, rs)
		result.LACsApplied++
		rec.CountApplied(1)
		roundSpan.End()
		rec.EndRound(round, e, gNew.NumAnds(), noProgress, 1)
		if led {
			ev := obs.RoundEvent{
				Round:      round,
				Candidates: rs.Candidates,
				BudgetLeft: errBound - eG,
				EstErr:     rs.EstimatedErr,
				Error:      e,
				NumAnds:    gNew.NumAnds(),
				Depth:      gNew.Depth(),
				NoProgress: noProgress,
				DurationUS: rs.RoundDuration.Microseconds(),
				Applied: []obs.AppliedLAC{{
					Target: best.Target, Gain: best.Gain,
					DeltaE: best.DeltaE, MeasuredErr: e,
				}},
			}
			ev.Area, _ = mapping.AreaDelay(gNew)
			rec.EmitRound(ev)
		}
		if opt.Progress != nil {
			snap := rs
			snap.Graph = gNew.Clone()
			opt.Progress(snap)
		}
	}

	result.Final = g
	result.Error = eG
	result.StopReason = reason
	result.Runtime = time.Since(start)
	if led {
		area, _ := mapping.AreaDelay(g)
		rec.EmitFinish(obs.RunFinish{
			StopReason:  reason.String(),
			Rounds:      round0 + len(result.Rounds),
			Error:       eG,
			NumAnds:     g.NumAnds(),
			Area:        area,
			Depth:       g.Depth(),
			LACsApplied: result.LACsApplied,
			RuntimeUS:   result.Runtime.Microseconds(),
		})
	}
	rec.Finish(reason.String())
	return result
}

// selectBest returns the LAC with the minimum estimated error
// increase, breaking ties by larger gain then target id.
func selectBest(cands []*lac.LAC) *lac.LAC {
	best := cands[0]
	for _, c := range cands[1:] {
		if less(c, best) {
			best = c
		}
	}
	return best
}

func less(a, b *lac.LAC) bool {
	if a.DeltaE != b.DeltaE {
		return a.DeltaE < b.DeltaE
	}
	if a.Gain != b.Gain {
		return a.Gain > b.Gain
	}
	return a.Target < b.Target
}

// SortCandidates orders LACs with the flow's comparison; exported for
// tests.
func SortCandidates(cands []*lac.LAC) {
	sort.SliceStable(cands, func(i, j int) bool { return less(cands[i], cands[j]) })
}
