package core

import (
	"context"
	"math/rand"
	"strings"
	"time"

	"accals/internal/aig"
	"accals/internal/errmetric"
	"accals/internal/estimator"
	"accals/internal/lac"
	"accals/internal/mapping"
	"accals/internal/maxerr"
	"accals/internal/obs"
	"accals/internal/runctl"
	"accals/internal/simulate"
)

// pendingSim is an in-flight prefetched base simulation: the next
// round's circuit simulated on a background goroutine while the main
// loop finishes the current round's bookkeeping. done is closed when
// res/err are ready; the channel close is the happens-before edge that
// hands the runner back to the main loop.
type pendingSim struct {
	g    *aig.Graph
	res  *simulate.Result
	err  error
	done chan struct{}
}

// Options configures a synthesis run (shared by AccALS and the
// baseline flows).
type Options struct {
	// Params are the AccALS hyper-parameters; zero fields default to
	// the paper's values scaled by circuit size.
	Params Params
	// GenCfg configures candidate LAC generation; zero fields default
	// by circuit size.
	GenCfg lac.Config
	// NumPatterns is the Monte-Carlo sample size used when the
	// circuit has too many inputs for exhaustive simulation.
	// Defaults to DefaultPatterns.
	NumPatterns int
	// PatternSeed seeds the Monte-Carlo pattern generator. A zero seed
	// means "use the default (12345)" unless HasPatternSeed is set.
	PatternSeed int64
	// HasPatternSeed marks PatternSeed as explicit, making a zero
	// pattern seed usable.
	HasPatternSeed bool
	// InputProbs, when non-nil, gives the probability of each primary
	// input being 1, realising a non-uniform input distribution (the
	// paper's flows assume uniform inputs but the framework supports
	// any distribution). Length must match the circuit's input count.
	InputProbs []float64
	// ExactEstimates replaces the fast change-propagation estimator
	// with exact per-candidate measurement: each ΔE is the candidate's
	// error increase under the pattern set, from resimulating what it
	// changes. A synthesis takes about 7 times as long on mtp8 under
	// NMED and 10 times on wal8 under MaxED (8192 patterns, one
	// worker); used by the estimator ablation.
	ExactEstimates bool
	// Progress, when non-nil, receives each round's statistics as the
	// run proceeds. The snapshot is independent of the run's state —
	// the embedded Graph is a deep copy — so the callback may retain
	// or mutate it freely without affecting the synthesis.
	Progress func(RoundStats)
	// Recorder, when non-nil, receives the run's instrumentation:
	// per-phase spans, LAC/guard/duel counters and the live status
	// snapshot served by the introspection server. A nil recorder is
	// a no-op and costs one nil check per instrumentation point.
	Recorder *obs.Recorder
	// MaxRuntime, when positive, bounds the run's wall-clock time from
	// its start, returning the best circuit so far with StopReason
	// DeadlineExceeded; a deadline on the run's context does the same.
	// Checked once per round.
	MaxRuntime time.Duration
	// Start, when non-nil, warm-starts the run from a checkpointed
	// state instead of a fresh copy of the original circuit.
	Start *StartState
	// Workers is the parallel evaluation engine's worker budget: 0 (or
	// negative) means one worker per CPU, 1 forces the exact legacy
	// sequential path, any other value is used as-is. Results are
	// bit-identical at every setting — sharding boundaries are fixed
	// and merges use exactly associative operations — so Workers only
	// trades wall-clock time for cores.
	Workers int
	// Incremental enables the incremental round engine: after each
	// Apply the run computes the dirty cone of the change and reuses
	// the previous round's per-target LAC candidate lists for every
	// clean node, regenerating only inside the cone. The trajectory is
	// bit-identical to a from-scratch run — same circuits, per-round
	// errors and stop reason — so the switch only trades memory for
	// per-round time. The cache lives in memory for the duration of one
	// run; a resumed run's first round is a full generation.
	Incremental bool
	// CertBudget caps the CDCL conflicts each SAT certification may
	// spend under the MaxED metric: 0 means DefaultCertBudget, a
	// negative value means unlimited. A round whose certification
	// exhausts the budget is rejected and the run stops with
	// StopReason Uncertified — budget exhaustion is never acceptance.
	// Only circuits with more than simulate.ExhaustiveLimit (16) inputs
	// are certified by SAT; narrower ones are certified by exhaustive
	// simulation, which has no budget (see maxerr.BySimulation).
	// Ignored by the statistical metrics.
	CertBudget int64
}

// DefaultCertBudget is the per-round conflict budget of MaxED SAT
// certification (circuits above simulate.ExhaustiveLimit inputs) when
// Options.CertBudget is zero.
const DefaultCertBudget = 1 << 20

// StartState warm-starts a run from a previously checkpointed circuit
// (see internal/checkpoint). The graph must have the same PI/PO
// interface as the original; its error is re-measured against the
// reference comparator, so the pattern configuration should match the
// interrupted run's for the resumed trajectory to be meaningful.
type StartState struct {
	// Graph is the approximate circuit to resume from.
	Graph *aig.Graph
	// Round is the round number the resumed run starts at (one past
	// the checkpointed round).
	Round int
}

// estimate runs the configured estimation mode (fast or exact) on the
// run's Estimator, threading the recorder through for the
// estimate-phase span.
func (o Options) estimate(est *estimator.Estimator, g *aig.Graph, simRes *simulate.Result, cmp *errmetric.Comparator, cands []*lac.LAC) float64 {
	if o.ExactEstimates {
		return est.EstimateAllExactRec(g, simRes, cmp, cands, o.Recorder)
	}
	return est.EstimateAllRec(g, simRes, cmp, cands, o.Recorder)
}

// DefaultPatterns is the default Monte-Carlo sample size.
const DefaultPatterns = 2048

// Patterns builds the evaluation pattern set for g under the options:
// exhaustive for small input counts, seeded Monte-Carlo otherwise.
func (o Options) Patterns(g *aig.Graph) *simulate.Patterns {
	n := o.NumPatterns
	if n == 0 {
		n = DefaultPatterns
	}
	seed := o.PatternSeed
	if seed == 0 && !o.HasPatternSeed {
		seed = 12345
	}
	if o.InputProbs != nil {
		return simulate.Biased(g.NumPIs(), o.InputProbs, n, seed)
	}
	return simulate.NewPatterns(g.NumPIs(), n, seed)
}

// roundSeed derives the per-round RNG seed from the run seed. Deriving
// a fresh generator per round (rather than streaming one generator
// through the whole run) is what makes checkpoint/resume exact: round
// k of a resumed run draws the same random LAC sets as round k of an
// uninterrupted one. The mix is SplitMix64's finalizer.
func roundSeed(seed int64, round int) int64 {
	x := uint64(seed) + uint64(round+1)*0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return int64(x)
}

// Run synthesises an approximate version of orig whose error under the
// given metric does not exceed errBound, using the AccALS multi-LAC
// selection framework (Algorithm 1).
func Run(orig *aig.Graph, metric errmetric.Kind, errBound float64, opt Options) *Result {
	return RunCtx(context.Background(), orig, metric, errBound, opt)
}

// RunCtx is Run with a context: cancelling ctx (or passing a context
// with a deadline) stops the run at the next round boundary, returning
// the best circuit accepted so far with StopReason Cancelled or
// DeadlineExceeded.
func RunCtx(ctx context.Context, orig *aig.Graph, metric errmetric.Kind, errBound float64, opt Options) *Result {
	start := time.Now()
	pats := opt.Patterns(orig)
	cmp := errmetric.NewComparator(metric, orig, pats)
	return RunWithComparatorCtx(ctx, orig, cmp, errBound, opt, start)
}

// RunWithComparator is Run with a caller-supplied comparator, allowing
// experiments to share the reference simulation across flows.
func RunWithComparator(orig *aig.Graph, cmp *errmetric.Comparator, errBound float64, opt Options, start time.Time) *Result {
	return RunWithComparatorCtx(context.Background(), orig, cmp, errBound, opt, start)
}

// RunWithComparatorCtx is RunCtx with a caller-supplied comparator.
func RunWithComparatorCtx(ctx context.Context, orig *aig.Graph, cmp *errmetric.Comparator, errBound float64, opt Options, start time.Time) *Result {
	if start.IsZero() {
		start = time.Now()
	}
	params := opt.Params.fillDefaults(orig.NumAnds())
	genCfg := opt.GenCfg
	ctl := runctl.NewController(ctx, opt.MaxRuntime, start)

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
	result := &Result{}
	noProgress := 0
	reason := runctl.Bounded
	rec := opt.Recorder
	patCount := cmp.Patterns().NumPatterns()

	// Certification (MaxED only): every accepted circuit must carry
	// a proof that its worst-case error distance stays within the bound
	// on ALL inputs, not just the sampled patterns. The sampled MaxED
	// is a lower bound, so the statistical loop acts as a cheap filter
	// and the certifier has the final word on each round.
	certEnabled := cmp.Kind() == errmetric.MaxED
	var certBound uint64
	certBudget := opt.CertBudget
	if certEnabled {
		certBound = uint64(errBound)
		if certBudget == 0 {
			certBudget = DefaultCertBudget
		}
		if certBudget < 0 {
			certBudget = 0 // unlimited for the solver
		}
	}
	certify := func(cand *aig.Graph) (bool, int64) {
		return certifyAgainst(cand, orig, certBound, certBudget, rec)
	}
	startUncertified := false
	if certEnabled && opt.Start != nil && opt.Start.Graph != nil {
		// A checkpoint is not a certificate: the warm-start circuit
		// re-enters the certified-acceptance invariant only through its
		// own proof.
		ok, conflicts := certify(gNew)
		result.CertConflicts += conflicts
		startUncertified = !ok || e > errBound
	}

	// The parallel evaluation engine: a sharded simulation runner, a
	// sharded estimator and the selector (ranking, G_sol and MIS
	// scratch) sharing the run's worker budget. Workers: 1
	// is the exact legacy sequential path; any other count produces
	// bit-identical results (fixed shard boundaries, order-free
	// merges), so the trajectory below never depends on Workers.
	runner := simulate.NewRunner(opt.Workers)
	est := estimator.New(opt.Workers)
	sel := newSelector(opt.Workers)
	parallel := runner.Workers() > 1
	rec.SetWorkers(runner.Workers())
	genCfg.Workers = opt.Workers

	// Work outside every phase — the round tail and the ledger's
	// technology mapping — is not phase-histogram work, but it is
	// wall-clock the trace timeline must account for: trace-only spans
	// (Tracing-gated, so an untraced run pays nothing) keep
	// `report -timeline`'s unattributed remainder honest.
	tracing := rec.Tracing()

	// The round ledger: with a sink attached, the run opens with a
	// RunMeta, every round emits its full decision record, and the
	// trajectory carries mapped area and logic depth. All of it is
	// guarded by led so an unledgered run allocates no events and never
	// invokes the technology mapper.
	led := rec.Ledgering()
	// mappedArea is the ledger's technology mapping of g, under a
	// trace-only span.
	mappedArea := func(round int, g *aig.Graph) float64 {
		var t0 time.Time
		if tracing {
			t0 = time.Now()
		}
		area, _ := mapping.AreaDelay(g)
		if tracing {
			rec.EmitEvent(obs.TraceEvent{Name: "ledger-map", Round: round, Start: t0, Dur: time.Since(t0)})
		}
		return area
	}
	if led {
		area := mappedArea(round0, g)
		rec.EmitMeta(obs.RunMeta{
			Method:       "accals",
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

	// The incremental round engine: gen caches per-target candidate
	// lists across rounds and is rebased through the aig.Delta of each
	// round's final rebuild. Off (nil) unless opt.Incremental.
	var gen *lac.Generator
	if opt.Incremental {
		gen = lac.NewGenerator(opt.Workers)
	}
	generate := func(g *aig.Graph, simRes *simulate.Result) []*lac.LAC {
		if gen != nil {
			return gen.Generate(g, simRes, genCfg, rec)
		}
		return lac.Generate(g, simRes, genCfg)
	}
	// noteApply rebases the candidate cache through the round's final
	// rebuild: g → gNew via the literal map am, with applied the LAC set
	// of that rebuild. A reverted round calls this once, for the
	// single-LAC rebuild that actually produced gNew — the discarded
	// multi-LAC rebuild is never noted, which is all the rollback the
	// cache needs.
	noteApply := func(g, gNew *aig.Graph, am []aig.Lit, applied []*lac.LAC) {
		if gen == nil {
			return
		}
		gen.NoteApply(aig.NewDelta(g, gNew, am, lac.Targets(applied)), applied)
	}

	// measure evaluates candidate LAC sets' true errors under one
	// measure-phase span, side by side when the worker budget allows.
	// Rather than building and fully resimulating each candidate
	// circuit, the estimator resimulates only what a set changes on the
	// round's base simulation, through the round's fanout index fo —
	// bit-identical to cmp.Error(lac.Apply(base, set)) because Rebuild
	// preserves output functions. The returned errors alias errs.
	var fo aig.Fanouts
	var errs [2]float64
	measure := func(round int, base *aig.Graph, simRes *simulate.Result, sets ...[]*lac.LAC) []float64 {
		sp := rec.StartPhase(round, obs.PhaseMeasure)
		out := errs[:len(sets)]
		est.MeasureSets(base, simRes, cmp, &fo, sets, out)
		sp.End()
		for range sets {
			rec.CountSimPatterns(patCount)
		}
		return out
	}

	// pend is the prefetched base simulation of the next round's
	// circuit, overlapped with end-of-round bookkeeping (progress
	// clone, checkpointing). The next simulate phase joins it; every
	// other exit joins it in the deferred handler below — deferred
	// rather than placed after the loop so that a panicking Progress
	// callback (recovered by runctl.Guard at the public API boundary)
	// cannot leak the goroutine and its pinned graph and result.
	var pend *pendingSim
	defer func() {
		if pend != nil {
			<-pend.done
			runner.Release(pend.res)
		}
	}()
	startPrefetch := func(round int) {
		if !parallel || e > errBound || round+1 >= params.MaxRounds || noProgress >= StagnationRounds {
			return
		}
		pend = &pendingSim{g: gNew, done: make(chan struct{})}
		go func(p *pendingSim) {
			p.res, p.err = runner.Run(p.g, cmp.Patterns())
			close(p.done)
		}(pend)
	}

	if startUncertified {
		// Reject the unprovable checkpoint outright: the run falls back
		// to the exact circuit (trivially within any bound) and the
		// stop reason tells the caller the resume was not adopted.
		g = orig.Clone()
		eG = cmp.Error(g)
		gNew, e = g, eG
		reason = runctl.Uncertified
	}
	// lastRound is the last round begun (round0 before the first); the
	// final mapping's trace span is charged to it.
	lastRound := round0
	for round := round0; !startUncertified; round++ {
		if e > errBound {
			reason = runctl.Bounded
			break
		}
		// gNew is within the bound: accept it as the new best.
		g, eG = gNew, e
		if round >= params.MaxRounds {
			reason = runctl.MaxRounds
			break
		}
		if r, stop := ctl.Stop(); stop {
			reason = r
			break
		}
		rng := rand.New(rand.NewSource(roundSeed(params.Seed, round)))
		roundStart := time.Now()
		rec.BeginRound(round)
		lastRound = round
		roundSpan := rec.StartPhase(round, obs.PhaseRound)
		rs := RoundStats{Round: round, NumAnds: g.NumAnds()}

		sp := rec.StartPhase(round, obs.PhaseSimulate)
		var simRes *simulate.Result
		var serr error
		if pend != nil {
			<-pend.done
			if pend.g == g {
				simRes, serr = pend.res, pend.err
			} else {
				// Defensive: the prefetched circuit is not this
				// round's base; recycle and simulate the actual one.
				runner.Release(pend.res)
			}
			pend = nil
		}
		if simRes == nil && serr == nil {
			simRes, serr = runner.RunRec(g, cmp.Patterns(), rec)
		}
		sp.End()
		if serr != nil {
			// Only reachable through a warm start whose interface
			// slipped validation; keep the best accepted circuit.
			roundSpan.End()
			reason = runctl.Failed
			break
		}
		rec.CountSimPatterns(patCount)

		sp = rec.StartPhase(round, obs.PhaseGenerate)
		cands := generate(g, simRes)
		sp.End()
		rs.Candidates = len(cands)
		rec.CountCandidates(len(cands))
		if len(cands) == 0 {
			roundSpan.End()
			reason = runctl.Stagnated
			break
		}
		opt.estimate(est, g, simRes, cmp, cands)
		sel.rankTop(cands, params.RRef)
		g.FanoutsInto(&fo)

		var applied []*lac.LAC
		if e > params.LE*errBound && !params.DisableImprovements {
			// Improvement technique 1: single-LAC selection close to
			// the error bound.
			rec.GuardSingleLAC()
			rs.GuardSingle = true
			applied = cands[:1]
			e = measure(round, g, simRes, applied)[0]
		} else {
			rs.MultiRound = true
			sp = rec.StartPhase(round, obs.PhaseConflictGraph)
			lTop := obtainTopSet(cands, e, errBound, params.RRef)
			rs.TopSize = len(lTop)
			lSol, _, confEdges := findSolveLACConf(lTop)
			sp.End()
			rs.ConflictEdges = confEdges
			rs.SolSize = len(lSol)
			var lIndp, lRand []*lac.LAC
			if !params.DisableIndp {
				sp = rec.StartPhase(round, obs.PhaseMIS)
				var ist indpStats
				lIndp, ist = sel.selectIndp(g, &fo, lSol, e, errBound, params)
				rs.InflPairs, rs.InflAbove, rs.MISSize = ist.pairs, ist.above, ist.misSize
				sp.End()
			}
			if !params.DisableRandom {
				lRand = selectRandomLACs(lSol, e, errBound, params, rng)
			}
			if lIndp == nil && lRand == nil {
				// Both sets ablated away: degenerate to single selection.
				lRand = lSol[:1]
			}
			rs.IndpSize = len(lIndp)
			rs.RandSize = len(lRand)

			switch {
			case lIndp == nil:
				applied = lRand
				e = measure(round, g, simRes, applied)[0]
			case lRand == nil:
				applied = lIndp
				e = measure(round, g, simRes, applied)[0]
				rs.PickedIndp = true
			default:
				// The duel: measure both candidate sets side by side on
				// the shared base simulation. Only the winner's circuit
				// is built — measurement needs the output words, not the
				// rewritten graph.
				duel := measure(round, g, simRes, lIndp, lRand)
				e1, e2 := duel[0], duel[1]
				rs.HasDuel = true
				rs.DuelIndpErr, rs.DuelRandErr = e1, e2
				if e1 < e2 || (e1 == e2 && len(lIndp) >= len(lRand)) {
					e, applied = e1, lIndp
					rs.PickedIndp = true
				} else {
					e, applied = e2, lRand
				}
				rec.DuelOutcome(rs.PickedIndp)
			}
		}
		sp = rec.StartPhase(round, obs.PhaseApply)
		var am []aig.Lit
		gNew, am = lac.ApplyMapped(g, applied)
		sp.End()
		rs.EstimatedErr = estimatedError(eG, applied)

		// Improvement technique 2: detect a negative LAC set by the
		// relative gap between actual and estimated error; if
		// triggered, redo the round with the single best LAC. The
		// same fallback fires when a multi-LAC set overshoots the
		// error bound outright — terminating there would strand the
		// remaining error budget on coarse-grained candidates.
		if rs.MultiRound && e > 0 && !params.DisableImprovements {
			beta := (e - rs.EstimatedErr) / e
			if beta > params.LD || (e > errBound && len(applied) > 1) {
				rec.GuardNegativeRevert()
				rec.CountReverted(len(applied))
				rs.Reverted = true
				sp = rec.StartPhase(round, obs.PhaseRevert)
				applied = cands[:1]
				gNew, am = lac.ApplyMapped(g, applied)
				est.MeasureSets(g, simRes, cmp, &fo, [][]*lac.LAC{applied}, errs[:1])
				e = errs[0]
				sp.End()
				rec.CountSimPatterns(patCount)
			}
		}

		// Certification (MaxED): the statistical measurement above is a
		// lower bound over sampled patterns; only a proof over the
		// error miter (exhaustive simulation or SAT) admits the round.
		// Runs after the revert so the circuit proved is the one that
		// would be adopted.
		if certEnabled && e <= errBound {
			rs.CertRan = true
			rs.Certified, rs.CertConflicts = certify(gNew)
			result.CertConflicts += rs.CertConflicts
		}

		// Stagnation guard state: optimistic gain estimates can
		// produce multi-LAC rounds that neither shrink the circuit nor
		// move the error; a few such rounds in a row means convergence.
		// Guard-single rounds leave the counter alone. It is updated
		// before the stats are published so RoundStats.NoProgress
		// explains an upcoming Stagnated stop.
		if rs.MultiRound {
			if gNew.NumAnds() >= g.NumAnds() && e <= eG {
				noProgress++
			} else {
				noProgress = 0
			}
		}
		var tailT0 time.Time
		var measured []float64
		if led {
			if tracing {
				tailT0 = time.Now()
			}
			measured = est.MeasureEach(g, simRes, cmp, &fo, applied, rec)
			if tracing {
				rec.EmitEvent(obs.TraceEvent{Name: "measure-each", Round: round, Start: tailT0, Dur: time.Since(tailT0)})
			}
		}
		runner.Release(simRes)
		// One rebase per round, with the rebuild that actually produced
		// gNew: the revert above overwrites applied and am before the
		// cache ever sees the discarded multi-LAC rebuild.
		if tracing {
			tailT0 = time.Now()
		}
		noteApply(g, gNew, am, applied)
		startPrefetch(round)
		if tracing {
			rec.EmitEvent(obs.TraceEvent{Name: "rebase", Round: round, Start: tailT0, Dur: time.Since(tailT0)})
		}
		rs.NoProgress = noProgress
		rs.AppliedLACs = len(applied)
		rs.Error = e
		rs.RoundDuration = time.Since(roundStart)
		roundSpan.End()
		result.Rounds = append(result.Rounds, rs)
		result.LACsApplied += len(applied)
		rec.CountApplied(len(applied))
		rec.EndRound(round, e, gNew.NumAnds(), noProgress, len(applied))
		if led {
			rec.EmitRound(ledgerRound(rs, gNew, mappedArea(round, gNew), errBound-eG, applied, measured))
		}
		emitProgress(opt.Progress, rs, gNew)
		if rs.CertRan && !rs.Certified {
			// The sampled error passed but the proof did not (bound
			// refuted on an unsampled input, or the conflict budget ran
			// out): reject the round, keep the last certified circuit.
			gNew, e = g, eG
			reason = runctl.Uncertified
			break
		}
		if noProgress >= StagnationRounds {
			gNew, e = g, eG
			reason = runctl.Stagnated
			break
		}
	}

	result.Final = g
	result.Error = eG
	result.StopReason = reason
	// Under MaxED every adopted circuit either carried its own proof
	// or is a copy of the exact circuit (zero error on all inputs), so
	// the final result is certified by construction.
	result.Certified = certEnabled
	result.Runtime = time.Since(start)
	if led {
		area := mappedArea(lastRound, g)
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

// certifyAgainst runs one certification of cand against the exact
// circuit and feeds the outcome counter. Any constructive error (the
// interfaces were validated at run entry, so none is expected) is
// treated as not-certified rather than silently accepted.
func certifyAgainst(cand, exact *aig.Graph, bound uint64, budget int64, rec *obs.Recorder) (bool, int64) {
	cert, err := maxerr.CertifyRec(cand, exact, bound, budget, rec)
	if err != nil {
		rec.CountCert(obs.CertBudget)
		return false, 0
	}
	switch {
	case cert.Certified:
		rec.CountCert(obs.CertCertified)
	case cert.Exceeded:
		rec.CountCert(obs.CertRefuted)
	default:
		rec.CountCert(obs.CertBudget)
	}
	return cert.Certified, cert.Conflicts
}

// ledgerRound converts one completed round's statistics into the
// ledger's event shape, area being gNew's mapped area. Only called
// when a ledger sink is attached: the area column needs the technology
// mapper, which the uninstrumented loop must never pay for.
func ledgerRound(rs RoundStats, gNew *aig.Graph, area, budgetLeft float64, applied []*lac.LAC, measured []float64) obs.RoundEvent {
	ev := obs.RoundEvent{
		Round:         rs.Round,
		Candidates:    rs.Candidates,
		BudgetLeft:    budgetLeft,
		TopSize:       rs.TopSize,
		ConflictNodes: rs.TopSize,
		ConflictEdges: rs.ConflictEdges,
		SolSize:       rs.SolSize,
		InflPairs:     rs.InflPairs,
		InflAbove:     rs.InflAbove,
		MISSize:       rs.MISSize,
		IndpSize:      rs.IndpSize,
		RandSize:      rs.RandSize,
		PickedIndp:    rs.PickedIndp,
		Multi:         rs.MultiRound,
		GuardSingle:   rs.GuardSingle,
		Reverted:      rs.Reverted,
		EstErr:        rs.EstimatedErr,
		Error:         rs.Error,
		NumAnds:       gNew.NumAnds(),
		Area:          area,
		Depth:         gNew.Depth(),
		NoProgress:    rs.NoProgress,
		DurationUS:    rs.RoundDuration.Microseconds(),
	}
	if rs.CertRan {
		c := rs.Certified
		ev.Certified = &c
		ev.CertConflicts = rs.CertConflicts
	}
	if rs.HasDuel {
		i, r := rs.DuelIndpErr, rs.DuelRandErr
		ev.DuelIndpErr, ev.DuelRandErr = &i, &r
	}
	for i, l := range applied {
		a := obs.AppliedLAC{Target: l.Target, Gain: l.Gain, DeltaE: l.DeltaE}
		if i < len(measured) {
			a.MeasuredErr = measured[i]
		}
		ev.Applied = append(ev.Applied, a)
	}
	return ev
}

// emitProgress delivers one round's statistics to the Progress
// callback. The snapshot is decoupled from the run: the graph is
// deep-copied, so a callback that retains or mutates it cannot
// corrupt the synthesis state.
func emitProgress(progress func(RoundStats), rs RoundStats, g *aig.Graph) {
	if progress == nil {
		return
	}
	snap := rs
	snap.Graph = g.Clone()
	progress(snap)
}
