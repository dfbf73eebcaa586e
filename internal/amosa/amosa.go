// Package amosa implements an archived multi-objective simulated
// annealing baseline in the spirit of Barbareschi et al. [15], the
// evolutionary multi-LAC method AccALS is compared against in the
// paper's Fig. 7 and Table III. The optimiser explores subsets of
// candidate LACs applied to the original circuit, trading off circuit
// error against area, and maintains an archive of non-dominated
// (error, area) solutions.
//
// The original work selects approximate cuts produced by exact
// synthesis; here the move pool is the same ALSRAC-style LAC
// catalogue used by the other flows, so the comparison isolates the
// selection strategy rather than the rewrite vocabulary (see
// DESIGN.md).
package amosa

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"accals/internal/aig"
	"accals/internal/errmetric"
	"accals/internal/estimator"
	"accals/internal/lac"
	"accals/internal/mapping"
	"accals/internal/obs"
	"accals/internal/runctl"
	"accals/internal/simulate"
)

// Options configures the annealer.
type Options struct {
	// ErrBound discards solutions whose error exceeds this bound.
	ErrBound float64
	// Iterations is the number of annealing steps. Defaults to 2000.
	Iterations int
	// PoolSize bounds the candidate LAC pool (smallest estimated
	// error increases first). Defaults to 200.
	PoolSize int
	// Seed drives all randomness. A zero seed means "use the default
	// (1)" unless HasSeed is set.
	Seed int64
	// HasSeed marks Seed as explicit, making a zero seed usable.
	HasSeed bool
	// NumPatterns is the Monte-Carlo sample size for error evaluation.
	NumPatterns int
	// InitialTemp and Cooling control the annealing schedule.
	InitialTemp float64
	Cooling     float64
	// ArchiveLimit soft-bounds the archive size. Defaults to 50.
	ArchiveLimit int
	// MaxRuntime, when positive, bounds wall-clock time from the run's
	// start; the archive collected so far is returned with StopReason
	// DeadlineExceeded, as it is at a deadline on the run's context.
	// Checked once per iteration.
	MaxRuntime time.Duration
	// Progress, when non-nil, is invoked once per annealing iteration
	// with a self-contained snapshot of the iteration's outcome. The
	// snapshot shares no mutable state with the annealer, so callers may
	// retain or mutate it freely.
	Progress func(IterStats)
	// Recorder receives the run's instrumentation (phase spans,
	// evaluation counters, live gauges). Nil disables observability at
	// the cost of one nil check per call.
	Recorder *obs.Recorder
	// Workers is the evaluation engine's worker budget (0 = all CPUs,
	// 1 = sequential); results are bit-identical at any setting.
	Workers int
}

// IterStats describes one annealing iteration for the Progress
// callback. Iterations where no feasible move existed (or the move was
// rejected) report Accepted false with the unchanged current solution.
type IterStats struct {
	// Index is the 0-based iteration number.
	Index int
	// Error and Ands describe the annealer's current solution after the
	// iteration's accept/reject decision.
	Error float64
	Ands  int
	// Accepted reports whether the proposed move was taken.
	Accepted bool
	// ArchiveSize is the non-dominated archive size after the iteration.
	ArchiveSize int
}

func (o Options) withDefaults() Options {
	if o.Iterations == 0 {
		o.Iterations = 2000
	}
	if o.PoolSize == 0 {
		o.PoolSize = 200
	}
	if o.Seed == 0 && !o.HasSeed {
		o.Seed = 1
	}
	if o.NumPatterns == 0 {
		o.NumPatterns = 2048
	}
	if o.InitialTemp == 0 {
		o.InitialTemp = 1.0
	}
	if o.Cooling == 0 {
		o.Cooling = 0.998
	}
	if o.ArchiveLimit == 0 {
		o.ArchiveLimit = 50
	}
	return o
}

// Point is one archived solution.
type Point struct {
	// Error is the measured error of the solution.
	Error float64
	// Ands is the AIG size after applying the LAC set (the annealer's
	// area objective).
	Ands int
	// LACs are the applied changes (indices into the pool are not
	// exposed; the LACs themselves are).
	LACs []*lac.LAC
}

// Result is the outcome of an annealing run.
type Result struct {
	// Archive holds the non-dominated solutions, sorted by error.
	Archive []Point
	// Evaluations counts circuit evaluations performed.
	Evaluations int
	// StopReason records why the run ended: runctl.MaxRounds when the
	// iteration budget completed normally, runctl.Stagnated when the
	// candidate pool was empty, runctl.Cancelled or DeadlineExceeded
	// when interrupted (the archive collected so far is still valid).
	StopReason runctl.StopReason
	// Runtime is the wall-clock optimisation time.
	Runtime time.Duration
}

// Run explores approximate versions of orig under the given metric.
func Run(orig *aig.Graph, metric errmetric.Kind, opt Options) *Result {
	return RunCtx(context.Background(), orig, metric, opt)
}

// RunCtx is Run with a context: cancelling ctx (or reaching its
// deadline or Options.MaxRuntime) stops the annealer at the next
// iteration boundary, returning the archive collected so far.
func RunCtx(ctx context.Context, orig *aig.Graph, metric errmetric.Kind, opt Options) *Result {
	start := time.Now()
	opt = opt.withDefaults()
	ctl := runctl.NewController(ctx, opt.MaxRuntime, start)
	rng := rand.New(rand.NewSource(opt.Seed))
	rec := opt.Recorder

	pats := simulate.NewPatterns(orig.NumPIs(), opt.NumPatterns, opt.Seed)
	patCount := pats.NumPatterns()
	cmp := errmetric.NewComparator(metric, orig, pats)
	runner := simulate.NewRunner(opt.Workers)
	rec.SetWorkers(runner.Workers())
	simSpan := rec.StartPhase(0, obs.PhaseSimulate)
	res, serr := runner.RunRec(orig, pats, rec)
	simSpan.End()
	if serr != nil {
		r := &Result{StopReason: runctl.Failed, Runtime: time.Since(start)}
		rec.Finish(r.StopReason.String())
		return r
	}
	rec.CountSimPatterns(patCount)

	genSpan := rec.StartPhase(0, obs.PhaseGenerate)
	pool := lac.Generate(orig, res, lac.Config{EnableResub: true})
	genSpan.End()
	rec.CountCandidates(len(pool))
	est := estimator.New(opt.Workers)
	est.EstimateAllRec(orig, res, cmp, pool, rec)
	sort.SliceStable(pool, func(i, j int) bool {
		if pool[i].DeltaE != pool[j].DeltaE {
			return pool[i].DeltaE < pool[j].DeltaE
		}
		return pool[i].Target < pool[j].Target
	})
	if len(pool) > opt.PoolSize {
		pool = pool[:opt.PoolSize]
	}

	r := &Result{StopReason: runctl.MaxRounds}
	if len(pool) == 0 {
		r.StopReason = runctl.Stagnated
		r.Runtime = time.Since(start)
		rec.Finish(r.StopReason.String())
		return r
	}

	// Precompute conflicts within the pool (same target, or SN of one
	// is TN of another).
	conflicts := buildConflicts(pool)

	// Round ledger (see internal/ledger): the annealer maps iterations
	// onto rounds, with the Accepted/ArchiveSize extras and no
	// selection-pipeline columns. Guarded by led so an unledgered run
	// never invokes the technology mapper.
	led := rec.Ledgering()
	if led {
		area, _ := mapping.AreaDelay(orig)
		rec.EmitMeta(obs.RunMeta{
			Method:       "amosa",
			Circuit:      orig.Name,
			Metric:       strings.ToLower(cmp.Kind().String()),
			Bound:        opt.ErrBound,
			Seed:         opt.Seed,
			Patterns:     patCount,
			Workers:      runner.Workers(),
			InitialAnds:  orig.NumAnds(),
			InitialArea:  area,
			InitialDepth: orig.Depth(),
		})
	}

	fo := orig.Fanouts()
	evaluate := func(sel []int) (float64, int) {
		chosen := make([]*lac.LAC, len(sel))
		for i, idx := range sel {
			chosen[i] = pool[idx]
		}
		applySpan := rec.StartSpan(obs.PhaseApply)
		g := lac.Apply(orig, chosen)
		applySpan.End()
		// Measure by resimulating what the chosen LACs change on the
		// base simulation (bit-identical to cmp.Error(g), far cheaper);
		// the applied graph is still needed for the area objective.
		measureSpan := rec.StartSpan(obs.PhaseMeasure)
		var out [1]float64
		est.MeasureSets(orig, res, cmp, fo, [][]*lac.LAC{chosen}, out[:])
		e := out[0]
		measureSpan.End()
		rec.CountEvaluation()
		rec.CountSimPatterns(patCount)
		r.Evaluations++
		return e, g.NumAnds()
	}

	// Start from a single random LAC.
	cur := []int{rng.Intn(len(pool))}
	curErr, curAnds := evaluate(cur)
	archive := []Point{{Error: curErr, Ands: curAnds, LACs: poolSubset(pool, cur)}}

	temp := opt.InitialTemp
	itersDone := 0
	for it := 0; it < opt.Iterations; it++ {
		if reason, stop := ctl.Stop(); stop {
			r.StopReason = reason
			break
		}
		iterStart := time.Now()
		rec.BeginRound(it)
		accepted := false
		if cand := perturb(cur, len(pool), conflicts, rng); cand != nil {
			candErr, candAnds := evaluate(cand)
			if candErr <= opt.ErrBound {
				switch {
				case dominates(candErr, candAnds, curErr, curAnds):
					accepted = true
				case dominates(curErr, curAnds, candErr, candAnds):
					// Accept a dominated move with annealing probability.
					amount := (candErr - curErr) + float64(candAnds-curAnds)/math.Max(float64(orig.NumAnds()), 1)
					accepted = rng.Float64() < math.Exp(-amount/math.Max(temp, 1e-9))
				default:
					accepted = true // mutually non-dominated
				}
			}
			if accepted {
				cur, curErr, curAnds = cand, candErr, candAnds
				archive = insertArchive(archive, Point{Error: candErr, Ands: candAnds, LACs: poolSubset(pool, cand)}, opt.ArchiveLimit)
			}
		}
		temp *= opt.Cooling
		itersDone = it + 1
		rec.EndRound(it, curErr, curAnds, 0, 0)
		if led {
			acc := accepted
			rec.EmitRound(obs.RoundEvent{
				Round:       it,
				BudgetLeft:  opt.ErrBound - curErr,
				Error:       curErr,
				NumAnds:     curAnds,
				DurationUS:  time.Since(iterStart).Microseconds(),
				Accepted:    &acc,
				ArchiveSize: len(archive),
			})
		}
		if opt.Progress != nil {
			opt.Progress(IterStats{Index: it, Error: curErr, Ands: curAnds, Accepted: accepted, ArchiveSize: len(archive)})
		}
	}

	sort.Slice(archive, func(i, j int) bool { return archive[i].Error < archive[j].Error })
	r.Archive = archive
	r.Runtime = time.Since(start)
	if led {
		f := obs.RunFinish{
			StopReason: r.StopReason.String(),
			Rounds:     itersDone,
			RuntimeUS:  r.Runtime.Microseconds(),
		}
		// The annealer's outcome is an archive, not one circuit; report
		// the smallest solution within the bound as the headline.
		if len(archive) > 0 {
			best := archive[0]
			for _, pt := range archive[1:] {
				if pt.Ands < best.Ands {
					best = pt
				}
			}
			f.Error = best.Error
			f.NumAnds = best.Ands
		}
		rec.EmitFinish(f)
	}
	rec.Finish(r.StopReason.String())
	return r
}

// poolSubset materialises the selected LACs.
func poolSubset(pool []*lac.LAC, sel []int) []*lac.LAC {
	out := make([]*lac.LAC, len(sel))
	for i, idx := range sel {
		out[i] = pool[idx]
	}
	return out
}

// buildConflicts returns, for each pool index, the set of conflicting
// pool indices.
func buildConflicts(pool []*lac.LAC) []map[int]bool {
	byTarget := map[int][]int{}
	for i, l := range pool {
		byTarget[l.Target] = append(byTarget[l.Target], i)
	}
	conf := make([]map[int]bool, len(pool))
	for i := range conf {
		conf[i] = map[int]bool{}
	}
	add := func(a, b int) {
		if a != b {
			conf[a][b] = true
			conf[b][a] = true
		}
	}
	for _, idxs := range byTarget {
		for a := 0; a < len(idxs); a++ {
			for b := a + 1; b < len(idxs); b++ {
				add(idxs[a], idxs[b])
			}
		}
	}
	for i, l := range pool {
		for _, sn := range l.SNs {
			for _, j := range byTarget[sn] {
				add(i, j)
			}
		}
	}
	return conf
}

// perturb returns a mutated copy of sel: add, remove, or swap one LAC,
// keeping the selection conflict-free. Returns nil when no move is
// possible.
func perturb(sel []int, poolLen int, conflicts []map[int]bool, rng *rand.Rand) []int {
	mode := rng.Intn(3)
	if len(sel) == 0 {
		mode = 0
	}
	switch mode {
	case 0: // add
		for tries := 0; tries < 16; tries++ {
			idx := rng.Intn(poolLen)
			if selContains(sel, idx) || selConflicts(sel, idx, conflicts) {
				continue
			}
			out := append(append([]int(nil), sel...), idx)
			return out
		}
		return nil
	case 1: // remove
		if len(sel) <= 1 {
			return nil
		}
		k := rng.Intn(len(sel))
		out := append([]int(nil), sel[:k]...)
		return append(out, sel[k+1:]...)
	default: // swap
		k := rng.Intn(len(sel))
		rest := append([]int(nil), sel[:k]...)
		rest = append(rest, sel[k+1:]...)
		for tries := 0; tries < 16; tries++ {
			idx := rng.Intn(poolLen)
			if selContains(rest, idx) || selConflicts(rest, idx, conflicts) {
				continue
			}
			return append(rest, idx)
		}
		return nil
	}
}

func selContains(sel []int, idx int) bool {
	for _, s := range sel {
		if s == idx {
			return true
		}
	}
	return false
}

func selConflicts(sel []int, idx int, conflicts []map[int]bool) bool {
	for _, s := range sel {
		if conflicts[idx][s] {
			return true
		}
	}
	return false
}

// dominates reports whether (e1, a1) Pareto-dominates (e2, a2).
func dominates(e1 float64, a1 int, e2 float64, a2 int) bool {
	if e1 <= e2 && a1 <= a2 {
		return e1 < e2 || a1 < a2
	}
	return false
}

// insertArchive adds p if no archive member dominates it, evicting
// members p dominates, and trims the archive to limit by crowding
// (keeping the extremes).
func insertArchive(archive []Point, p Point, limit int) []Point {
	for _, q := range archive {
		if dominates(q.Error, q.Ands, p.Error, p.Ands) {
			return archive
		}
	}
	out := archive[:0]
	for _, q := range archive {
		if !dominates(p.Error, p.Ands, q.Error, q.Ands) {
			out = append(out, q)
		}
	}
	out = append(out, p)
	if len(out) > limit {
		sort.Slice(out, func(i, j int) bool { return out[i].Error < out[j].Error })
		// Drop the most crowded interior point.
		drop := 1 + randCrowded(out)
		out = append(out[:drop], out[drop+1:]...)
	}
	return out
}

// randCrowded returns the interior index (0-based, offset by 1 by the
// caller) whose neighbours are closest in error — a cheap crowding
// measure.
func randCrowded(pts []Point) int {
	best, bestGap := 0, math.Inf(1)
	for i := 1; i+1 < len(pts); i++ {
		gap := pts[i+1].Error - pts[i-1].Error
		if gap < bestGap {
			best, bestGap = i-1, gap
		}
	}
	return best
}
