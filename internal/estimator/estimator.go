// Package estimator implements batch error-increase estimation for
// candidate LACs, in the style of VECBEE [11] and SEALS [12]: a single
// reverse change-propagation pass per primary output yields, for every
// node, the mask of patterns on which a value flip at that node would
// propagate to the output. Combining these masks with each LAC's
// deviation mask gives the estimated output flips — and hence the
// estimated error — of every candidate without simulating candidate
// circuits.
//
// The propagation pass treats reconvergent paths independently (ORing
// path sensitivities), which is the standard fast approximation; an
// exact cone-resimulation mode is provided for validation and for the
// flow's accurate per-round evaluation.
//
// Candidates are grouped by target, since every candidate on a target
// shares its propagation masks. ER keeps one mask per target: with d_j
// the base diff of output j and p_j the target's propagation mask, a
// candidate with deviation mask v differs somewhere on
// OR_j(d_j ⊕ (p_j ∧ v)) = (X ∧ ¬v) ∨ (Y ∧ v), where X = OR_j d_j is the
// base any-diff mask and Y = OR_j(d_j ⊕ p_j) is the target's. The
// word-level metrics (NMED/MRED/MaxED) read all outputs of a pattern at
// once, so their pass keeps a copy of each distinct target's
// propagation mask per output, and errmetric.ScoreTarget then scores
// all of a target's candidates in one call from those masks and their
// deviation masks; no per-candidate flip vector is built.
//
// The per-output passes are mutually independent, so an Estimator
// shards them across workers (one propagator per shard) and merges the
// per-shard accumulators deterministically: bitwise OR for ER's
// X and per-target Y masks, integer sums for MHD, and disjoint
// (target, output) mask slots for the word-level metrics. Every merge
// operation is exactly associative and commutative, so the estimates
// are bit-identical at any worker count.
package estimator

import (
	"math/bits"
	"sort"

	"accals/internal/aig"
	"accals/internal/errmetric"
	"accals/internal/lac"
	"accals/internal/obs"
	"accals/internal/par"
	"accals/internal/simulate"
)

// Estimator batch-estimates LAC error increases under a fixed worker
// budget, keeping per-worker propagators, deviation-mask vectors and
// accumulator arenas alive across rounds so steady-state estimation
// allocates almost nothing. An Estimator is not safe for concurrent
// use; the flows serialize calls per round.
type Estimator struct {
	workers int
	props   []*propagator
	// devBuf backs devs, the round's deviation mask per candidate;
	// arena holds the per-shard accumulators (ER masks, MHD counts).
	devBuf []uint64
	devs   []simulate.Vec
	arena  []uint64
	// Per-target state, rebuilt each round: targets lists the round's
	// distinct target nodes, targetNum maps a node id to its index in
	// targets plus one (0: not a target), and slots holds target t's
	// word-level mask for output j at t*numPOs+j.
	targets   []int
	targetNum []int32
	slots     []simulate.Vec
	// The word-level candidates grouped by target: target t's are
	// byTarget[first[t]:first[t+1]] in batch order, grouped holds their
	// deviation masks and scores their errors in the same order.
	byTarget []int32
	first    []int32
	grouped  []simulate.Vec
	scores   []float64
	// base is the scoring state of the round's circuit, refilled in
	// place each round.
	base errmetric.BaseEval
}

// New returns an Estimator with the given worker budget (see
// par.Resolve: <= 0 means all CPUs, 1 means the sequential path).
func New(workers int) *Estimator {
	return &Estimator{workers: par.Resolve(workers)}
}

// Workers returns the resolved worker count.
func (e *Estimator) Workers() int { return e.workers }

// EstimateAll computes the estimated error increase ΔE for every
// candidate LAC and stores it in each LAC's DeltaE field. It returns
// the current error of g with respect to the comparator's reference.
// res must be the simulation of g under the comparator's pattern set.
func EstimateAll(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, lacs []*lac.LAC) float64 {
	return EstimateAllRec(g, res, cmp, lacs, nil)
}

// EstimateAllRec is EstimateAll with instrumentation: the batch
// estimation runs under an estimate-phase span and the candidate
// count feeds the evaluated-LAC counter. rec may be nil. The
// package-level functions run sequentially; flows with a worker
// budget hold an Estimator instead.
func EstimateAllRec(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, lacs []*lac.LAC, rec *obs.Recorder) float64 {
	return New(1).EstimateAllRec(g, res, cmp, lacs, rec)
}

// EstimateAllRec estimates every candidate's ΔE, sharding the per-
// output propagation passes across the Estimator's workers. See the
// package-level EstimateAllRec for the contract; results are
// bit-identical at any worker count.
func (e *Estimator) EstimateAllRec(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, lacs []*lac.LAC, rec *obs.Recorder) float64 {
	sp := rec.StartSpan(obs.PhaseEstimate)
	defer sp.End()
	curPOs := res.POValues(g)
	if len(lacs) == 0 {
		return cmp.ErrorFromPOs(curPOs)
	}
	// The base error comes with the scoring state (bit-identical to
	// ErrorFromPOs), so the word-level metrics walk the outputs once.
	cmp.ResetBaseEval(&e.base, curPOs)
	curErr := e.base.Err

	words := res.Patterns.Words()
	numPOs := g.NumPOs()
	nl := len(lacs)

	// Deviation masks, computed once per LAC into one reused buffer.
	e.devBuf = grow(e.devBuf, nl*words)
	e.devs = grow(e.devs, nl)
	devs := e.devs
	for i, l := range lacs {
		devs[i] = e.devBuf[i*words : (i+1)*words]
		l.DeviationInto(devs[i], res)
	}

	blocks := par.BlocksMin(e.workers, numPOs, minPOsPerShard)
	e.ensureProps(blocks, g, res)

	switch cmp.Kind() {
	case errmetric.ER:
		// ER fast path: each shard ORs, over its outputs, the base
		// diffs into the any-diff mask X (row 0 of its arena block)
		// and d_j ⊕ p_j into target t's mask Y (row t+1), where a
		// target that cannot reach output j has p_j = 0. Rows merge
		// by bitwise OR, which is order-independent, so the merged
		// masks are exactly the sequential ones; a candidate with
		// deviation mask v then differs on (X ∧ ¬v) ∨ (Y ∧ v).
		e.indexTargets(g.NumNodes(), lacs)
		exact := cmp.ExactPOs()
		rows := (len(e.targets) + 1) * words
		e.arena = grow(e.arena, blocks*rows)
		arena := e.arena
		e.runShards(blocks, numPOs, rec, func(shard, j0, j1 int) {
			prop := e.props[shard]
			ad := arena[shard*rows : (shard+1)*rows]
			clear(ad)
			x := ad[:words]
			diffJ := prop.scratchVec()
			for j := j0; j < j1; j++ {
				masks := prop.run(j)
				for w := 0; w < words; w++ {
					diffJ[w] = curPOs[j][w] ^ exact[j][w]
					x[w] |= diffJ[w]
				}
				for t, id := range e.targets {
					y := ad[(t+1)*words : (t+2)*words]
					pm := masks[id]
					if pm == nil {
						for w := 0; w < words; w++ {
							y[w] |= diffJ[w]
						}
						continue
					}
					for w := 0; w < words; w++ {
						y[w] |= diffJ[w] ^ pm[w]
					}
				}
			}
		})
		merged := arena[:rows]
		for s := 1; s < blocks; s++ {
			other := arena[s*rows : (s+1)*rows]
			for w := range merged {
				merged[w] |= other[w]
			}
		}
		n := float64(res.Patterns.NumPatterns())
		x := merged[:words]
		for i, l := range lacs {
			t := int(e.targetNum[l.Target])
			y := merged[t*words : (t+1)*words]
			dv := devs[i]
			c := 0
			for w := 0; w < words; w++ {
				c += bits.OnesCount64(x[w]&^dv[w] | y[w]&dv[w])
			}
			l.DeltaE = float64(c)/n - curErr
		}

	case errmetric.MHD:
		// MHD is linear over outputs: each shard tallies per-LAC
		// diff-bit counts over its outputs; integer sums across shards
		// are exact regardless of order.
		exact := cmp.ExactPOs()
		e.arena = grow(e.arena, blocks*nl)
		arena := e.arena
		e.runShards(blocks, numPOs, rec, func(shard, j0, j1 int) {
			prop := e.props[shard]
			counts := arena[shard*nl : (shard+1)*nl]
			for i := range counts {
				counts[i] = 0
			}
			diffJ := prop.scratchVec()
			for j := j0; j < j1; j++ {
				masks := prop.run(j)
				baseCount := 0
				for w := 0; w < words; w++ {
					diffJ[w] = curPOs[j][w] ^ exact[j][w]
					baseCount += bits.OnesCount64(diffJ[w])
				}
				for i, l := range lacs {
					pm := masks[l.Target]
					if pm == nil {
						counts[i] += uint64(baseCount)
						continue
					}
					dv := devs[i]
					c := 0
					for w := 0; w < words; w++ {
						c += bits.OnesCount64(diffJ[w] ^ (pm[w] & dv[w]))
					}
					counts[i] += uint64(c)
				}
			}
		})
		denom := float64(res.Patterns.NumPatterns() * numPOs)
		for i, l := range lacs {
			total := uint64(0)
			for s := 0; s < blocks; s++ {
				total += arena[s*nl+i]
			}
			l.DeltaE = float64(total)/denom - curErr
		}

	default:
		// Word-level metrics: each shard copies every distinct target's
		// propagation mask for its outputs into its arena (nil when the
		// target cannot flip that output). Shards own disjoint output
		// columns of the slot table, so no merge is needed; scoring is
		// then per-target independent and runs sharded too, one
		// ScoreTarget call per target.
		e.indexTargets(g.NumNodes(), lacs)
		e.groupByTarget(lacs)
		nt := len(e.targets)
		e.slots = grow(e.slots, nt*numPOs)
		slots := e.slots
		e.runShards(blocks, numPOs, rec, func(shard, j0, j1 int) {
			prop := e.props[shard]
			for j := j0; j < j1; j++ {
				masks := prop.run(j)
				for t, id := range e.targets {
					slots[t*numPOs+j] = prop.keep(masks[id])
				}
			}
		})
		base := &e.base
		minTargets := minScoreWordOps / (numPOs*words + 1)
		par.For(par.BlocksMin(e.workers, nt, minTargets), nt, func(_, t0, t1 int) {
			for t := t0; t < t1; t++ {
				k0, k1 := e.first[t], e.first[t+1]
				cmp.ScoreTarget(base, slots[t*numPOs:(t+1)*numPOs], e.grouped[k0:k1], e.scores[k0:k1])
				for k := k0; k < k1; k++ {
					lacs[e.byTarget[k]].DeltaE = e.scores[k] - curErr
				}
			}
		})
	}
	return curErr
}

// Min-work-per-shard thresholds (see par.BlocksMin). Each per-output
// propagation shard owns a propagator whose mask pool spans the whole
// graph, so that footprint must amortize over at least a couple of
// outputs; word-level scoring shards are capped to carry at least
// minScoreWordOps 64-bit word operations (counting each target as one
// output-mask sweep) so tiny candidate batches stop fanning out. Both
// caps are pure functions of the problem shape, never of the host, so
// shard boundaries stay reproducible.
const (
	minPOsPerShard   = 2
	minScoreWordOps  = 1 << 15
	minResimPerShard = 4
)

// grow returns s resized to n elements, reallocating only when its
// capacity is short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// indexTargets numbers the distinct targets of lacs in first-seen
// order into e.targets and e.targetNum, clearing every number left by
// the previous round.
func (e *Estimator) indexTargets(numNodes int, lacs []*lac.LAC) {
	e.targetNum = grow(e.targetNum, numNodes)
	clear(e.targetNum)
	e.targets = e.targets[:0]
	for _, l := range lacs {
		if e.targetNum[l.Target] == 0 {
			e.targets = append(e.targets, l.Target)
			e.targetNum[l.Target] = int32(len(e.targets))
		}
	}
}

// groupByTarget lays out lacs grouped by target with a stable counting
// sort over e.targetNum, filling e.byTarget, e.first and e.grouped
// (from e.devs) and sizing e.scores. It does not assume the batch
// arrives grouped.
func (e *Estimator) groupByTarget(lacs []*lac.LAC) {
	nt, nl := len(e.targets), len(lacs)
	e.first = grow(e.first, nt+1)
	clear(e.first)
	for _, l := range lacs {
		e.first[e.targetNum[l.Target]]++
	}
	for t := 1; t <= nt; t++ {
		e.first[t] += e.first[t-1]
	}
	// first[t] is now where target t's candidates start. Placing a
	// candidate advances its target's entry to the next slot, so each
	// ends where the next target starts; shifting by one restores the
	// starts.
	e.byTarget = grow(e.byTarget, nl)
	e.grouped = grow(e.grouped, nl)
	e.scores = grow(e.scores, nl)
	for i, l := range lacs {
		t := e.targetNum[l.Target] - 1
		k := e.first[t]
		e.byTarget[k] = int32(i)
		e.grouped[k] = e.devs[i]
		e.first[t]++
	}
	copy(e.first[1:], e.first[:nt])
	e.first[0] = 0
}

// runShards executes body over [0,n) split into the given number of
// blocks (at most the Estimator's workers; callers cap fan-out with
// par.BlocksMin), feeding per-shard timings to rec's estimate-phase
// histograms when instrumented.
func (e *Estimator) runShards(blocks, n int, rec *obs.Recorder, body func(shard, begin, end int)) {
	if rec != nil {
		t := par.ForTimed(blocks, n, body)
		rec.ObserveShards(obs.PhaseEstimate, t.Elapsed, t.Shards)
		return
	}
	par.For(blocks, n, body)
}

// ensureProps grows the per-shard propagator set to blocks entries and
// rebinds each to (g, res) for this round.
func (e *Estimator) ensureProps(blocks int, g *aig.Graph, res *simulate.Result) {
	for len(e.props) < blocks {
		e.props = append(e.props, &propagator{})
	}
	for s := 0; s < blocks; s++ {
		e.props[s].reset(g, res)
	}
}

// propagator computes per-PO change propagation masks with reusable
// buffers. Each estimation shard owns one propagator; reset rebinds it
// to the round's graph and simulation while keeping its retired
// vectors for reuse.
type propagator struct {
	g       *aig.Graph
	res     *simulate.Result
	words   int
	masks   []simulate.Vec // indexed by node; nil when untouched
	touched []int
	pool    []simulate.Vec
	scratch simulate.Vec
	// chunks back the word-level target masks kept this round, each
	// holding arenaChunk masks; the next free one is at word used of
	// chunks[chunk].
	chunks      [][]uint64
	chunk, used int
}

// arenaChunk is the number of masks per arena chunk: small enough that
// the unused tail stays a fraction of a round's masks, large enough
// that a round allocates few chunks.
const arenaChunk = 256

// reset rebinds the propagator to a graph and its simulation, retiring
// live masks into the pool (or dropping every buffer when the word
// count changed) and emptying the arena.
func (p *propagator) reset(g *aig.Graph, res *simulate.Result) {
	for _, id := range p.touched {
		p.pool = append(p.pool, p.masks[id])
		p.masks[id] = nil
	}
	p.touched = p.touched[:0]
	p.chunk, p.used = 0, 0
	words := res.Patterns.Words()
	if words != p.words {
		p.pool = p.pool[:0]
		p.scratch = nil
		p.chunks = nil
	}
	p.g, p.res, p.words = g, res, words
	if n := g.NumNodes(); cap(p.masks) >= n {
		p.masks = p.masks[:n]
	} else {
		p.masks = make([]simulate.Vec, n)
	}
}

// scratchVec returns the propagator's word-sized scratch vector
// (contents unspecified).
func (p *propagator) scratchVec() simulate.Vec {
	if len(p.scratch) != p.words {
		p.scratch = make(simulate.Vec, p.words)
	}
	return p.scratch
}

// keep copies a propagation mask into the arena and returns the copy,
// or nil when the mask is nil or all zero (no flip can reach the
// output). The arena's chunks are reused across rounds; a round that
// needs more masks than any before it appends chunks.
func (p *propagator) keep(pm simulate.Vec) simulate.Vec {
	if pm == nil {
		return nil
	}
	if p.used == arenaChunk*p.words {
		p.chunk, p.used = p.chunk+1, 0
	}
	if p.chunk == len(p.chunks) {
		p.chunks = append(p.chunks, make([]uint64, arenaChunk*p.words))
	}
	v := p.chunks[p.chunk][p.used : p.used+p.words : p.used+p.words]
	var nonzero uint64
	for w, x := range pm {
		v[w] = x
		nonzero |= x
	}
	if nonzero == 0 {
		return nil
	}
	p.used += p.words
	return v
}

// alloc returns a zeroed vector, reusing retired buffers.
func (p *propagator) alloc() simulate.Vec {
	if n := len(p.pool); n > 0 {
		v := p.pool[n-1]
		p.pool = p.pool[:n-1]
		for w := range v {
			v[w] = 0
		}
		return v
	}
	return make(simulate.Vec, p.words)
}

// run computes, for primary output j, the mask per node of patterns on
// which flipping the node's value flips the output (single-pass
// approximation). The returned slice is valid until the next call.
func (p *propagator) run(j int) []simulate.Vec {
	// Reset state from the previous run.
	for _, id := range p.touched {
		p.pool = append(p.pool, p.masks[id])
		p.masks[id] = nil
	}
	p.touched = p.touched[:0]

	root := p.g.PO(j).Node()
	m := p.alloc()
	for w := range m {
		m[w] = ^uint64(0)
	}
	m[len(m)-1] &= p.res.Patterns.LastMask()
	p.masks[root] = m
	p.touched = append(p.touched, root)

	// Reverse topological sweep: node ids descend, and fanins always
	// have smaller ids, so a single descending pass propagates all
	// masks.
	for id := root; id > 0; id-- {
		pm := p.masks[id]
		if pm == nil || !p.g.IsAnd(id) {
			continue
		}
		n := p.g.NodeAt(id)
		p.propagateToFanin(pm, n.Fanin0, n.Fanin1)
		p.propagateToFanin(pm, n.Fanin1, n.Fanin0)
	}
	return p.masks
}

// propagateToFanin ORs into the mask of fanin `to` the patterns where a
// flip of `to` flips the AND output: those where the sibling input
// evaluates to 1 and the output flip itself propagates.
func (p *propagator) propagateToFanin(outMask simulate.Vec, to, sibling aig.Lit) {
	id := to.Node()
	if id == 0 {
		return
	}
	sv := p.res.NodeVals[sibling.Node()]
	m := p.masks[id]
	if m == nil {
		m = p.alloc()
		p.masks[id] = m
		p.touched = append(p.touched, id)
	}
	if sibling.IsCompl() {
		for w := range m {
			m[w] |= outMask[w] & ^sv[w]
		}
	} else {
		for w := range m {
			m[w] |= outMask[w] & sv[w]
		}
	}
}

// EstimateAllExact fills DeltaE for every candidate with its exact
// (pattern-set) error increase, by resimulating each candidate's
// fanout cone. It is typically one to two orders of magnitude slower
// than EstimateAll and exists for validation and for the estimator
// ablation study.
func EstimateAllExact(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, lacs []*lac.LAC) float64 {
	return EstimateAllExactRec(g, res, cmp, lacs, nil)
}

// EstimateAllExactRec is EstimateAllExact with instrumentation under
// the estimate-phase span. rec may be nil.
func EstimateAllExactRec(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, lacs []*lac.LAC, rec *obs.Recorder) float64 {
	return New(1).EstimateAllExactRec(g, res, cmp, lacs, rec)
}

// EstimateAllExactRec is the exact mode sharded across candidates:
// each worker resimulates the fanout cones of its LAC range. Each
// candidate's score is computed independently from shared read-only
// state, so results are identical at any worker count.
func (e *Estimator) EstimateAllExactRec(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, lacs []*lac.LAC, rec *obs.Recorder) float64 {
	sp := rec.StartSpan(obs.PhaseEstimate)
	defer sp.End()
	curPOs := res.POValues(g)
	curErr := cmp.ErrorFromPOs(curPOs)
	n := len(lacs)
	e.runShards(par.BlocksMin(e.workers, n, minResimPerShard), n, rec, func(_, i0, i1 int) {
		for i := i0; i < i1; i++ {
			newPOs := ResimulateWith(g, res, lacs[i])
			lacs[i].DeltaE = cmp.ErrorFromPOs(newPOs) - curErr
		}
	})
	return curErr
}

// MeasureEach returns, for each LAC, the measured error of the circuit
// with that LAC applied alone — the ground truth the run ledger pairs
// with each applied LAC's estimated increase. Sharded across LACs like
// EstimateAllExactRec; the base simulation is read-only, so shards
// share it safely.
func (e *Estimator) MeasureEach(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, lacs []*lac.LAC, rec *obs.Recorder) []float64 {
	out := make([]float64, len(lacs))
	e.runShards(par.BlocksMin(e.workers, len(lacs), minResimPerShard), len(lacs), rec, func(_, i0, i1 int) {
		for i := i0; i < i1; i++ {
			out[i] = cmp.ErrorFromPOs(ResimulateWith(g, res, lacs[i]))
		}
	})
	return out
}

// ExactDeltaE computes the exact (with respect to the pattern set)
// error increase of applying a single LAC, by resimulating the
// transitive fanout cone of the target with the LAC's new values.
func ExactDeltaE(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, l *lac.LAC) float64 {
	curPOs := res.POValues(g)
	curErr := cmp.ErrorFromPOs(curPOs)
	newPOs := ResimulateWith(g, res, l)
	return cmp.ErrorFromPOs(newPOs) - curErr
}

// ResimulateWith returns the primary output vectors of g after applying
// the LAC, computed by resimulating only the target's transitive
// fanout cone.
func ResimulateWith(g *aig.Graph, res *simulate.Result, l *lac.LAC) []simulate.Vec {
	return ResimulateWithSet(g, res, []*lac.LAC{l})
}

// ResimulateWithSet returns the primary output vectors of g after
// simultaneously applying a set of conflict-free LACs, resimulating
// only the union of the targets' transitive fanout cones. The vectors
// are bit-identical to simulating lac.Apply(g, lacs): targets are
// overlaid in ascending id order and each replacement reads its SNs
// through the overlay, matching Rebuild's copy semantics when one
// LAC's SN lies in the fanout cone of another applied target. This is
// what lets the flows measure candidate sets without building and
// fully resimulating candidate circuits.
func ResimulateWithSet(g *aig.Graph, res *simulate.Result, lacs []*lac.LAC) []simulate.Vec {
	words := res.Patterns.Words()
	mask := res.Patterns.LastMask()
	if len(lacs) == 0 {
		return res.POValues(g)
	}
	byTarget := append([]*lac.LAC(nil), lacs...)
	sort.Slice(byTarget, func(i, j int) bool { return byTarget[i].Target < byTarget[j].Target })

	overlay := make(map[int]simulate.Vec, 64)
	value := func(id int) simulate.Vec {
		if v, ok := overlay[id]; ok {
			return v
		}
		return res.NodeVals[id]
	}

	// Sweep nodes from the first target up; only targets and nodes
	// with an affected fanin need recomputation. Unchanged values are
	// not stored, keeping the cone tight.
	k := 0
	for id := byTarget[0].Target; id < g.NumNodes(); id++ {
		if k < len(byTarget) && byTarget[k].Target == id {
			l := byTarget[k]
			k++
			nv := l.NewValueAt(make(simulate.Vec, words), mask, value)
			if !eq(nv, res.NodeVals[id]) {
				overlay[id] = nv
			}
			continue
		}
		if !g.IsAnd(id) {
			continue
		}
		n := g.NodeAt(id)
		_, a := overlay[n.Fanin0.Node()]
		_, b := overlay[n.Fanin1.Node()]
		if !a && !b {
			continue
		}
		v0, v1 := value(n.Fanin0.Node()), value(n.Fanin1.Node())
		out := make(simulate.Vec, words)
		c0, c1 := n.Fanin0.IsCompl(), n.Fanin1.IsCompl()
		for w := 0; w < words; w++ {
			x, y := v0[w], v1[w]
			if c0 {
				x = ^x
			}
			if c1 {
				y = ^y
			}
			out[w] = x & y
		}
		out[words-1] &= mask
		if eq(out, res.NodeVals[id]) {
			continue
		}
		overlay[id] = out
	}

	pos := make([]simulate.Vec, g.NumPOs())
	for i, lit := range g.POs() {
		v := value(lit.Node())
		if lit.IsCompl() {
			inv := make(simulate.Vec, words)
			for w := range inv {
				inv[w] = ^v[w]
			}
			inv[words-1] &= mask
			v = inv
		}
		pos[i] = v
	}
	return pos
}

func eq(a, b simulate.Vec) bool {
	for w := range a {
		if a[w] != b[w] {
			return false
		}
	}
	return true
}
