// Package estimator implements batch error-increase estimation for
// candidate LACs, in the style of VECBEE [11] and SEALS [12]: a reverse
// change-propagation pass yields, for every node, the mask of patterns
// on which a value flip at that node would propagate to a primary
// output. Combining these masks with each LAC's deviation mask gives
// the estimated output flips — and hence the estimated error — of
// every candidate without simulating candidate circuits.
//
// The propagation pass treats reconvergent paths independently (ORing
// path sensitivities), which is the standard fast approximation. The
// exact mode (EstimateAllExactRec) and every measurement of a LAC set
// (MeasureSets, MeasureEach; ResimulateWith and
// ResimulateWithSet wrap the same code) run one resimulation kernel
// instead: it visits only the targets and the nodes with a changed
// fanin, in ascending id through the round's fanout index, recomputes
// only the pattern words where a fanin changed, and scores only the
// changed output words (errmetric.ErrorOnWords). Its results are
// bit-identical to ErrorFromPOs on a full simulation of lac.Apply, and
// its per-shard scratch is sized by what a call changes and reused
// across calls and rounds (see resim).
//
// Candidates are grouped by target, since every candidate on a target
// shares its propagation masks. ER keeps one mask per target: with d_j
// the base diff of output j and p_j the target's propagation mask, a
// candidate with deviation mask v differs somewhere on
// OR_j(d_j ⊕ (p_j ∧ v)) = (X ∧ ¬v) ∨ (Y ∧ v), where X = OR_j d_j is the
// base any-diff mask and Y = OR_j(d_j ⊕ p_j) is the target's. On a
// pattern word where X is 0 every d_j is 0, so Y = OR_j p_j there. A
// node's mask is the union, over its paths to the output, of each
// path's side conditions, so one pass seeded at every output's root
// computes OR_j p_j for all nodes at once. ER therefore propagates the
// words on which the base is exact once for all outputs, and runs the
// per-output passes only on the words where the base errs, gathered
// side by side. The word-level metrics (NMED/MRED/MaxED) read all
// outputs of a pattern at once, so their pass keeps a copy of each
// distinct target's propagation mask per output, and
// errmetric.ScoreTarget then scores all of a target's candidates in one
// call from those masks and their deviation masks; no per-candidate
// flip vector is built.
//
// An Estimator shards its work across its workers, one propagator per
// propagation shard. ER runs its all-output pass as one shard and its
// per-output passes in output ranges, whose per-target Y rows merge by
// bitwise OR; it then scores each candidate on its own, in candidate
// ranges. MHD and the word-level metrics split their per-output passes
// into output ranges and merge by integer sums (MHD) or into disjoint
// (target, output) mask slots. Every merge operation is exactly
// associative and commutative, so the estimates are bit-identical at
// any worker count.
package estimator

import (
	"math/bits"
	"sync/atomic"

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
	// devBuf backs devs, the round's deviation mask per candidate (MHD
	// and the word-level metrics), ER's per-shard deviation scratch, or
	// the measurement shards' new values (see measure); arena holds the
	// per-shard accumulators (ER's Y rows over the erring words, MHD
	// counts).
	devBuf []uint64
	devs   []simulate.Vec
	arena  []uint64
	// ER's per-round pattern-word state: x is the base any-diff mask X,
	// errWords lists the words where it is nonzero, xErr holds X at
	// those words side by side, and root is the all-ones root mask of
	// the value table (with the final-word mask where the last pattern
	// word sits). Unless the erring words are already the last ones,
	// vals (backed by valBuf) is the round's value table reordered with
	// the exact words first and the erring words after them.
	x        []uint64
	errWords []int
	xErr     []uint64
	root     []uint64
	valBuf   []uint64
	vals     []simulate.Vec
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
	// place by every estimation; pos and posBuf hold the circuit's output
	// vectors it reads. baseKey names what base was last filled for, and
	// is zero while base holds no usable state (see baseFor).
	base    errmetric.BaseEval
	baseKey baseKey
	pos     []simulate.Vec
	posBuf  []uint64
	// The measurement kernel's state: one resimulator per measurement
	// shard, and the fanout index exact estimation builds.
	resims []*resim
	fo     aig.Fanouts
}

// baseKey identifies the graph, simulation and comparator a scoring
// state was filled for. A runner recycles a released simulation's
// buffers into the next one, but every run returns a new Result, and
// the key holds its pointers, so no later graph, simulation or
// comparator can take their addresses while a key names them.
type baseKey struct {
	g   *aig.Graph
	res *simulate.Result
	cmp *errmetric.Comparator
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

// EstimateAllRec estimates every candidate's ΔE, sharding the
// propagation passes and the scoring across the Estimator's workers.
// See the package-level EstimateAllRec for the contract; results are
// bit-identical at any worker count.
func (e *Estimator) EstimateAllRec(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, lacs []*lac.LAC, rec *obs.Recorder) float64 {
	sp := rec.StartSpan(obs.PhaseEstimate)
	defer sp.End()
	if len(lacs) == 0 {
		return cmp.ErrorFromPOs(e.outputs(g, res))
	}
	if cmp.Kind() == errmetric.ER {
		return e.estimateER(g, res, cmp.ExactPOs(), e.outputs(g, res), lacs, rec)
	}
	// The base error comes with the scoring state (bit-identical to
	// ErrorFromPOs), so the word-level metrics walk the outputs once.
	base := e.fillBase(g, res, cmp)
	curErr, curPOs := base.Err, base.POs

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
	e.growProps(blocks)
	root := e.rootMask(words, words-1, res.Patterns.LastMask())

	switch cmp.Kind() {
	case errmetric.MHD:
		// MHD is linear over outputs: each shard tallies per-LAC
		// diff-bit counts over its outputs; integer sums across shards
		// are exact regardless of order.
		exact := cmp.ExactPOs()
		e.arena = grow(e.arena, blocks*nl)
		arena := e.arena
		e.runShards(blocks, numPOs, rec, func(shard, j0, j1 int) {
			prop := e.props[shard]
			prop.reset(g, res.NodeVals, 0, root)
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
			prop.reset(g, res.NodeVals, 0, root)
			for j := j0; j < j1; j++ {
				masks := prop.run(j)
				for t, id := range e.targets {
					slots[t*numPOs+j] = prop.keep(masks[id])
				}
			}
		})
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

// estimateER is EstimateAllRec under ER, with exact the reference's
// outputs and curPOs the base's. It splits the pattern words by
// X = OR_j d_j. Where X is 0 (the base is exact), a target's Y is its
// mask from one all-output pass. Where X is not 0, the per-output
// passes OR d_j ⊕ p_j into Y, over just those words, sharded by
// outputs. Each candidate then counts (X ∧ ¬v) ∨ (Y ∧ v) over every
// word, from a deviation mask v computed in its shard's scratch. The
// passes and the candidates read one value table (see valueTable), and
// popcounts do not depend on word order, so every ΔE is bit-identical
// to the per-output any-diff formula.
func (e *Estimator) estimateER(g *aig.Graph, res *simulate.Result, exact, curPOs []simulate.Vec, lacs []*lac.LAC, rec *obs.Recorder) float64 {
	p := res.Patterns
	words, numPOs, nl := p.Words(), g.NumPOs(), len(lacs)

	// X and the erring words. The base error is X's density, counted
	// as ErrorFromPOs counts it.
	e.x = grow(e.x, words)
	x := e.x
	clear(x)
	for j, po := range curPOs {
		ex := exact[j]
		for w := range x {
			x[w] |= po[w] ^ ex[w]
		}
	}
	x[words-1] &= p.LastMask()
	e.errWords = e.errWords[:0]
	diff := 0
	for w, xw := range x {
		if xw != 0 {
			e.errWords = append(e.errWords, w)
			diff += bits.OnesCount64(xw)
		}
	}
	n := float64(p.NumPatterns())
	curErr := float64(diff) / n
	errWords := e.errWords
	k := len(errWords)
	exactWords := words - k
	vals, last := e.valueTable(res)
	root := e.rootMask(words, last, p.LastMask())
	e.indexTargets(g.NumNodes(), lacs)

	// The all-output pass over the exact words runs as one shard:
	// splitting it into word ranges measured no faster end to end.
	e.growProps(1)
	var allMasks []simulate.Vec
	e.runShards(1, exactWords, rec, func(_, _, _ int) {
		prop := e.props[0]
		prop.reset(g, vals, 0, root[:exactWords])
		allMasks = prop.runAll()
	})

	// Per-output passes over the erring words: each shard ORs, over
	// its outputs, d_j ⊕ p_j into target t's row t of its arena block
	// (p_j = 0 where the target cannot reach output j), and the blocks
	// merge into the first by bitwise OR.
	nt := len(e.targets)
	rows := nt * k
	if k > 0 {
		blocks := par.BlocksMin(e.workers, numPOs, minPOsPerShard)
		e.growProps(1 + blocks)
		e.arena = grow(e.arena, blocks*rows)
		arena := e.arena
		e.runShards(blocks, numPOs, rec, func(shard, j0, j1 int) {
			prop := e.props[1+shard]
			prop.reset(g, vals, exactWords, root[exactWords:])
			ys := arena[shard*rows : (shard+1)*rows]
			clear(ys)
			diffJ := prop.scratchVec()
			for j := j0; j < j1; j++ {
				masks := prop.run(j)
				po, ex := curPOs[j], exact[j]
				for i, w := range errWords {
					diffJ[i] = po[w] ^ ex[w]
				}
				for t, id := range e.targets {
					y := ys[t*k : (t+1)*k]
					pm := masks[id]
					if pm == nil {
						for i := range y {
							y[i] |= diffJ[i]
						}
						continue
					}
					for i := range y {
						y[i] |= diffJ[i] ^ pm[i]
					}
				}
			}
		})
		if blocks > 1 {
			par.For(par.BlocksMin(e.workers, nt, minScoreWordOps/(blocks*k+1)), nt, func(_, t0, t1 int) {
				y := arena[t0*k : t1*k]
				for s := 1; s < blocks; s++ {
					other := arena[s*rows+t0*k : s*rows+t1*k]
					for i := range y {
						y[i] |= other[i]
					}
				}
			})
		}
	}
	yErr := e.arena[:rows]
	e.xErr = grow(e.xErr, k)
	xErr := e.xErr
	for i, w := range errWords {
		xErr[i] = x[w]
	}

	// Scoring, sharded over candidates, with X and Y on the erring words
	// side by side in xErr and yErr. A candidate's deviation v is its
	// new target value, computed into the shard's scratch, XOR the
	// current one. It needs no tail mask: X and every Y are 0 past the
	// last pattern. On the exact words X is 0, so the count is Y ∧ v.
	blocks := par.BlocksMin(e.workers, nl, minScoreWordOps/(2*words+1))
	e.devBuf = grow(e.devBuf, blocks*words)
	par.For(blocks, nl, func(shard, i0, i1 int) {
		nv := e.devBuf[shard*words : (shard+1)*words]
		val := func(id int) simulate.Vec { return vals[id] }
		for i := i0; i < i1; i++ {
			l := lacs[i]
			l.NewValueAt(nv, ^uint64(0), val)
			cur := vals[l.Target]
			c := 0
			if exactWords > 0 && allMasks[l.Target] != nil {
				for w, y := range allMasks[l.Target] {
					c += bits.OnesCount64(y & (nv[w] ^ cur[w]))
				}
			}
			if k > 0 {
				t := int(e.targetNum[l.Target]) - 1
				y := yErr[t*k : (t+1)*k]
				nvErring, curErring := nv[exactWords:], cur[exactWords:]
				for w, xw := range xErr {
					v := nvErring[w] ^ curErring[w]
					c += bits.OnesCount64(xw&^v | y[w]&v)
				}
			}
			l.DeltaE = float64(c)/n - curErr
		}
	})
	return curErr
}

// valueTable returns the node value table ER's passes and candidates
// read, and the table position of the final pattern word. The table
// holds each node's exact words first and its erring words after them,
// both in ascending order, so each pass reads one contiguous word
// range. That is res.NodeVals itself when the erring words are already
// the last ones (none or every word included), else e.vals.
func (e *Estimator) valueTable(res *simulate.Result) ([]simulate.Vec, int) {
	words, k := res.Patterns.Words(), len(e.errWords)
	if k == 0 || e.errWords[0] == words-k {
		return res.NodeVals, words - 1
	}
	nn := len(res.NodeVals)
	e.valBuf = grow(e.valBuf, nn*words)
	e.vals = grow(e.vals, nn)
	exactWords := words - k
	for id, v := range res.NodeVals {
		t := e.valBuf[id*words : (id+1)*words : (id+1)*words]
		exact, erring := t[:exactWords], t[exactWords:]
		ne, nx := 0, 0
		for w, x := range v {
			if nx < k && e.errWords[nx] == w {
				erring[nx] = x
				nx++
			} else {
				exact[ne] = x
				ne++
			}
		}
		e.vals[id] = t
	}
	if e.errWords[k-1] == words-1 {
		return e.vals, words - 1
	}
	return e.vals, exactWords - 1
}

// rootMask returns the root mask of a value table of the given width
// whose final pattern word sits at position last: all ones, with the
// pattern set's final-word mask at that position. The vector is reused
// across rounds.
func (e *Estimator) rootMask(words, last int, mask uint64) simulate.Vec {
	e.root = grow(e.root, words)
	for w := range e.root {
		e.root[w] = ^uint64(0)
	}
	e.root[last] = mask
	return e.root
}

// Min-work-per-shard thresholds (see par.BlocksMin). Each per-output
// propagation shard owns a propagator whose mask slab spans the whole
// graph, so that footprint must amortize over at least a couple of
// outputs; scoring shards are capped to carry at least minScoreWordOps
// 64-bit word operations (counting each word-level target as one
// output-mask sweep, each ER candidate as two sweeps of its words and
// each ER target merge as one row per shard) so tiny candidate batches
// stop fanning out. All caps are pure functions of the problem shape,
// never of the host, so shard boundaries stay reproducible.
const (
	minPOsPerShard   = 2
	minScoreWordOps  = 1 << 15
	minResimPerShard = 4
)

// resimChunk is the number of consecutive measurements a shard takes at
// a time.
const resimChunk = 4

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
// histograms when instrumented. It does nothing when n is 0.
func (e *Estimator) runShards(blocks, n int, rec *obs.Recorder, body func(shard, begin, end int)) {
	if n == 0 {
		return
	}
	if rec != nil {
		t := par.ForTimed(blocks, n, body)
		rec.ObserveShards(obs.PhaseEstimate, t.Elapsed, t.Shards)
		return
	}
	par.For(blocks, n, body)
}

// growProps grows the propagator set to at least n entries. Each shard
// rebinds its own propagator to the round with reset.
func (e *Estimator) growProps(n int) {
	for len(e.props) < n {
		e.props = append(e.props, &propagator{})
	}
}

// propagator computes change propagation masks with reusable buffers.
// Each estimation shard owns one propagator; reset binds it to the
// round's graph, a node value table and a range of its words.
type propagator struct {
	g *aig.Graph
	// vals holds the node values the pass reads, at words
	// [w0, w0+len(root)) of each vector; root is the mask every pass
	// seeds its roots with, one word per word of the range.
	vals  []simulate.Vec
	w0    int
	root  simulate.Vec
	masks []simulate.Vec // indexed by node; nil when untouched
	// touched lists the nodes with a mask; the masks are carved in
	// turn from slab, of which used words are taken.
	touched []int
	slab    []uint64
	used    int
	scratch simulate.Vec
	// chunks back the word-level target masks kept this round, each
	// holding arenaChunk masks; the next free one is at word kept of
	// chunks[chunk].
	chunks      [][]uint64
	chunk, kept int
}

// arenaChunk is the number of masks per arena chunk: small enough that
// the unused tail stays a fraction of a round's masks, large enough
// that a round allocates few chunks.
const arenaChunk = 256

// reset binds the propagator to a graph, the node value table vals and
// the range of len(root) words from w0 that root seeds, retiring live
// masks and emptying the arena. The mask slab is kept whatever the
// width, so shards that alternate between word ranges of different
// widths reuse it; the arena's chunks are dropped when the width
// changed.
func (p *propagator) reset(g *aig.Graph, vals []simulate.Vec, w0 int, root simulate.Vec) {
	p.retire()
	p.chunk, p.kept = 0, 0
	if len(root) != len(p.root) {
		p.chunks = nil
	}
	p.g, p.vals, p.w0, p.root = g, vals, w0, root
	if n := g.NumNodes(); cap(p.masks) >= n {
		p.masks = p.masks[:n]
	} else {
		p.masks = make([]simulate.Vec, n)
	}
}

// retire drops every live mask, returning the slab for reuse.
func (p *propagator) retire() {
	for _, id := range p.touched {
		p.masks[id] = nil
	}
	p.touched = p.touched[:0]
	p.used = 0
}

// scratchVec returns a scratch vector of the range's width (contents
// unspecified).
func (p *propagator) scratchVec() simulate.Vec {
	if cap(p.scratch) < len(p.root) {
		p.scratch = make(simulate.Vec, len(p.root))
	}
	return p.scratch[:len(p.root)]
}

// keep copies a propagation mask into the arena and returns the copy,
// or nil when the mask is nil or all zero (no flip can reach the
// output). The arena's chunks are reused across rounds; a round that
// needs more masks than any before it appends chunks.
func (p *propagator) keep(pm simulate.Vec) simulate.Vec {
	if pm == nil {
		return nil
	}
	width := len(p.root)
	if p.kept == arenaChunk*width {
		p.chunk, p.kept = p.chunk+1, 0
	}
	if p.chunk == len(p.chunks) {
		p.chunks = append(p.chunks, make([]uint64, arenaChunk*width))
	}
	v := p.chunks[p.chunk][p.kept : p.kept+width : p.kept+width]
	var nonzero uint64
	for w, x := range pm {
		v[w] = x
		nonzero |= x
	}
	if nonzero == 0 {
		return nil
	}
	p.kept += width
	return v
}

// alloc returns a zeroed mask of the range's width, carved from the
// slab. A pass that outgrows the slab continues in a new one, at least
// twice as large and large enough for a mask on every node; the masks
// already carved stay valid, and later passes reuse the larger slab.
func (p *propagator) alloc() simulate.Vec {
	width := len(p.root)
	if p.used+width > len(p.slab) {
		p.slab = make([]uint64, max(2*len(p.slab), len(p.masks)*width))
		p.used = 0
	}
	v := p.slab[p.used : p.used+width : p.used+width]
	p.used += width
	clear(v)
	return v
}

// seed gives node id the root mask, unless it has a mask already.
func (p *propagator) seed(id int) {
	if p.masks[id] != nil {
		return
	}
	m := p.alloc()
	copy(m, p.root)
	p.masks[id] = m
	p.touched = append(p.touched, id)
}

// run computes, for primary output j, the mask per node of patterns on
// which flipping the node's value flips the output (single-pass
// approximation). The returned slice is valid until the next call.
func (p *propagator) run(j int) []simulate.Vec {
	p.retire()
	root := p.g.PO(j).Node()
	p.seed(root)
	p.sweep(root)
	return p.masks
}

// runAll computes, per node, the mask of patterns on which flipping the
// node's value flips some primary output, in one pass seeded at every
// output's root. Masks combine by OR at each node and AND with side
// inputs along each edge, and AND distributes over OR, so a node's mask
// is the union over its paths to a root of the path's side conditions:
// bit for bit the OR of run(j) over all outputs. The returned slice is
// valid until the next call.
func (p *propagator) runAll() []simulate.Vec {
	p.retire()
	top := 0
	for _, lit := range p.g.POs() {
		p.seed(lit.Node())
		top = max(top, lit.Node())
	}
	p.sweep(top)
	return p.masks
}

// sweep propagates the seeded masks from node top down. Node ids
// descend and fanins always have smaller ids, so a single descending
// pass propagates all masks.
func (p *propagator) sweep(top int) {
	for id := top; id > 0; id-- {
		pm := p.masks[id]
		if pm == nil || !p.g.IsAnd(id) {
			continue
		}
		n := p.g.NodeAt(id)
		p.propagateToFanin(pm, n.Fanin0, n.Fanin1)
		p.propagateToFanin(pm, n.Fanin1, n.Fanin0)
	}
}

// propagateToFanin ORs into the mask of fanin `to` the patterns where a
// flip of `to` flips the AND output: those where the sibling input
// evaluates to 1 and the output flip itself propagates.
func (p *propagator) propagateToFanin(outMask simulate.Vec, to, sibling aig.Lit) {
	id := to.Node()
	if id == 0 {
		return
	}
	sv := p.vals[sibling.Node()][p.w0 : p.w0+len(outMask)]
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

// EstimateAllExactRec fills DeltaE for every candidate with its exact
// (pattern-set) error increase, measured by resimulating what the
// candidate changes, under the estimate-phase span (rec may be nil).
// It serves Options.ExactEstimates, validation and the estimator
// ablation study. A synthesis with exact estimates takes about 7 times
// as long as with EstimateAllRec on mtp8 under NMED and 10 times on
// wal8 under MaxED (8192 patterns, one worker).
//
// The exact mode is sharded across candidates: each shard measures its
// candidates one at a time with its own resimulator (see MeasureSets),
// from one scoring state of the base shared read-only, so results are
// identical at any worker count and every ΔE is bit-identical to
// cmp.Error(lac.Apply(g, {l})) minus the base error.
func (e *Estimator) EstimateAllExactRec(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, lacs []*lac.LAC, rec *obs.Recorder) float64 {
	sp := rec.StartSpan(obs.PhaseEstimate)
	defer sp.End()
	base := e.fillBase(g, res, cmp)
	curErr := base.Err
	g.FanoutsInto(&e.fo)
	n := len(lacs)
	e.measure(g, res, &e.fo, par.BlocksMin(e.workers, n, minResimPerShard), n, rec, func(r *resim, i int) {
		lacs[i].DeltaE = r.errorOf(cmp, base, lacs[i:i+1]) - curErr
	})
	return curErr
}

// MeasureSets stores in out[i] the error of g with the conflict-free
// LAC set sets[i] applied, under cmp and the patterns of res, the
// simulation of g: bit-identical to cmp.Error(lac.Apply(g, sets[i])).
// fo must be g's fanout index. The sets are measured side by side, up
// to one per worker, each by resimulating and scoring only what it
// changes, from the scoring state the round's estimation filled when
// it was for g, res and cmp.
func (e *Estimator) MeasureSets(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, fo *aig.Fanouts, sets [][]*lac.LAC, out []float64) {
	base := e.baseFor(g, res, cmp)
	e.measure(g, res, fo, par.Blocks(e.workers, len(sets)), len(sets), nil, func(r *resim, i int) {
		out[i] = r.errorOf(cmp, base, sets[i])
	})
}

// MeasureEach returns, for each LAC, the measured error of the circuit
// with that LAC applied alone — the ground truth the run ledger pairs
// with each applied LAC's estimated increase. fo must be g's fanout
// index. Sharded across LACs like EstimateAllExactRec.
func (e *Estimator) MeasureEach(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, fo *aig.Fanouts, lacs []*lac.LAC, rec *obs.Recorder) []float64 {
	out := make([]float64, len(lacs))
	base := e.baseFor(g, res, cmp)
	e.measure(g, res, fo, par.BlocksMin(e.workers, len(lacs), minResimPerShard), len(lacs), rec, func(r *resim, i int) {
		out[i] = r.errorOf(cmp, base, lacs[i:i+1])
	})
	return out
}

// fillBase refills the scoring state for g under res and cmp and
// returns it.
func (e *Estimator) fillBase(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator) *errmetric.BaseEval {
	cmp.ResetBaseEval(&e.base, e.outputs(g, res))
	e.baseKey = baseKey{g, res, cmp}
	return &e.base
}

// baseFor returns the scoring state for g under res and cmp, refilling
// it only when it was last filled for something else.
func (e *Estimator) baseFor(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator) *errmetric.BaseEval {
	if e.baseKey != (baseKey{g, res, cmp}) {
		return e.fillBase(g, res, cmp)
	}
	return &e.base
}

// measure calls body for every i in [0,n) on the given number of
// shards, each with its own resimulator bound to g and res. The shards
// take the indices in chunks of resimChunk as they free up: what one
// index costs depends on how far its changes spread, so fixed ranges
// would leave shards idle. Each index's result depends on that index
// alone, so the split never changes a result.
func (e *Estimator) measure(g *aig.Graph, res *simulate.Result, fo *aig.Fanouts, blocks, n int, rec *obs.Recorder, body func(r *resim, i int)) {
	if n == 0 {
		return
	}
	for len(e.resims) < blocks {
		e.resims = append(e.resims, &resim{})
	}
	// The shards keep their new values in parts of devBuf, which sits
	// idle outside fast estimation. A shard that outgrows its part
	// continues in its own buffer, and devBuf grows so the next call's
	// parts hold the largest.
	buf := e.devBuf[:cap(e.devBuf)]
	part := len(buf) / blocks
	for s, r := range e.resims[:blocks] {
		r.cv = buf[s*part : s*part : (s+1)*part]
	}
	var next atomic.Int64
	e.runShards(blocks, blocks, rec, func(shard, _, _ int) {
		r := e.resims[shard]
		r.bind(g, res, fo)
		for {
			i0 := int(next.Add(resimChunk)) - resimChunk
			if i0 >= n {
				return
			}
			for i := i0; i < min(i0+resimChunk, n); i++ {
				body(r, i)
			}
		}
	})
	need := part
	for _, r := range e.resims[:blocks] {
		need = max(need, cap(r.cv))
		r.cv = nil
	}
	if need > part {
		e.devBuf = make([]uint64, blocks*need)
	}
}

// outputs returns the output vectors of g under res, as
// res.POValues(g) does, with the complemented ones written into a
// buffer reused across calls. The scoring state reads those vectors, so
// it no longer names what it was filled for.
func (e *Estimator) outputs(g *aig.Graph, res *simulate.Result) []simulate.Vec {
	e.baseKey = baseKey{}
	words, m := res.Patterns.Words(), g.NumPOs()
	e.pos = grow(e.pos, m)
	e.posBuf = grow(e.posBuf, m*words)
	for j, lit := range g.POs() {
		v := res.NodeVals[lit.Node()]
		if lit.IsCompl() {
			inv := e.posBuf[j*words : (j+1)*words : (j+1)*words]
			for w, x := range v {
				inv[w] = ^x
			}
			inv[words-1] &= res.Patterns.LastMask()
			v = inv
		}
		e.pos[j] = v
	}
	return e.pos
}

// ExactDeltaE computes the exact (with respect to the pattern set)
// error increase of applying a single LAC, from the outputs
// ResimulateWith returns.
func ExactDeltaE(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, l *lac.LAC) float64 {
	curPOs := res.POValues(g)
	curErr := cmp.ErrorFromPOs(curPOs)
	newPOs := ResimulateWith(g, res, l)
	return cmp.ErrorFromPOs(newPOs) - curErr
}

// ResimulateWith returns the primary output vectors of g after applying
// the LAC; see ResimulateWithSet.
func ResimulateWith(g *aig.Graph, res *simulate.Result, l *lac.LAC) []simulate.Vec {
	return ResimulateWithSet(g, res, []*lac.LAC{l})
}

// ResimulateWithSet returns the primary output vectors of g after
// simultaneously applying a set of conflict-free LACs, bit-identical to
// simulating lac.Apply(g, lacs), in new vectors. It runs the
// measurement kernel (see MeasureSets) once, with a fresh fanout index
// and scratch; the flows measure through an Estimator instead.
func ResimulateWithSet(g *aig.Graph, res *simulate.Result, lacs []*lac.LAC) []simulate.Vec {
	var r resim
	r.bind(g, res, g.Fanouts())
	r.run(lacs)
	m := g.NumPOs()
	pos := make([]simulate.Vec, m)
	for j, lit := range g.POs() {
		v := append(simulate.Vec(nil), res.LitValue(lit)...)
		for i, w := range r.cw {
			v[w] = r.pl[i*m+j]
		}
		pos[j] = v
	}
	return pos
}
