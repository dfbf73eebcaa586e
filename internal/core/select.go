package core

import (
	"cmp"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"accals/internal/aig"
	"accals/internal/lac"
	"accals/internal/mis"
	"accals/internal/par"
)

// rankKey is a candidate's ranking key: ascending ΔE, then larger
// gain, then lower target id, then earlier input position. ΔE is always
// finite (the comparator contract) and positions are distinct, so the
// key is a strict total order.
type rankKey struct {
	dE           float64
	gain, target int
	pos          int
	l            *lac.LAC
}

func compareKeys(a, b rankKey) int {
	switch {
	case a.dE < b.dE:
		return -1
	case a.dE > b.dE:
		return 1
	case a.gain != b.gain:
		return cmp.Compare(b.gain, a.gain)
	case a.target != b.target:
		return cmp.Compare(a.target, b.target)
	}
	return cmp.Compare(a.pos, b.pos)
}

// sortByDeltaE orders LACs by their rankKey: the order a stable sort on
// (ΔE, −gain, target) gives. Sorting a key array and then permuting
// avoids the reflection-based swapper of sort.SliceStable.
func sortByDeltaE(lacs []*lac.LAC) {
	keys := make([]rankKey, len(lacs))
	for i, l := range lacs {
		keys[i] = rankKey{l.DeltaE, l.Gain, l.Target, i, l}
	}
	slices.SortFunc(keys, compareKeys)
	for i, k := range keys {
		lacs[i] = k.l
	}
}

// rankTop ranks the part of a round's candidate list that selection
// reads. With r_min the number of candidates tied at the minimum ΔE, it
// moves the k = max(rRef, r_min) candidates that sort first to the
// front, in sortByDeltaE order, and the rest behind them in input
// order. The key is a strict total order, so the ranked prefix is
// exactly the prefix of sortByDeltaE(cands): it holds the single best
// LAC cands[0] and every top set obtainTopSet can return.
//
// One pass collects the candidates tied at the minimum. They are the
// whole prefix when k = r_min, the usual case when ties are many;
// otherwise a second pass keeps the k smallest keys in a max-heap,
// which most candidates leave after one comparison with its root.
// Only the k prefix keys are sorted.
func (s *selector) rankTop(cands []*lac.LAC, rRef int) {
	n := len(cands)
	if n == 0 {
		return
	}
	h := s.keys[:0]
	minE := cands[0].DeltaE
	for i, l := range cands {
		if l.DeltaE < minE {
			minE, h = l.DeltaE, h[:0]
		}
		if l.DeltaE == minE {
			h = append(h, rankKey{l.DeltaE, l.Gain, l.Target, i, l})
		}
	}
	if k := min(n, max(rRef, len(h))); k > len(h) {
		h = h[:0]
		for i, l := range cands {
			key := rankKey{l.DeltaE, l.Gain, l.Target, i, l}
			switch {
			case len(h) < k:
				if h = append(h, key); len(h) == k {
					for j := k/2 - 1; j >= 0; j-- {
						siftDown(h, j)
					}
				}
			case compareKeys(key, h[0]) < 0:
				h[0] = key
				siftDown(h, 0)
			}
		}
	}
	s.keys = h
	slices.SortFunc(h, compareKeys)
	// Compact the unranked candidates to the back, last first: the write
	// index never falls below the read index.
	ranked := slices.Grow(s.ranked[:0], n)[:n]
	s.ranked = ranked
	clear(ranked)
	for _, key := range h {
		ranked[key.pos] = true
	}
	w := n
	for i := n - 1; i >= 0; i-- {
		if !ranked[i] {
			w--
			cands[w] = cands[i]
		}
	}
	for i, key := range h {
		cands[i] = key.l
	}
	// Drop the LAC pointers: the scratch must not keep a round's
	// candidates, and their slabs, alive into the next round.
	clear(h)
}

// siftDown restores the max-heap order of h below position i.
func siftDown(h []rankKey, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && compareKeys(h[c+1], h[c]) > 0 {
			c++
		}
		if compareKeys(h[c], h[i]) <= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// obtainTopSet implements ObtainTopSet (Section II-B): it returns the
// r_top candidates with the smallest error increases, where r_top
// follows Eq. (2) and shrinks as the error approaches the bound.
// Errors are never negative, so r_top <= max(rRef, r_min), and the
// input needs only the order rankTop gives: its first max(rRef, r_min)
// entries in sortByDeltaE order, and none of the rest at the minimum
// ΔE. A fully sorted list qualifies.
func obtainTopSet(sorted []*lac.LAC, e, eb float64, rRef int) []*lac.LAC {
	if len(sorted) == 0 {
		return nil
	}
	// r_min: number of LACs sharing the minimum error increase.
	rMin := 1
	for rMin < len(sorted) && sorted[rMin].DeltaE == sorted[0].DeltaE {
		rMin++
	}
	base := rRef
	if rMin > base {
		base = rMin
	}
	frac := 0.0
	if eb > 0 {
		frac = (eb - e) / eb
	}
	rTop := int(frac * float64(base))
	if rTop < 1 {
		rTop = 1
	}
	if rTop > len(sorted) {
		rTop = len(sorted)
	}
	return sorted[:rTop]
}

// findSolveLACConf implements FindSolveLACConf (Section II-C): it
// extracts a conflict-free subset of lTop in ascending weight (error
// increase) order. It returns the conflict-free LACs, their target-node
// set, and the edge count of the LAC conflict graph (a round-ledger
// column).
//
// Conflicts (Definition 1): Type 1 -- two LACs share a target node;
// Type 2 -- an SN of one LAC is the TN of the other. lTop is sorted by
// ascending ΔE, the node weights, so the paper's heuristic is the
// in-order greedy over the conflict graph: take each LAC that has no
// edge to one already taken. That needs no graph. A LAC conflicts with
// the taken ones exactly when its target is a taken target (Type 1) or
// a taken SN (Type 2), or one of its SNs is a taken target (Type 2).
//
// The edge count is Σ_t C(k_t, 2) + Σ_i Σ_{s ∈ SNs(i)} k_s, where k_x
// is the number of LACs targeting x. No pair is counted twice: a LAC's
// SNs are distinct and below its target, so two LACs cannot conflict
// by both types, nor by Type 2 in both directions.
func findSolveLACConf(lTop []*lac.LAC) (lSol []*lac.LAC, nSol []int, confEdges int) {
	maxID := 0
	for _, l := range lTop {
		maxID = max(maxID, l.Target)
		for _, sn := range l.SNs {
			maxID = max(maxID, sn)
		}
	}
	// k[x] counts the LACs targeting x. Each LAC adds the count of the
	// earlier ones sharing its target, which sums to Σ_t C(k_t, 2).
	k := make([]int32, maxID+1)
	for _, l := range lTop {
		confEdges += int(k[l.Target])
		k[l.Target]++
	}
	const (
		takenTarget = 1 << iota
		takenSN
	)
	taken := make([]uint8, maxID+1)
	for _, l := range lTop {
		ok := taken[l.Target] == 0
		for _, sn := range l.SNs {
			confEdges += int(k[sn])
			ok = ok && taken[sn]&takenTarget == 0
		}
		if !ok {
			continue
		}
		taken[l.Target] |= takenTarget
		for _, sn := range l.SNs {
			taken[sn] |= takenSN
		}
		lSol = append(lSol, l)
		nSol = append(nSol, l.Target)
	}
	return lSol, nSol, confEdges
}

// selector is a run's selection scratch: the worker budget and the
// buffers that ranking, G_sol construction and the MIS solve reuse from
// round to round, each sized to the largest round so far. Like
// estimator.Estimator, it is not safe for concurrent use.
type selector struct {
	workers int
	// keys holds rankTop's keys, ranked its per-candidate marks.
	keys   []rankKey
	ranked []bool
	// fan packs F(x) for every node x from the lowest target up, and
	// off indexes it (see fanoutRows).
	fan []uint64
	off []int
	gs  mis.Graph
}

// newSelector returns a selector with the given worker budget (see
// par.Resolve).
func newSelector(workers int) *selector {
	return &selector{workers: par.Resolve(workers)}
}

// fanoutRows computes F(x), the transitive fanout of x including x,
// for every node x >= lo in one reverse-topological pass:
// F(x) = {x} ∪ ⋃ F(y) over the fanouts y of x. Ids are topological, so
// F(x) ⊆ [x, NumNodes) and row x stores only words x>>6 up to the last;
// rows are packed back to back and row(x) returns x's.
func (s *selector) fanoutRows(g *aig.Graph, fanouts *aig.Fanouts, lo int) (row func(x int) []uint64, w int) {
	nn := g.NumNodes()
	w = (nn + 63) / 64
	s.off = slices.Grow(s.off[:0], nn-lo+1)[:nn-lo+1]
	off := s.off
	total := 0
	for x := lo; x < nn; x++ {
		off[x-lo] = total
		total += w - x>>6
	}
	off[nn-lo] = total
	s.fan = slices.Grow(s.fan[:0], total)[:total]
	fan := s.fan
	row = func(x int) []uint64 { return fan[off[x-lo]:off[x-lo+1]:off[x-lo+1]] }
	for x := nn - 1; x >= lo; x-- {
		rx := row(x)
		clear(rx)
		rx[0] = 1 << (uint(x) & 63)
		for _, y := range fanouts.Of(x) {
			dst := rx[y>>6-x>>6:]
			for i, word := range row(y) {
				dst[i] |= word
			}
		}
	}
	return row, w
}

// gsolRow is one target of G_sol in the pair loop's topological order.
type gsolRow struct {
	v, x int      // G_sol vertex and target node
	f    []uint64 // F(x), from word x>>6 on
	size int      // |F(x)|
	last int      // index of F(x)'s last non-empty word
	// need is the least overlap i with float64(i)/float64(size) > tb,
	// or NumNodes+1 when none reaches it.
	need int
}

// buildGSol builds SelectIndpLACs' graph G_sol over distinct target
// nodes, one vertex per entry: an edge joins two targets whose
// structural mutual-influence index p_ji exceeds tb. For the pair in
// topological order (e < l), p_ji is 1/d when l lies in e's transitive
// fanout at shortest directed distance d, and otherwise the overlap
// |F(e) ∩ F(l)| / |F(l)| of their transitive fanouts (each including
// its root). fanouts is g's fanout index. It returns the graph, which
// the selector reuses on its next call, the number of pairs scored and
// the number of edges.
//
// Every edge is decided exactly, in one pass over the pairs with every
// fanout set computed beforehand (fanoutRows). A connected pair has
// 1/d > tb iff d is at most a depth maxD fixed by tb, so a BFS from e
// bounded at maxD replaces the distance vector; at the paper's
// t_b = 0.5, maxD = 1 and l must be a direct fanout of e. For the other
// pairs, float division by |F(l)| is monotone in the overlap, so the
// overlap ratio exceeds tb iff the overlap reaches need(l), the least
// integer whose ratio does. The overlap has at most |F(e)| elements, so
// the popcount is skipped when |F(e)| < need(l); otherwise it covers
// only the words both sets can share.
//
// The pair loop is sharded over the workers by contiguous blocks of
// rows holding about equal numbers of pairs (row a has n-1-a). Each
// shard sets the arc from e's vertex to l's in G_sol rows only it
// owns, and one mirror pass then completes the edges and degrees, so
// the graph does not depend on the worker count.
func (s *selector) buildGSol(g *aig.Graph, fanouts *aig.Fanouts, targets []int, tb float64) (gs *mis.Graph, pairs, above int) {
	n := len(targets)
	gs = &s.gs
	gs.Reset(n)
	if n < 2 {
		return gs, 0, 0
	}
	nn := g.NumNodes()
	rows := make([]gsolRow, n)
	for v, x := range targets {
		rows[v].v, rows[v].x = v, x
	}
	slices.SortFunc(rows, func(a, b gsolRow) int { return cmp.Compare(a.x, b.x) })
	row, w := s.fanoutRows(g, fanouts, rows[0].x)
	for a := range rows {
		r := &rows[a]
		r.f = row(r.x)
		for i, word := range r.f {
			if word != 0 {
				r.size += bits.OnesCount64(word)
				r.last = r.x>>6 + i
			}
		}
		r.need = sort.Search(nn+1, func(i int) bool { return float64(i)/float64(r.size) > tb })
	}

	// maxD is the largest distance whose p_ji = 1/d exceeds tb, capped
	// at nn: 1/float64(d) does not increase with d, so those distances
	// are exactly 1..maxD (none when tb >= 1 or tb is NaN).
	maxD := 0
	for maxD < nn && 1/float64(maxD+1) > tb {
		maxD++
	}

	// Shard b scores rows bounds[b] to bounds[b+1]: from the first row
	// whose preceding rows hold at least b/blocks of the pairs.
	pairs = n * (n - 1) / 2
	blocks := par.Blocks(s.workers, n)
	bounds := make([]int, blocks+1)
	for b, a, done := 1, 0, 0; b < blocks; b++ {
		for a < n && done < b*pairs/blocks {
			done += n - 1 - a
			a++
		}
		bounds[b] = a
	}
	bounds[blocks] = n
	aboves := make([]int, blocks)
	par.For(blocks, blocks, func(shard, _, _ int) {
		// ball holds the nodes at distance 1..maxD from the current e.
		ball := make([]uint64, w)
		var frontier, next []int
		edges := 0
		for a := bounds[shard]; a < bounds[shard+1]; a++ {
			ra := &rows[a]
			e := ra.x
			clear(ball)
			frontier = append(frontier[:0], e)
			for d := 0; d < maxD && len(frontier) > 0; d++ {
				next = next[:0]
				for _, y := range frontier {
					for _, z := range fanouts.Of(y) {
						if bit := uint64(1) << (uint(z) & 63); ball[z>>6]&bit == 0 {
							ball[z>>6] |= bit
							next = append(next, z)
						}
					}
				}
				frontier, next = next, frontier
			}
			for b := a + 1; b < n; b++ {
				rb := &rows[b]
				l := rb.x
				// Word l>>6 of F(e) and of F(l) is ra.f[lw] and rb.f[0].
				lw := l>>6 - e>>6
				bit := uint64(1) << (uint(l) & 63)
				edge := false
				if ra.f[lw]&bit != 0 {
					edge = ball[l>>6]&bit != 0
				} else if ra.size >= rb.need {
					k := max(0, min(ra.last, rb.last)-l>>6+1)
					x, y := ra.f[lw:lw+k], rb.f[:k]
					inter := 0
					for i, word := range y {
						inter += bits.OnesCount64(word & x[i])
					}
					edge = inter >= rb.need
				}
				if edge {
					gs.SetArc(ra.v, rb.v)
					edges++
				}
			}
		}
		aboves[shard] = edges
	})
	gs.Symmetrize()
	for _, c := range aboves {
		above += c
	}
	return gs, pairs, above
}

// indpStats surfaces SelectIndpLACs' intermediate sizes for the round
// ledger: how many target pairs the mutual-influence index scored, how
// many exceeded the t_b threshold (the edges of G_sol), and the solved
// MIS size |N_indp|.
type indpStats struct {
	pairs, above, misSize int
}

// selectIndp implements SelectIndpLACs (Section II-D): build the
// graph G_sol over target nodes with edges where p_ji > t_b, solve an
// MIS to obtain N_indp, and pick the final independent LAC set from
// the potential set L_pote under the r_sel / λ·e_b budget. fanouts is
// g's fanout index.
func (s *selector) selectIndp(g *aig.Graph, fanouts *aig.Fanouts, lSol []*lac.LAC, e, eb float64, p Params) ([]*lac.LAC, indpStats) {
	var st indpStats
	if len(lSol) == 0 {
		return nil, st
	}
	// After conflict resolution every LAC has a unique target, so
	// G_sol's vertices map 1:1 to lSol entries.
	gs, pairs, above := s.buildGSol(g, fanouts, lac.Targets(lSol), p.TB)
	st.pairs, st.above = pairs, above
	nIndp := mis.Solve(gs, p.Seed, s.workers)
	st.misSize = len(nIndp)

	// L_pote: LACs whose targets are in N_indp, by ascending ΔE.
	lPote := make([]*lac.LAC, 0, len(nIndp))
	for _, v := range nIndp {
		lPote = append(lPote, lSol[v])
	}
	sortByDeltaE(lPote)
	return budgetedPrefix(lPote, e, eb, p), st
}

// budgetedPrefix applies the paper's sizing rule for L_indp: all
// non-positive-ΔE LACs when there are at least r_sel of them;
// otherwise the longest prefix of the first r_sel LACs whose estimated
// error e + ΣΔE stays within λ·e_b, and at least one LAC always.
func budgetedPrefix(sorted []*lac.LAC, e, eb float64, p Params) []*lac.LAC {
	if len(sorted) == 0 {
		return nil
	}
	rNeg := 0
	for _, l := range sorted {
		if l.DeltaE <= 0 {
			rNeg++
		}
	}
	if rNeg >= p.RSel {
		return sorted[:rNeg]
	}
	limit := p.Lambda * eb
	n := len(sorted)
	if n > p.RSel {
		n = p.RSel
	}
	best := 1
	sum := e
	for i := 0; i < n; i++ {
		sum += sorted[i].DeltaE
		if sum <= limit {
			best = i + 1
		}
	}
	if sum := e + sorted[0].DeltaE; sum > limit {
		best = 1
	}
	return sorted[:best]
}

// selectRandomLACs implements SelectRandomLACs: a seeded random
// conflict-free subset of L_sol, sized with the same r_sel / λ·e_b
// budget as the independent set but in shuffled order.
func selectRandomLACs(lSol []*lac.LAC, e, eb float64, p Params, rng *rand.Rand) []*lac.LAC {
	if len(lSol) == 0 {
		return nil
	}
	shuffled := append([]*lac.LAC(nil), lSol...)
	rng.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	limit := p.Lambda * eb
	n := len(shuffled)
	if n > p.RSel {
		n = p.RSel
	}
	out := shuffled[:1:1]
	sum := e + shuffled[0].DeltaE
	for i := 1; i < n; i++ {
		if sum+shuffled[i].DeltaE > limit {
			continue
		}
		sum += shuffled[i].DeltaE
		out = append(out, shuffled[i])
	}
	return out
}

// estimatedError returns e + Σ ΔE over the set (Eq. (1)).
func estimatedError(e float64, set []*lac.LAC) float64 {
	sum := e
	for _, l := range set {
		sum += l.DeltaE
	}
	return math.Max(sum, 0)
}
