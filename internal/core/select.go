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
)

// sortByDeltaE orders LACs by ascending estimated error increase,
// breaking ties by larger gain, then by target id, then by input
// position: the order a stable sort on the first three keys gives.
// Sorting a key array and then permuting avoids the reflection-based
// swapper of sort.SliceStable. ΔE is always finite (the comparator
// contract), so the float comparison is a total order.
func sortByDeltaE(lacs []*lac.LAC) {
	type key struct {
		dE           float64
		gain, target int
		pos          int
		l            *lac.LAC
	}
	keys := make([]key, len(lacs))
	for i, l := range lacs {
		keys[i] = key{l.DeltaE, l.Gain, l.Target, i, l}
	}
	slices.SortFunc(keys, func(a, b key) int {
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
	})
	for i, k := range keys {
		lacs[i] = k.l
	}
}

// obtainTopSet implements ObtainTopSet (Section II-B): it returns the
// r_top candidates with the smallest error increases, where r_top
// follows Eq. (2) and shrinks as the error approaches the bound.
// The input slice must already be sorted by sortByDeltaE.
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

// buildGSol builds SelectIndpLACs' graph G_sol over distinct target
// nodes, one vertex per entry: an edge joins two targets whose
// structural mutual-influence index p_ji exceeds tb. For the pair in
// topological order (e < l), p_ji is 1/d when l lies in e's transitive
// fanout at shortest directed distance d, and otherwise the overlap
// |F(e) ∩ F(l)| / |F(l)| of their transitive fanouts (each including
// its root). It returns the graph, the number of pairs scored and the
// number of edges.
//
// Every edge is decided exactly, in one pass that computes each
// target's fanout set once. A connected pair has 1/d > tb iff d is at
// most a depth maxD fixed by tb, so a BFS from e bounded at maxD
// replaces the distance vector; at the paper's t_b = 0.5, maxD = 1 and
// l must be a direct fanout of e. For the other pairs the overlap has
// at most |F(e)| elements and float division by |F(l)| is monotone,
// so the popcount is skipped unless |F(e)|/|F(l)| exceeds tb; otherwise
// it covers only the words both sets can share, since F(x) ⊆
// [x, NumNodes) for topological ids.
func buildGSol(g *aig.Graph, targets []int, tb float64) (gs *mis.Graph, pairs, above int) {
	n := len(targets)
	gs = mis.NewGraph(n)
	fanouts := g.Fanouts()
	nn := g.NumNodes()
	w := (nn + 63) / 64
	// Rows follow topological order: targets[ord[a]] < targets[ord[b]]
	// for a < b.
	ord := make([]int, n)
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return targets[ord[a]] < targets[ord[b]] })
	// Row a of slab is F(targets[ord[a]]) as a bit vector, with its
	// size and the index of its last non-empty word.
	slab := make([]uint64, n*w)
	size := make([]int, n)
	last := make([]int, n)
	var stack []int
	for a, v := range ord {
		row := slab[a*w : (a+1)*w]
		x := targets[v]
		row[x>>6] |= 1 << (uint(x) & 63)
		stack = append(stack[:0], x)
		for len(stack) > 0 {
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, z := range fanouts[y] {
				if bit := uint64(1) << (uint(z) & 63); row[z>>6]&bit == 0 {
					row[z>>6] |= bit
					stack = append(stack, z)
				}
			}
		}
		for i, word := range row {
			if word != 0 {
				size[a] += bits.OnesCount64(word)
				last[a] = i
			}
		}
	}

	// maxD is the largest distance whose p_ji = 1/d exceeds tb, capped
	// at nn: 1/float64(d) does not increase with d, so those distances
	// are exactly 1..maxD (none when tb >= 1 or tb is NaN).
	maxD := 0
	for maxD < nn && 1/float64(maxD+1) > tb {
		maxD++
	}
	// ball holds the nodes at distance 1..maxD from the current e.
	ball := make([]uint64, w)
	var frontier, next []int
	for a := 0; a < n; a++ {
		e := targets[ord[a]]
		re := slab[a*w : (a+1)*w]
		clear(ball)
		frontier = append(frontier[:0], e)
		for d := 0; d < maxD && len(frontier) > 0; d++ {
			next = next[:0]
			for _, y := range frontier {
				for _, z := range fanouts[y] {
					if bit := uint64(1) << (uint(z) & 63); ball[z>>6]&bit == 0 {
						ball[z>>6] |= bit
						next = append(next, z)
					}
				}
			}
			frontier, next = next, frontier
		}
		for b := a + 1; b < n; b++ {
			l := targets[ord[b]]
			bit := uint64(1) << (uint(l) & 63)
			edge := false
			if re[l>>6]&bit != 0 {
				edge = ball[l>>6]&bit != 0
			} else if float64(size[a])/float64(size[b]) > tb {
				rl := slab[b*w : (b+1)*w]
				inter := 0
				for i := l >> 6; i <= min(last[a], last[b]); i++ {
					inter += bits.OnesCount64(re[i] & rl[i])
				}
				edge = float64(inter)/float64(size[b]) > tb
			}
			if edge {
				gs.AddEdge(ord[a], ord[b])
				above++
			}
		}
	}
	return gs, n * (n - 1) / 2, above
}

// indpStats surfaces SelectIndpLACs' intermediate sizes for the round
// ledger: how many target pairs the mutual-influence index scored, how
// many exceeded the t_b threshold (the edges of G_sol), and the solved
// MIS size |N_indp|.
type indpStats struct {
	pairs, above, misSize int
}

// selectIndpLACs implements SelectIndpLACs (Section II-D): build the
// graph G_sol over target nodes with edges where p_ji > t_b, solve an
// MIS to obtain N_indp, and pick the final independent LAC set from
// the potential set L_pote under the r_sel / λ·e_b budget.
func selectIndpLACs(g *aig.Graph, lSol []*lac.LAC, e, eb float64, p Params) ([]*lac.LAC, indpStats) {
	var st indpStats
	if len(lSol) == 0 {
		return nil, st
	}
	// After conflict resolution every LAC has a unique target, so
	// G_sol's vertices map 1:1 to lSol entries.
	gs, pairs, above := buildGSol(g, lac.Targets(lSol), p.TB)
	st.pairs, st.above = pairs, above
	nIndp := mis.Solve(gs, p.Seed)
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
