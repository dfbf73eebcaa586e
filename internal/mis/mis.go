// Package mis provides maximum independent set solvers for the graphs
// AccALS builds over candidate LACs. It stands in for the KaMIS tool
// used by the paper. The graphs have one vertex per LAC of a
// conflict-free subset of the top set, whose size Eq. (2) bounds by
// max(r_ref, r_min): when many candidates tie at the minimum error
// increase, r_min can put well over a thousand vertices there (over
// 1500 on the EPFL sin circuit under a 0.1% error-rate bound). Solve
// answers graphs of up to 64 vertices with an exact branch-and-bound
// solver and larger ones with a greedy construction refined by
// (1,2)-swap local search, from nine starts.
package mis

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"accals/internal/par"
)

// Graph is a simple undirected graph on vertices 0..n-1. Its adjacency
// rows live in one flat slab of w words per row: bit u of row v is set
// when (u, v) is an edge.
type Graph struct {
	n, w int
	adj  []uint64
	deg  []int
}

// NewGraph returns an edgeless graph with n vertices.
func NewGraph(n int) *Graph {
	g := &Graph{}
	g.Reset(n)
	return g
}

// Reset makes g an edgeless graph with n vertices, reusing its storage.
func (g *Graph) Reset(n int) {
	g.n, g.w = n, (n+63)/64
	g.adj = slices.Grow(g.adj[:0], n*g.w)[:n*g.w]
	clear(g.adj)
	g.deg = slices.Grow(g.deg[:0], n)[:n]
	clear(g.deg)
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// row returns vertex v's adjacency row.
func (g *Graph) row(v int) []uint64 { return g.adj[v*g.w : (v+1)*g.w : (v+1)*g.w] }

// AddEdge inserts the undirected edge (u, v). Self-loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v || g.HasEdge(u, v) {
		return
	}
	g.SetArc(u, v)
	g.SetArc(v, u)
	g.deg[u]++
	g.deg[v]++
}

// SetArc sets bit v of u's row, one half of the edge (u, v) with
// u != v, and leaves the degrees alone. Calls for distinct u write
// distinct words, so goroutines that own disjoint sets of rows may
// call it concurrently. Symmetrize must follow before g is read.
func (g *Graph) SetArc(u, v int) {
	g.adj[u*g.w+v>>6] |= 1 << (uint(v) & 63)
}

// Symmetrize completes every arc (u, v) set by SetArc with (v, u) and
// recomputes each degree as its row's popcount.
func (g *Graph) Symmetrize() {
	for u := 0; u < g.n; u++ {
		col, bit := u>>6, uint64(1)<<(uint(u)&63)
		for i, word := range g.row(u) {
			for ; word != 0; word &= word - 1 {
				g.adj[(i<<6|bits.TrailingZeros64(word))*g.w+col] |= bit
			}
		}
	}
	for v := range g.deg {
		g.deg[v] = popcount(g.row(v))
	}
}

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	return g.adj[u*g.w+v>>6]&(1<<(uint(v)&63)) != 0
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return g.deg[v] }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int {
	s := 0
	for _, d := range g.deg {
		s += d
	}
	return s / 2
}

// IsIndependent reports whether the given vertex set has no internal
// edges.
func (g *Graph) IsIndependent(set []int) bool {
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if g.HasEdge(set[i], set[j]) {
				return false
			}
		}
	}
	return true
}

// allVertices returns a row-sized mask with the bits of vertices
// 0..n-1 set.
func (g *Graph) allVertices() []uint64 {
	m := make([]uint64, g.w)
	for i := range m {
		m[i] = ^uint64(0)
	}
	if r := g.n & 63; r != 0 {
		m[g.w-1] = 1<<uint(r) - 1
	}
	return m
}

func popcount(words []uint64) int {
	c := 0
	for _, word := range words {
		c += bits.OnesCount64(word)
	}
	return c
}

// members lists the set bits of a row-sized mask in ascending order.
func members(words []uint64) []int {
	out := make([]int, 0, popcount(words))
	for i, word := range words {
		for ; word != 0; word &= word - 1 {
			out = append(out, i<<6|bits.TrailingZeros64(word))
		}
	}
	return out
}

// addRow adds delta to count[u] for every u in row.
func addRow(count []int, row []uint64, delta int) {
	for i, word := range row {
		for ; word != 0; word &= word - 1 {
			count[i<<6|bits.TrailingZeros64(word)] += delta
		}
	}
}

// Greedy builds an independent set by repeatedly taking a minimum
// residual-degree vertex and deleting its neighbourhood. The order
// slice, when non-nil, breaks degree ties (earlier wins); otherwise
// lower vertex ids win, making the result deterministic.
func (g *Graph) Greedy(order []int) []int {
	rank := make([]int, g.n)
	for i := range rank {
		rank[i] = i
	}
	for pos, v := range order {
		rank[v] = pos
	}
	alive := g.allVertices()
	del := make([]uint64, g.w)
	resDeg := slices.Clone(g.deg)
	var out []int
	for remaining := g.n; remaining > 0; {
		best, bestDeg, bestRank := -1, g.n+1, g.n+1
		for i, word := range alive {
			for ; word != 0; word &= word - 1 {
				v := i<<6 | bits.TrailingZeros64(word)
				if d := resDeg[v]; d < bestDeg || (d == bestDeg && rank[v] < bestRank) {
					best, bestDeg, bestRank = v, d, rank[v]
				}
			}
		}
		out = append(out, best)
		// Delete best and its alive neighbourhood. Every survivor loses
		// one residual degree per deleted neighbour; the deleted
		// vertices' own counts are never read again.
		for i, word := range g.row(best) {
			del[i] = word & alive[i]
		}
		del[best>>6] |= 1 << (uint(best) & 63)
		for i, d := range del {
			alive[i] &^= d
			remaining -= bits.OnesCount64(d)
		}
		for i, word := range del {
			for ; word != 0; word &= word - 1 {
				rd := g.row(i<<6 | bits.TrailingZeros64(word))
				for j, a := range alive {
					for m := rd[j] & a; m != 0; m &= m - 1 {
						resDeg[j<<6|bits.TrailingZeros64(m)]--
					}
				}
			}
		}
	}
	sort.Ints(out)
	return out
}

// Improve applies (1,2)-swap local search to an independent set: it
// repeatedly tries to remove one member and insert two non-adjacent
// outside vertices whose only solution-neighbour is the removed member.
// It also absorbs any free vertices. The result is at least as large
// as the input.
func (g *Graph) Improve(set []int) []int {
	valid := g.allVertices()
	in := make([]uint64, g.w)
	for _, v := range set {
		in[v>>6] |= 1 << (uint(v) & 63)
	}
	// tight[v] = number of solution neighbours of v.
	tight := make([]int, g.n)
	for _, v := range set {
		addRow(tight, g.row(v), 1)
	}
	// one marks the outside neighbours of the current member x whose
	// only solution neighbour is x; oneTight lists them in order.
	one := make([]uint64, g.w)
	var oneTight []int

	improved := true
	for improved {
		improved = false
		// Absorb free vertices (tight == 0, not in set). An insertion
		// sets only its own bit, so each word's complement is read once.
		for i := range in {
			for free := valid[i] &^ in[i]; free != 0; free &= free - 1 {
				if v := i<<6 | bits.TrailingZeros64(free); tight[v] == 0 {
					in[i] |= 1 << (uint(v) & 63)
					addRow(tight, g.row(v), 1)
					improved = true
				}
			}
		}
		if improved {
			continue
		}
		// (1,2)-swaps: the first member x, in vertex order, with two
		// non-adjacent one-tight neighbours u < w, taking the first u
		// and then the first w.
	swap:
		for i, word := range in {
			for ; word != 0; word &= word - 1 {
				x := i<<6 | bits.TrailingZeros64(word)
				oneTight = oneTight[:0]
				for j, rx := range g.row(x) {
					one[j] = 0
					for m := rx &^ in[j]; m != 0; m &= m - 1 {
						if u := j<<6 | bits.TrailingZeros64(m); tight[u] == 1 {
							one[j] |= 1 << (uint(u) & 63)
							oneTight = append(oneTight, u)
						}
					}
				}
				for _, u := range oneTight {
					if w := firstNonNeighbourAbove(one, g.row(u), u); w >= 0 {
						in[x>>6] &^= 1 << (uint(x) & 63)
						addRow(tight, g.row(x), -1)
						for _, v := range [2]int{u, w} {
							in[v>>6] |= 1 << (uint(v) & 63)
							addRow(tight, g.row(v), 1)
						}
						improved = true
						break swap
					}
				}
			}
		}
	}
	return members(in)
}

// firstNonNeighbourAbove returns the smallest vertex above u that is in
// set and not in u's row, or -1 when there is none.
func firstNonNeighbourAbove(set, row []uint64, u int) int {
	for j := u >> 6; j < len(set); j++ {
		m := set[j] &^ row[j]
		if j == u>>6 {
			m &= ^uint64(0) << (uint(u) & 63) << 1
		}
		if m != 0 {
			return j<<6 | bits.TrailingZeros64(m)
		}
	}
	return -1
}

// restarts is the number of seeded random orders Solve tries after its
// vertex-order start.
const restarts = 8

// Solve returns a large independent set: exact for graphs of at most
// ExactLimit vertices, otherwise the largest of 1+restarts greedy
// constructions refined by local search. The first start breaks ties
// by vertex id, and each restart by an order that the seeded rng
// shuffles further, all drawn before any start runs. The starts run on
// up to workers goroutines (see par.Resolve), and the first strictly
// larger set in start order wins, so the result does not depend on
// workers.
func Solve(g *Graph, seed int64, workers int) []int {
	if g.n == 0 {
		return nil
	}
	if g.n <= ExactLimit {
		return Exact(g)
	}
	rng := rand.New(rand.NewSource(seed))
	orders := make([][]int, 1+restarts)
	order := make([]int, g.n)
	for i := range order {
		order[i] = i
	}
	for r := 1; r <= restarts; r++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		orders[r] = slices.Clone(order)
	}
	sets := make([][]int, len(orders))
	par.For(par.Resolve(workers), len(orders), func(_, begin, end int) {
		for r := begin; r < end; r++ {
			sets[r] = g.Improve(g.Greedy(orders[r]))
		}
	})
	best := sets[0]
	for _, s := range sets[1:] {
		if len(s) > len(best) {
			best = s
		}
	}
	return best
}

// ExactLimit is the largest vertex count handled by the exact solver.
const ExactLimit = 64

// Exact returns a maximum independent set via branch and bound. The
// graph must have at most ExactLimit vertices.
func Exact(g *Graph) []int {
	if g.n > ExactLimit {
		panic("mis: Exact limited to 64 vertices")
	}
	// At most 64 vertices: row v is the single word adj[v].
	adj := g.adj
	full := uint64(0)
	if g.n == 64 {
		full = ^uint64(0)
	} else {
		full = (1 << uint(g.n)) - 1
	}
	var bestSet uint64
	bestSize := 0
	var rec func(cand, cur uint64, curSize int)
	rec = func(cand, cur uint64, curSize int) {
		if curSize+bits.OnesCount64(cand) <= bestSize {
			return
		}
		if cand == 0 {
			if curSize > bestSize {
				bestSize = curSize
				bestSet = cur
			}
			return
		}
		// Branch on the candidate vertex of maximum residual degree.
		pivot, pivotDeg := -1, -1
		for c := cand; c != 0; c &= c - 1 {
			v := bits.TrailingZeros64(c)
			d := bits.OnesCount64(adj[v] & cand)
			if d > pivotDeg {
				pivot, pivotDeg = v, d
			}
		}
		vbit := uint64(1) << uint(pivot)
		// Include pivot.
		rec(cand&^(adj[pivot]|vbit), cur|vbit, curSize+1)
		// Exclude pivot.
		rec(cand&^vbit, cur, curSize)
	}
	rec(full, 0, 0)
	var out []int
	for c := bestSet; c != 0; c &= c - 1 {
		out = append(out, bits.TrailingZeros64(c))
	}
	return out
}
