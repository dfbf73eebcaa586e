// Package mis provides maximum independent set solvers for the graphs
// AccALS builds over candidate LACs. It stands in for the KaMIS tool
// used by the paper. The graphs have one vertex per LAC of a
// conflict-free subset of the top set, whose size Eq. (2) bounds by
// max(r_ref, r_min): when many candidates tie at the minimum error
// increase, r_min can put well over a thousand vertices there (over
// 1500 on the EPFL sin circuit under a 0.1% error-rate bound). Graphs
// above 64 vertices take a greedy construction refined by (1,2)-swap
// local search; an exact branch-and-bound solver handles graphs of up
// to 64 vertices and is used in tests to validate the heuristic.
package mis

import (
	"math/bits"
	"math/rand"
	"sort"

	"accals/internal/bitset"
)

// Graph is a simple undirected graph on vertices 0..n-1.
type Graph struct {
	n   int
	adj []*bitset.Set
	deg []int
}

// NewGraph returns an edgeless graph with n vertices.
func NewGraph(n int) *Graph {
	g := &Graph{n: n, adj: make([]*bitset.Set, n), deg: make([]int, n)}
	for i := range g.adj {
		g.adj[i] = bitset.New(n)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the undirected edge (u, v). Self-loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v || g.adj[u].Has(v) {
		return
	}
	g.adj[u].Add(v)
	g.adj[v].Add(u)
	g.deg[u]++
	g.deg[v]++
}

// HasEdge reports whether (u, v) is an edge.
func (g *Graph) HasEdge(u, v int) bool { return g.adj[u].Has(v) }

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
			if g.adj[set[i]].Has(set[j]) {
				return false
			}
		}
	}
	return true
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
	if order != nil {
		for pos, v := range order {
			rank[v] = pos
		}
	}
	alive := bitset.New(g.n)
	for v := 0; v < g.n; v++ {
		alive.Add(v)
	}
	resDeg := append([]int(nil), g.deg...)
	var out []int
	remaining := g.n
	for remaining > 0 {
		best, bestDeg, bestRank := -1, g.n+1, g.n+1
		alive.ForEach(func(v int) {
			if resDeg[v] < bestDeg || (resDeg[v] == bestDeg && rank[v] < bestRank) {
				best, bestDeg, bestRank = v, resDeg[v], rank[v]
			}
		})
		out = append(out, best)
		// Delete best and its alive neighbourhood.
		del := []int{best}
		g.adj[best].ForEach(func(u int) {
			if alive.Has(u) {
				del = append(del, u)
			}
		})
		for _, d := range del {
			alive.Remove(d)
			remaining--
			g.adj[d].ForEach(func(u int) {
				if alive.Has(u) {
					resDeg[u]--
				}
			})
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
	inSet := bitset.New(g.n)
	for _, v := range set {
		inSet.Add(v)
	}
	// tight[v] = number of solution neighbours of v.
	tight := make([]int, g.n)
	for _, v := range set {
		g.adj[v].ForEach(func(u int) { tight[u]++ })
	}

	insert := func(v int) {
		inSet.Add(v)
		g.adj[v].ForEach(func(u int) { tight[u]++ })
	}
	remove := func(v int) {
		inSet.Remove(v)
		g.adj[v].ForEach(func(u int) { tight[u]-- })
	}

	improved := true
	for improved {
		improved = false
		// Absorb free vertices (tight == 0, not in set).
		for v := 0; v < g.n; v++ {
			if !inSet.Has(v) && tight[v] == 0 {
				insert(v)
				improved = true
			}
		}
		// (1,2)-swaps.
		for x := 0; x < g.n && !improved; x++ {
			if !inSet.Has(x) {
				continue
			}
			// Candidates: outside vertices whose only solution
			// neighbour is x.
			var oneTight []int
			g.adj[x].ForEach(func(u int) {
				if !inSet.Has(u) && tight[u] == 1 {
					oneTight = append(oneTight, u)
				}
			})
			for i := 0; i < len(oneTight) && !improved; i++ {
				for j := i + 1; j < len(oneTight); j++ {
					u, w := oneTight[i], oneTight[j]
					if !g.adj[u].Has(w) {
						remove(x)
						insert(u)
						insert(w)
						improved = true
						break
					}
				}
			}
		}
	}
	return inSet.Elements()
}

// Solve returns a large independent set: exact for graphs of at most
// ExactLimit vertices, otherwise greedy construction plus local search
// with a few seeded random restarts.
func Solve(g *Graph, seed int64) []int {
	if g.n == 0 {
		return nil
	}
	if g.n <= ExactLimit {
		return Exact(g)
	}
	best := g.Improve(g.Greedy(nil))
	rng := rand.New(rand.NewSource(seed))
	order := make([]int, g.n)
	for i := range order {
		order[i] = i
	}
	for restart := 0; restart < 8; restart++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		cand := g.Improve(g.Greedy(order))
		if len(cand) > len(best) {
			best = cand
		}
	}
	sort.Ints(best)
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
	adj := make([]uint64, g.n)
	for v := 0; v < g.n; v++ {
		g.adj[v].ForEach(func(u int) { adj[v] |= 1 << uint(u) })
	}
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
