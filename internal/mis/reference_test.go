package mis

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"accals/internal/bitset"
)

// refGraph is the graph representation the solvers had before the
// adjacency rows moved into one slab: one bitset per vertex. Its
// Greedy, Improve and Solve are verbatim copies of the solvers of that
// time, kept as the oracle for the word-level ones. Only Solve's exact
// branch reaches through g to the package's Exact.
type refGraph struct {
	n   int
	adj []*bitset.Set
	deg []int
	g   *Graph
}

// newRefGraph copies g's edges into a refGraph.
func newRefGraph(g *Graph) *refGraph {
	r := &refGraph{n: g.n, adj: make([]*bitset.Set, g.n), deg: make([]int, g.n), g: g}
	for v := range r.adj {
		r.adj[v] = bitset.New(g.n)
		for u := 0; u < g.n; u++ {
			if g.HasEdge(v, u) {
				r.adj[v].Add(u)
				r.deg[v]++
			}
		}
	}
	return r
}

func (g *refGraph) Greedy(order []int) []int {
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

func (g *refGraph) Improve(set []int) []int {
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

func (g *refGraph) Solve(seed int64) []int {
	if g.n == 0 {
		return nil
	}
	if g.n <= ExactLimit {
		return Exact(g.g)
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

// sameSet fails t unless got and want hold the same vertices in the
// same order.
func sameSet(t *testing.T, what string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vertices, want %d\ngot  %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d is %d, want %d", what, i, got[i], want[i])
		}
	}
}

// checkAgainstReference compares Greedy in vertex order and in a
// shuffled order, Improve from both greedy sets and from a non-maximal
// half of one, and Solve at workers 1, 2 and 3, against the reference
// solvers on the same graph.
func checkAgainstReference(t *testing.T, g *Graph, seed int64) {
	t.Helper()
	ref := newRefGraph(g)
	for v := 0; v < g.n; v++ {
		if g.Degree(v) != ref.deg[v] {
			t.Fatalf("Degree(%d) = %d, want %d", v, g.Degree(v), ref.deg[v])
		}
	}
	order := rand.New(rand.NewSource(seed)).Perm(g.n)
	for _, o := range [][]int{nil, order} {
		want := ref.Greedy(o)
		got := g.Greedy(o)
		sameSet(t, fmt.Sprintf("Greedy(order %v)", o != nil), got, want)
		sameSet(t, "Improve(Greedy)", g.Improve(got), ref.Improve(want))
		half := want[:len(want)/2]
		sameSet(t, "Improve(half of Greedy)", g.Improve(half), ref.Improve(half))
	}
	want := ref.Solve(seed)
	for _, workers := range []int{1, 2, 3} {
		sameSet(t, fmt.Sprintf("Solve(workers %d)", workers), Solve(g, seed, workers), want)
	}
}

func TestSolveMatchesReference(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{
		{65, 0.005}, {65, 0.3}, {100, 0.8}, {128, 0.05}, {129, 0.5},
		{300, 0.01}, {300, 0.2}, {640, 0.45}, {1000, 0.005}, {1600, 0.4},
		{1600, 0.8},
	}
	for _, c := range cases {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("n%d_p%v_seed%d", c.n, c.p, seed), func(t *testing.T) {
				checkAgainstReference(t, randomGraph(c.n, c.p, seed), seed)
			})
		}
	}
}

func FuzzMISMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(70), []byte{0, 1, 1, 2, 2, 3, 69, 0})
	f.Add(int64(2), uint16(200), []byte{5, 7, 7, 9, 9, 5, 150, 151, 151, 152, 3, 150})
	f.Add(int64(3), uint16(30), []byte{0, 1, 1, 2, 2, 0})
	f.Add(int64(4), uint16(130), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, edges []byte) {
		// Vertex counts up to 300 cover one to five row words and the
		// exact solver's range; pairs of edge-list bytes, spread over
		// the vertices by the seed, give the edges.
		nv := 1 + int(n%300)
		rng := rand.New(rand.NewSource(seed))
		spread := rng.Perm(nv)
		g := NewGraph(nv)
		for i := 0; i+1 < len(edges); i += 2 {
			g.AddEdge(spread[int(edges[i])%nv], spread[int(edges[i+1])%nv])
		}
		checkAgainstReference(t, g, seed)
	})
}
