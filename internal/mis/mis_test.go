package mis

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func pathGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func completeGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func cycleGraph(n int) *Graph {
	g := pathGraph(n)
	g.AddEdge(n-1, 0)
	return g
}

func randomGraph(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1) // duplicate ignored
	g.AddEdge(2, 2) // self-loop ignored
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if !g.HasEdge(1, 0) || g.HasEdge(2, 3) {
		t.Fatal("HasEdge wrong")
	}
	if g.Degree(0) != 1 || g.Degree(3) != 0 {
		t.Fatal("Degree wrong")
	}
	if !g.IsIndependent([]int{2, 3}) || g.IsIndependent([]int{0, 1}) {
		t.Fatal("IsIndependent wrong")
	}
}

func TestExactKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"empty5", NewGraph(5), 5},
		{"path5", pathGraph(5), 3},
		{"path6", pathGraph(6), 3},
		{"cycle5", cycleGraph(5), 2},
		{"cycle6", cycleGraph(6), 3},
		{"k5", completeGraph(5), 1},
		{"k1", completeGraph(1), 1},
	}
	for _, c := range cases {
		got := Exact(c.g)
		if len(got) != c.want {
			t.Errorf("%s: |MIS| = %d, want %d", c.name, len(got), c.want)
		}
		if !c.g.IsIndependent(got) {
			t.Errorf("%s: result not independent: %v", c.name, got)
		}
	}
}

func TestGreedyAndImproveAreIndependentSets(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(80, 0.15, seed)
		s := g.Greedy(nil)
		if !g.IsIndependent(s) {
			t.Fatalf("greedy result not independent (seed %d)", seed)
		}
		im := g.Improve(s)
		if !g.IsIndependent(im) {
			t.Fatalf("improved result not independent (seed %d)", seed)
		}
		if len(im) < len(s) {
			t.Fatalf("Improve shrank the set: %d -> %d", len(s), len(im))
		}
	}
}

func TestSolveMatchesExactOnSmallGraphs(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := randomGraph(40, 0.2, seed)
		exact := Exact(g)
		heur := g.Improve(g.Greedy(nil))
		if len(heur) < len(exact)-2 {
			t.Errorf("seed %d: heuristic %d far below optimum %d", seed, len(heur), len(exact))
		}
		// Solve dispatches to Exact at this size.
		sol := Solve(g, 1, 1)
		if len(sol) != len(exact) {
			t.Errorf("seed %d: Solve %d != Exact %d", seed, len(sol), len(exact))
		}
	}
}

func TestSolveLargeGraph(t *testing.T) {
	g := randomGraph(300, 0.05, 7)
	s := Solve(g, 1, 1)
	if !g.IsIndependent(s) {
		t.Fatal("Solve result not independent")
	}
	if len(s) < 30 {
		t.Fatalf("Solve found only %d vertices on a sparse 300-vertex graph", len(s))
	}
	// Determinism, also across worker counts.
	s2 := Solve(g, 1, 2)
	if len(s) != len(s2) {
		t.Fatal("Solve not deterministic")
	}
	for i := range s {
		if s[i] != s2[i] {
			t.Fatal("Solve not deterministic")
		}
	}
}

func TestSolveEmptyGraph(t *testing.T) {
	if s := Solve(NewGraph(0), 1, 1); s != nil {
		t.Fatalf("Solve on empty graph = %v", s)
	}
}

func TestQuickSolveIndependence(t *testing.T) {
	f := func(seed int64, edges []uint8) bool {
		n := 30
		g := NewGraph(n)
		for i := 0; i+1 < len(edges); i += 2 {
			g.AddEdge(int(edges[i])%n, int(edges[i+1])%n)
		}
		s := Solve(g, seed, 2)
		if !g.IsIndependent(s) {
			return false
		}
		// Maximality: no vertex outside can be added.
		in := map[int]bool{}
		for _, v := range s {
			in[v] = true
		}
		for v := 0; v < n; v++ {
			if in[v] {
				continue
			}
			free := true
			for _, u := range s {
				if g.HasEdge(u, v) {
					free = false
					break
				}
			}
			if free {
				return false // could have been added
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
