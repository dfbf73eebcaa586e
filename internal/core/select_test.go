package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"accals/internal/aig"
	"accals/internal/circuits"
	"accals/internal/errmetric"
	"accals/internal/estimator"
	"accals/internal/lac"
	"accals/internal/mis"
	"accals/internal/simulate"
)

// mkLAC fabricates a LAC with explicit ids and estimated error.
func mkLAC(target int, sns []int, dE float64) *lac.LAC {
	return &lac.LAC{Target: target, SNs: sns, Fn: lac.Fn{Kind: lac.FnWire}, Gain: 1, DeltaE: dE}
}

// paperExample returns the six LACs of the paper's Fig. 2 / Example 3,
// ordered T1..T6 by ascending error increase.
func paperExample() []*lac.LAC {
	return []*lac.LAC{
		mkLAC(3, []int{1}, 0.01),    // T1: L({1},3)
		mkLAC(4, []int{1, 3}, 0.02), // T2: L({1,3},4)
		mkLAC(4, []int{2}, 0.03),    // T3: L({2},4)
		mkLAC(5, []int{3, 4}, 0.04), // T4: L({3,4},5)
		mkLAC(6, []int{5}, 0.05),    // T5: L({5},6)
		mkLAC(7, []int{8, 9}, 0.06), // T6: L({8,9},7)
	}
}

// BuildConflictGraph constructs the LAC conflict graph of Definition 1:
// one vertex per LAC, an edge for every Type-1 or Type-2 conflict. It
// is the oracle for findSolveLACConf, which decides the same greedy and
// counts the same edges without building the graph.
func BuildConflictGraph(lacs []*lac.LAC) *mis.Graph {
	g := mis.NewGraph(len(lacs))
	// Index LACs by target node for Type-1 and Type-2 detection.
	byTarget := make(map[int][]int, len(lacs))
	for i, l := range lacs {
		byTarget[l.Target] = append(byTarget[l.Target], i)
	}
	// Type 1: same target node.
	for _, idxs := range byTarget {
		for a := 0; a < len(idxs); a++ {
			for b := a + 1; b < len(idxs); b++ {
				g.AddEdge(idxs[a], idxs[b])
			}
		}
	}
	// Type 2: an SN of one LAC is the TN of another.
	for i, l := range lacs {
		for _, sn := range l.SNs {
			for _, j := range byTarget[sn] {
				if j != i {
					g.AddEdge(i, j)
				}
			}
		}
	}
	return g
}

// refFindSolveLACConf is FindSolveLACConf on the built conflict graph:
// the in-order greedy over lTop, taking each LAC with no edge to one
// already taken.
func refFindSolveLACConf(lTop []*lac.LAC) (lSol []*lac.LAC, nSol []int, confEdges int) {
	g := BuildConflictGraph(lTop)
	var selected []int
	for v := 0; v < g.N(); v++ {
		ok := true
		for _, u := range selected {
			if g.HasEdge(u, v) {
				ok = false
				break
			}
		}
		if ok {
			selected = append(selected, v)
		}
	}
	for _, v := range selected {
		lSol = append(lSol, lTop[v])
		nSol = append(nSol, lTop[v].Target)
	}
	return lSol, nSol, g.NumEdges()
}

// randomTop draws an L_top-like list of n LACs over targets 1..span:
// shared targets, SNs that are other LACs' targets (chains of Type-2
// conflicts), and 0–3 distinct SNs per LAC, each below its target.
// ΔE, gain and target repeat often, so sorts meet ties on every key.
func randomTop(rng *rand.Rand, n, span int) []*lac.LAC {
	lacs := make([]*lac.LAC, n)
	for i := range lacs {
		target := 2 + rng.Intn(span)
		var sns []int
		for _, sn := range rng.Perm(target - 1)[:min(rng.Intn(4), target-1)] {
			sns = append(sns, sn+1)
		}
		l := mkLAC(target, sns, float64(rng.Intn(4))*0.01)
		l.Gain = 1 + rng.Intn(3)
		lacs[i] = l
	}
	return lacs
}

func TestFindSolveLACConfMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(80)
		lTop := randomTop(rng, n, 1+rng.Intn(2*n))
		lSol, nSol, edges := findSolveLACConf(lTop)
		wantSol, wantN, wantEdges := refFindSolveLACConf(lTop)
		if edges != wantEdges {
			t.Fatalf("trial %d: %d conflict edges, want %d", trial, edges, wantEdges)
		}
		if len(lSol) != len(wantSol) || len(nSol) != len(wantN) {
			t.Fatalf("trial %d: |L_sol| = %d, want %d", trial, len(lSol), len(wantSol))
		}
		for i := range wantSol {
			if lSol[i] != wantSol[i] || nSol[i] != wantN[i] {
				t.Fatalf("trial %d: L_sol[%d] = %v, want %v", trial, i, lSol[i], wantSol[i])
			}
		}
	}
}

func TestSortByDeltaEMatchesStable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		got := randomTop(rng, rng.Intn(200), 1+rng.Intn(20))
		want := append([]*lac.LAC(nil), got...)
		sort.SliceStable(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.DeltaE != b.DeltaE {
				return a.DeltaE < b.DeltaE
			}
			if a.Gain != b.Gain {
				return a.Gain > b.Gain
			}
			return a.Target < b.Target
		})
		sortByDeltaE(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: position %d holds %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// tiedList draws n LACs of which exactly rMin tie at the minimum ΔE
// (-0.01). The rest take ΔE from a few larger values, and gains and
// targets repeat, so every key meets ties.
func tiedList(rng *rand.Rand, n, rMin int) []*lac.LAC {
	lacs := make([]*lac.LAC, n)
	for i, pos := range rng.Perm(n) {
		dE := -0.01
		if i >= rMin {
			dE = float64(rng.Intn(4)) * 0.01
		}
		l := mkLAC(1+rng.Intn(1+n/4), nil, dE)
		l.Gain = 1 + rng.Intn(3)
		lacs[pos] = l
	}
	return lacs
}

func TestRankTopMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sel := newSelector(1) // reused, as across a run's rounds
	type tc struct{ n, rMin, rRef int }
	cases := []tc{{0, 0, 5}, {1, 1, 5}, {1, 1, 1}, {2, 1, 1}, {2, 2, 1}}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		rMin := 1 + rng.Intn(n)
		var rRef int
		switch trial % 4 {
		case 0: // r_min below r_ref
			rRef = rMin + 1 + rng.Intn(n)
		case 1: // equal
			rRef = rMin
		case 2: // above
			rRef = rng.Intn(rMin)
		case 3: // every candidate tied
			rMin, rRef = n, rng.Intn(2*n)
		}
		cases = append(cases, tc{n, rMin, rRef})
	}
	for i, c := range cases {
		input := tiedList(rng, c.n, c.rMin)
		want := slices.Clone(input)
		sortByDeltaE(want)
		got := slices.Clone(input)
		sel.rankTop(got, c.rRef)
		k := min(c.n, max(c.rRef, c.rMin))
		for j := 0; j < k; j++ {
			if got[j] != want[j] {
				t.Fatalf("case %d %+v: ranked position %d holds %v, want %v", i, c, j, got[j], want[j])
			}
		}
		// The rest keep their input order behind the ranked prefix.
		rest := got[k:]
		for _, l := range input {
			if len(rest) > 0 && l == rest[0] {
				rest = rest[1:]
			}
		}
		if len(rest) != 0 {
			t.Fatalf("case %d %+v: unranked tail is not the input order of the rest", i, c)
		}
		for _, eb := range []float64{0, 0.001, 0.05, 1} {
			for _, frac := range []float64{0, 0.1, 0.5, 0.9, 0.999, 1, 1.5} {
				e := frac * eb
				top, wantTop := obtainTopSet(got, e, eb, c.rRef), obtainTopSet(want, e, eb, c.rRef)
				if len(top) != len(wantTop) {
					t.Fatalf("case %d %+v e=%v eb=%v: |top| = %d, want %d", i, c, e, eb, len(top), len(wantTop))
				}
				for j := range wantTop {
					if top[j] != wantTop[j] {
						t.Fatalf("case %d %+v e=%v eb=%v: top[%d] differs", i, c, e, eb, j)
					}
				}
			}
		}
	}
}

func TestBuildConflictGraphPaperExample(t *testing.T) {
	g := BuildConflictGraph(paperExample())
	// Expected edges (0-indexed): T1-T2, T2-T3, T2-T4, T3-T4, T4-T5,
	// and T1-T4 (SN 3 of T4 is the TN of T1 — a Type-2 conflict by
	// Definition 1, though the paper's figure does not draw it).
	wantEdges := [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {0, 3}}
	for _, e := range wantEdges {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing conflict edge T%d-T%d", e[0]+1, e[1]+1)
		}
	}
	if g.NumEdges() != len(wantEdges) {
		t.Errorf("NumEdges = %d, want %d", g.NumEdges(), len(wantEdges))
	}
}

func TestFindSolveLACConfPaperExample(t *testing.T) {
	lSol, nSol, edges := findSolveLACConf(paperExample())
	if edges == 0 {
		t.Fatalf("conflict edges = 0, want > 0 for the paper example")
	}
	// Example 4: S_sel = {T1, T3, T5, T6} -> TNs {3, 4, 6, 7}.
	wantTNs := []int{3, 4, 6, 7}
	if len(nSol) != len(wantTNs) {
		t.Fatalf("N_sol = %v, want %v", nSol, wantTNs)
	}
	for i, want := range wantTNs {
		if nSol[i] != want {
			t.Fatalf("N_sol = %v, want %v", nSol, wantTNs)
		}
	}
	// After conflict resolution, all targets are unique.
	seen := map[int]bool{}
	for _, l := range lSol {
		if seen[l.Target] {
			t.Fatalf("duplicate target %d in L_sol", l.Target)
		}
		seen[l.Target] = true
	}
}

func TestObtainTopSetEq2(t *testing.T) {
	var lacs []*lac.LAC
	for i := 0; i < 50; i++ {
		lacs = append(lacs, mkLAC(i+1, nil, float64(i)*0.001))
	}
	sortByDeltaE(lacs)

	// Fresh circuit (e = 0): r_top = r_ref when r_ref < |cands|.
	if got := obtainTopSet(lacs, 0, 0.05, 30); len(got) != 30 {
		t.Errorf("e=0: r_top = %d, want 30", len(got))
	}
	// Halfway through the budget: r_top halves.
	if got := obtainTopSet(lacs, 0.025, 0.05, 30); len(got) != 15 {
		t.Errorf("e=eb/2: r_top = %d, want 15", len(got))
	}
	// Near the bound: shrinks to 1.
	if got := obtainTopSet(lacs, 0.0499, 0.05, 30); len(got) != 1 {
		t.Errorf("e~eb: r_top = %d, want 1", len(got))
	}
	// r_min overrides r_ref when many LACs tie at the minimum.
	tied := make([]*lac.LAC, 40)
	for i := range tied {
		tied[i] = mkLAC(i+1, nil, 0)
	}
	if got := obtainTopSet(tied, 0, 0.05, 10); len(got) != 40 {
		t.Errorf("tied minimum: r_top = %d, want 40", len(got))
	}
	// Clamp to the candidate count.
	if got := obtainTopSet(lacs[:5], 0, 0.05, 100); len(got) != 5 {
		t.Errorf("clamp: r_top = %d, want 5", len(got))
	}
}

func TestBudgetedPrefix(t *testing.T) {
	p := Params{RSel: 4, Lambda: 0.9}
	eb := 0.10 // limit = 0.09

	// Many non-positive LACs: all of them are taken.
	lacs := []*lac.LAC{
		mkLAC(1, nil, -0.01), mkLAC(2, nil, 0), mkLAC(3, nil, 0),
		mkLAC(4, nil, 0), mkLAC(5, nil, 0.01),
	}
	if got := budgetedPrefix(lacs, 0, eb, p); len(got) != 4 {
		t.Errorf("r_neg rule: got %d, want 4", len(got))
	}

	// Budget-limited prefix: e=0.05, limit 0.09.
	lacs = []*lac.LAC{
		mkLAC(1, nil, 0.01), mkLAC(2, nil, 0.02),
		mkLAC(3, nil, 0.03), mkLAC(4, nil, 0.04),
	}
	// Prefix sums: .06, .08, .11 -> first two fit.
	if got := budgetedPrefix(lacs, 0.05, eb, p); len(got) != 2 {
		t.Errorf("budget rule: got %d, want 2", len(got))
	}

	// Even the best LAC exceeds the budget: take exactly one.
	lacs = []*lac.LAC{mkLAC(1, nil, 0.2), mkLAC(2, nil, 0.3)}
	if got := budgetedPrefix(lacs, 0.05, eb, p); len(got) != 1 {
		t.Errorf("overflow rule: got %d, want 1", len(got))
	}

	// r_sel caps the prefix even when the budget would allow more.
	lacs = nil
	for i := 0; i < 10; i++ {
		lacs = append(lacs, mkLAC(i+1, nil, 0.001))
	}
	if got := budgetedPrefix(lacs, 0, eb, p); len(got) != 4 {
		t.Errorf("r_sel cap: got %d, want 4", len(got))
	}
}

func TestSelectRandomLACsBounds(t *testing.T) {
	p := Params{RSel: 5, Lambda: 0.9, Seed: 3}
	rng := rand.New(rand.NewSource(p.Seed))
	var lacs []*lac.LAC
	for i := 0; i < 20; i++ {
		lacs = append(lacs, mkLAC(i+1, nil, 0.001))
	}
	got := selectRandomLACs(lacs, 0, 0.1, p, rng)
	if len(got) < 1 || len(got) > 5 {
		t.Fatalf("random set size %d outside [1, r_sel]", len(got))
	}
	seen := map[int]bool{}
	for _, l := range got {
		if seen[l.Target] {
			t.Fatal("duplicate LAC in random set")
		}
		seen[l.Target] = true
	}
}

// refPji is the structural mutual-influence index p_ji of Section
// II-D computed from its definition, with nothing cached: for target
// nodes a and b taken in topological order (earlier, later), 1/d for
// the shortest directed path length d from earlier to later when one
// exists, otherwise the fractional overlap of transitive fanouts
// |F(earlier) ∩ F(later)| / |F(later)|.
func refPji(g *aig.Graph, fanouts *aig.Fanouts, a, b int) float64 {
	earlier, later := min(a, b), max(a, b)
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[earlier] = 0
	queue := []int{earlier}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range fanouts.Of(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	if d := dist[later]; d > 0 {
		return 1 / float64(d)
	}
	fe := g.TFO(earlier, fanouts)
	fl := g.TFO(later, fanouts)
	den := fl.Count()
	if den == 0 {
		return 0
	}
	return float64(fe.IntersectCount(fl)) / float64(den)
}

// refPjiMatrix scores every pair i < j of targets with refPji.
func refPjiMatrix(g *aig.Graph, targets []int) [][]float64 {
	fanouts := g.Fanouts()
	p := make([][]float64, len(targets))
	for i := range targets {
		p[i] = make([]float64, len(targets))
		for j := i + 1; j < len(targets); j++ {
			p[i][j] = refPji(g, fanouts, targets[i], targets[j])
		}
	}
	return p
}

// checkGSol fails t unless the graph each selector builds has exactly
// the edges {i, j} with p[i][j] > tb, degrees equal to its rows'
// popcounts, and the right pair and edge counts. Selectors of different
// worker counts check the sharded pair loop and the mirror pass.
func checkGSol(t *testing.T, sels []*selector, g *aig.Graph, targets []int, p [][]float64, tb float64) {
	t.Helper()
	n := len(targets)
	for _, sel := range sels {
		gs, pairs, above := sel.buildGSol(g, g.Fanouts(), targets, tb)
		if pairs != n*(n-1)/2 {
			t.Fatalf("workers=%d tb=%v n=%d: pairs = %d, want %d", sel.workers, tb, n, pairs, n*(n-1)/2)
		}
		want := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edge := p[i][j] > tb
				if edge {
					want++
				}
				if gs.HasEdge(i, j) != edge || gs.HasEdge(j, i) != edge {
					t.Fatalf("workers=%d tb=%v n=%d: edge (%d, %d) = %v/%v, want %v (p_ji = %v)",
						sel.workers, tb, n, targets[i], targets[j], gs.HasEdge(i, j), gs.HasEdge(j, i), edge, p[i][j])
				}
			}
		}
		if above != want || gs.NumEdges() != want {
			t.Fatalf("workers=%d tb=%v n=%d: above = %d, NumEdges = %d, want %d", sel.workers, tb, n, above, gs.NumEdges(), want)
		}
		for v := 0; v < n; v++ {
			row := 0
			for u := 0; u < n; u++ {
				if gs.HasEdge(v, u) {
					row++
				}
			}
			if gs.Degree(v) != row {
				t.Fatalf("workers=%d tb=%v n=%d: Degree(%d) = %d, row popcount %d", sel.workers, tb, n, v, gs.Degree(v), row)
			}
		}
	}
}

// gsolSelectors returns fresh selectors at workers 1, 2 and 3.
func gsolSelectors() []*selector {
	return []*selector{newSelector(1), newSelector(2), newSelector(3)}
}

// andIDs returns g's AND node ids in a seeded random order.
func andIDs(g *aig.Graph, seed int64) []int {
	var ids []int
	for id := 0; id < g.NumNodes(); id++ {
		if g.IsAnd(id) {
			ids = append(ids, id)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

func TestGSolMatchesReference(t *testing.T) {
	// A 150-AND chain has connected pairs farther apart than half its
	// node count, which only a t_b <= 0 BFS bound reaches.
	chain := aig.New("chain")
	x, b := chain.AddPI("a"), chain.AddPI("b")
	for i := 0; i < 150; i++ {
		x = chain.And(x, b)
	}
	chain.AddPO(x, "x")
	circs := []struct {
		name string
		g    *aig.Graph
	}{
		{"mult5", circuits.ArrayMult(5)},
		{"sin7", circuits.SinCordic(7, 5)},
		{"c880", circuits.C880()},
		{"rand", circuits.RandomLogic("rand", 16, 8, 600, 3)},
		{"chain", chain},
	}
	tbs := []float64{-1, 0.1, 0.2, 0.25, 1.0 / 3, 0.34, 0.5, 0.9, 1, 1.5}
	// One set of selectors serves every circuit, size and t_b, so their
	// scratch is reused across shapes as it is across rounds.
	sels := gsolSelectors()
	for ci, c := range circs {
		t.Run(c.name, func(t *testing.T) {
			// Unsorted targets, as L_sol lists them by ΔE. Each subset is
			// a prefix of one list, so one matrix serves them all.
			ids := andIDs(c.g, int64(ci))
			ids = ids[:min(300, len(ids))]
			p := refPjiMatrix(c.g, ids)
			for _, n := range []int{2, 3, 31, 63, 64, 65, 129, 300} {
				for _, tb := range tbs {
					checkGSol(t, sels, c.g, ids[:min(n, len(ids))], p, tb)
				}
			}
		})
	}
}

func FuzzGSolMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(120), []byte{0xff, 0x0f, 0xa5, 0x3c}, math.Float64bits(0.5))
	f.Add(int64(2), uint16(250), bytes.Repeat([]byte{0x5b}, 17), math.Float64bits(1.0/3))
	f.Add(int64(3), uint16(90), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, math.Float64bits(0))
	f.Add(int64(4), uint16(60), []byte{0xee, 0x77}, math.Float64bits(math.Inf(1)))
	f.Add(int64(5), uint16(60), []byte{0xee, 0x77}, math.Float64bits(math.Inf(-1)))
	f.Add(int64(6), uint16(60), []byte{0xee, 0x77}, math.Float64bits(math.NaN()))
	f.Add(int64(7), uint16(200), bytes.Repeat([]byte{0xd7}, 12), math.Float64bits(math.SmallestNonzeroFloat64))
	f.Fuzz(func(t *testing.T, seed int64, ands uint16, mask []byte, tbBits uint64) {
		// A 17-byte mask (at most 136 targets) keeps each input fast and
		// still covers G_sol sizes on both sides of 64.
		if len(mask) > 17 {
			mask = mask[:17]
		}
		g := circuits.RandomLogic("fuzz", 6, 3, 2+int(ands%300), seed)
		var targets []int
		for k, id := range andIDs(g, seed) {
			if k < 8*len(mask) && mask[k>>3]&(1<<(k&7)) != 0 {
				targets = append(targets, id)
			}
		}
		checkGSol(t, gsolSelectors(), g, targets, refPjiMatrix(g, targets), math.Float64frombits(tbBits))
	})
}

// BenchmarkSelectIndp times SelectIndpLACs (G_sol construction plus
// the MIS solve) on a fixed L_sol at workers 1 and 2: the first round of
// sin under ER 0.1%, whose minimum-ΔE ties make L_sol far larger than
// r_ref. Set-up (simulation, generation, estimation, conflict
// resolution) runs before the timer starts.
func BenchmarkSelectIndp(b *testing.B) {
	g, err := circuits.ByName("sin")
	if err != nil {
		b.Fatal(err)
	}
	const eb = 0.001
	opt := Options{NumPatterns: 8192}
	pats := opt.Patterns(g)
	cmp := errmetric.NewComparator(errmetric.ER, g, pats)
	simRes, err := simulate.NewRunner(1).Run(g, pats)
	if err != nil {
		b.Fatal(err)
	}
	cands := lac.Generate(g, simRes, lac.Config{})
	opt.estimate(estimator.New(1), g, simRes, cmp, cands)
	sortByDeltaE(cands)
	params := Params{}.fillDefaults(g.NumAnds())
	lSol, _, _ := findSolveLACConf(obtainTopSet(cands, 0, eb, params.RRef))
	fo := g.Fanouts()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sel := newSelector(workers)
			b.ReportAllocs()
			b.ResetTimer()
			var st indpStats
			for i := 0; i < b.N; i++ {
				_, st = sel.selectIndp(g, fo, lSol, 0, eb, params)
			}
			b.ReportMetric(float64(st.pairs), "pairs/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(st.pairs), "ns/pair")
		})
	}
}

func TestInfluenceIndex(t *testing.T) {
	// Chain: a -> x -> y -> z, plus w off to the side sharing z.
	g := aig.New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	x := g.And(a, b)
	y := g.And(x, c)
	z := g.And(y, a)
	g.AddPO(z, "z")

	fanouts := g.Fanouts()
	// Direct fanin-fanout pairs: distance 1 -> p = 1.
	if p := refPji(g, fanouts, x.Node(), y.Node()); p != 1 {
		t.Errorf("p(x,y) = %g, want 1", p)
	}
	// Two hops: p = 0.5.
	if p := refPji(g, fanouts, x.Node(), z.Node()); p != 0.5 {
		t.Errorf("p(x,z) = %g, want 0.5", p)
	}
	// Symmetric in argument order.
	if refPji(g, fanouts, y.Node(), x.Node()) != refPji(g, fanouts, x.Node(), y.Node()) {
		t.Error("refPji not order-insensitive")
	}
	// buildGSol joins x and z exactly when 0.5 exceeds t_b.
	targets := []int{z.Node(), x.Node()}
	if gs, _, _ := newSelector(1).buildGSol(g, g.Fanouts(), targets, 0.49); !gs.HasEdge(0, 1) {
		t.Error("t_b=0.49: missing x-z chain edge")
	}
	if gs, _, above := newSelector(1).buildGSol(g, g.Fanouts(), targets, 0.5); gs.HasEdge(0, 1) || above != 0 {
		t.Error("t_b=0.5: unexpected x-z chain edge")
	}
}

func TestInfluenceIndexDisconnected(t *testing.T) {
	// x1 and x2 do not reach each other but share their only fanout y:
	// overlap = |{y}| / |{x, y}| = 0.5.
	g := aig.New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	d := g.AddPI("d")
	x1 := g.And(a, b)
	x2 := g.And(c, d)
	y := g.And(x1, x2)
	g.AddPO(y, "y")

	if p := refPji(g, g.Fanouts(), x1.Node(), x2.Node()); p != 0.5 {
		t.Errorf("p(x1,x2) = %g, want 0.5", p)
	}
	targets := []int{x1.Node(), x2.Node()}
	if gs, _, _ := newSelector(1).buildGSol(g, g.Fanouts(), targets, 0.49); !gs.HasEdge(0, 1) {
		t.Error("t_b=0.49: missing shared-fanout edge")
	}
	if gs, _, above := newSelector(1).buildGSol(g, g.Fanouts(), targets, 0.5); gs.HasEdge(0, 1) || above != 0 {
		t.Error("t_b=0.5: unexpected shared-fanout edge")
	}
}

func TestEstimatedErrorClampsAtZero(t *testing.T) {
	set := []*lac.LAC{mkLAC(1, nil, -0.5)}
	if e := estimatedError(0.1, set); e != 0 {
		t.Fatalf("estimatedError = %g, want clamp to 0", e)
	}
	if e := estimatedError(0.1, nil); e != 0.1 {
		t.Fatalf("estimatedError(empty) = %g, want 0.1", e)
	}
}

func TestDefaultParamsScaling(t *testing.T) {
	small := DefaultParams(100)
	mid := DefaultParams(1000)
	large := DefaultParams(10000)
	if small.RRef != 100 || small.RSel != 20 {
		t.Errorf("small: %d/%d", small.RRef, small.RSel)
	}
	if mid.RRef != 200 || mid.RSel != 40 {
		t.Errorf("mid: %d/%d", mid.RRef, mid.RSel)
	}
	if large.RRef != 400 || large.RSel != 80 {
		t.Errorf("large: %d/%d", large.RRef, large.RSel)
	}
	if small.TB != 0.5 || small.Lambda != 0.9 || small.LE != 0.9 || small.LD != 0.3 {
		t.Error("paper defaults wrong")
	}
}
