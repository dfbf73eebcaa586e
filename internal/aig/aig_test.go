package aig

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestLit(t *testing.T) {
	l := MakeLit(7, false)
	if l.Node() != 7 || l.IsCompl() {
		t.Fatalf("MakeLit(7,false) = %v", l)
	}
	n := l.Not()
	if n.Node() != 7 || !n.IsCompl() {
		t.Fatalf("Not() = %v", n)
	}
	if l.NotIf(false) != l || l.NotIf(true) != n {
		t.Fatalf("NotIf misbehaves")
	}
	if got := n.String(); got != "!n7" {
		t.Fatalf("String() = %q", got)
	}
}

func TestLitRoundTrip(t *testing.T) {
	f := func(node uint16, compl bool) bool {
		l := MakeLit(int(node), compl)
		return l.Node() == int(node) && l.IsCompl() == compl && l.Not().Not() == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAndSimplifications(t *testing.T) {
	g := New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	cases := []struct {
		name string
		got  Lit
		want Lit
	}{
		{"x&0", g.And(a, ConstFalse), ConstFalse},
		{"x&1", g.And(a, ConstTrue), a},
		{"x&x", g.And(a, a), a},
		{"x&!x", g.And(a, a.Not()), ConstFalse},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
	// Structural hashing: same conjunction built twice is one node.
	x := g.And(a, b)
	y := g.And(b, a)
	if x != y {
		t.Errorf("strash failed: %v != %v", x, y)
	}
	if g.NumAnds() != 1 {
		t.Errorf("NumAnds = %d, want 1", g.NumAnds())
	}
}

// evalLit computes a literal's value under a PI assignment by direct
// recursive evaluation — an independent oracle for the test.
func evalLit(g *Graph, l Lit, assign map[int]bool) bool {
	v := evalNode(g, l.Node(), assign)
	if l.IsCompl() {
		return !v
	}
	return v
}

func evalNode(g *Graph, id int, assign map[int]bool) bool {
	n := g.NodeAt(id)
	switch n.Kind {
	case KindConst:
		return false
	case KindPI:
		return assign[id]
	default:
		return evalLit(g, n.Fanin0, assign) && evalLit(g, n.Fanin1, assign)
	}
}

func TestGateTruthTables(t *testing.T) {
	g := New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	s := g.AddPI("s")
	ops := []struct {
		name string
		lit  Lit
		fn   func(a, b, s bool) bool
	}{
		{"and", g.And(a, b), func(x, y, _ bool) bool { return x && y }},
		{"or", g.Or(a, b), func(x, y, _ bool) bool { return x || y }},
		{"xor", g.Xor(a, b), func(x, y, _ bool) bool { return x != y }},
		{"xnor", g.Xnor(a, b), func(x, y, _ bool) bool { return x == y }},
		{"mux", g.Mux(s, a, b), func(x, y, sel bool) bool {
			if sel {
				return x
			}
			return y
		}},
		{"maj3", g.Maj3(a, b, s), func(x, y, z bool) bool {
			n := 0
			for _, v := range []bool{x, y, z} {
				if v {
					n++
				}
			}
			return n >= 2
		}},
	}
	for pat := 0; pat < 8; pat++ {
		assign := map[int]bool{
			a.Node(): pat&1 != 0,
			b.Node(): pat&2 != 0,
			s.Node(): pat&4 != 0,
		}
		for _, op := range ops {
			want := op.fn(assign[a.Node()], assign[b.Node()], assign[s.Node()])
			if got := evalLit(g, op.lit, assign); got != want {
				t.Errorf("%s(pat=%d) = %v, want %v", op.name, pat, got, want)
			}
		}
	}
	if err := g.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func buildSmall(t *testing.T) (*Graph, Lit, Lit, Lit) {
	t.Helper()
	g := New("small")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	x := g.And(a, b)
	y := g.Or(x, c)
	g.AddPO(y, "y")
	g.AddPO(x, "x")
	return g, a, b, c
}

func TestCounts(t *testing.T) {
	g, _, _, _ := buildSmall(t)
	if g.NumPIs() != 3 || g.NumPOs() != 2 {
		t.Fatalf("interface counts wrong: %d PIs, %d POs", g.NumPIs(), g.NumPOs())
	}
	if g.NumAnds() != 2 {
		t.Fatalf("NumAnds = %d, want 2", g.NumAnds())
	}
	if g.NumLiveAnds() != 2 {
		t.Fatalf("NumLiveAnds = %d, want 2", g.NumLiveAnds())
	}
	if g.PIName(0) != "a" || g.POName(1) != "x" {
		t.Fatalf("names lost")
	}
}

func TestLevelsAndDepth(t *testing.T) {
	g, _, _, _ := buildSmall(t)
	lv := g.Levels()
	// AND(a,b) at level 1; OR at level 2.
	if g.Depth() != 2 {
		t.Fatalf("Depth = %d, want 2", g.Depth())
	}
	for _, pi := range g.PIs() {
		if lv[pi] != 0 {
			t.Fatalf("PI level = %d, want 0", lv[pi])
		}
	}
}

func TestFanoutsAndRefs(t *testing.T) {
	g, a, b, _ := buildSmall(t)
	fo := g.Fanouts()
	x := g.And(a, b) // strash: existing node
	if len(fo.Of(a.Node())) != 1 || fo.Of(a.Node())[0] != x.Node() {
		t.Fatalf("fanouts of a: %v", fo.Of(a.Node()))
	}
	refs := g.RefCounts()
	// x feeds the OR node and PO "x".
	if refs[x.Node()] != 2 {
		t.Fatalf("refs[x] = %d, want 2", refs[x.Node()])
	}
}

// TestFanoutsIndexMatchesLists checks the flat fanout index against
// per-node lists built by appending in node order, on random graphs of
// growing and shrinking size, with one index rebuilt in place
// throughout so stale entries from a larger graph would show.
func TestFanoutsIndexMatchesLists(t *testing.T) {
	var f Fanouts
	for i, size := range []int{40, 400, 3, 120, 0, 900, 60} {
		g := randomGraph(int64(i), 5, size)
		lists := make([][]int, g.NumNodes())
		for id := 0; id < g.NumNodes(); id++ {
			if !g.IsAnd(id) {
				continue
			}
			n := g.NodeAt(id)
			lists[n.Fanin0.Node()] = append(lists[n.Fanin0.Node()], id)
			if n.Fanin1.Node() != n.Fanin0.Node() {
				lists[n.Fanin1.Node()] = append(lists[n.Fanin1.Node()], id)
			}
		}
		g.FanoutsInto(&f)
		fresh := g.Fanouts()
		for id, want := range lists {
			if !slices.Equal(f.Of(id), want) || !slices.Equal(fresh.Of(id), want) {
				t.Fatalf("graph %d (%d nodes), node %d: fanouts %v (fresh %v), want %v", i, g.NumNodes(), id, f.Of(id), fresh.Of(id), want)
			}
		}
	}
}

func TestTFITFO(t *testing.T) {
	g, a, b, c := buildSmall(t)
	fo := g.Fanouts()
	x := g.And(a, b)
	y := g.Or(x, c)
	tfo := g.TFO(a.Node(), fo)
	if !tfo.Has(x.Node()) || !tfo.Has(y.Node()) || !tfo.Has(a.Node()) {
		t.Fatalf("TFO(a) incomplete: %v", tfo.Elements())
	}
	if tfo.Has(b.Node()) {
		t.Fatalf("TFO(a) contains sibling input b")
	}
	tfi := g.TFI(y.Node())
	for _, want := range []int{a.Node(), b.Node(), c.Node(), x.Node(), y.Node()} {
		if !tfi.Has(want) {
			t.Fatalf("TFI(y) missing node %d", want)
		}
	}
}

func TestShortestFanoutDistance(t *testing.T) {
	g, a, b, c := buildSmall(t)
	fo := g.Fanouts()
	x := g.And(a, b)
	y := g.Or(x, c)
	if d := g.ShortestFanoutDistance(a.Node(), x.Node(), fo); d != 1 {
		t.Fatalf("d(a,x) = %d, want 1", d)
	}
	// y is the OR output: path a -> x -> inner -> y has length 3 in
	// AIG terms (OR is AND + complements), so just require it found.
	if d := g.ShortestFanoutDistance(a.Node(), y.Node(), fo); d < 2 {
		t.Fatalf("d(a,y) = %d, want >= 2", d)
	}
	if d := g.ShortestFanoutDistance(y.Node(), a.Node(), fo); d != -1 {
		t.Fatalf("d(y,a) = %d, want -1", d)
	}
	if d := g.ShortestFanoutDistance(a.Node(), a.Node(), fo); d != 0 {
		t.Fatalf("d(a,a) = %d, want 0", d)
	}
}

func TestMFFC(t *testing.T) {
	g := New("mffc")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	x := g.And(a, b)
	y := g.And(x, c)
	g.AddPO(y, "y")
	refs := g.RefCounts()
	// y's MFFC contains y and x (x only feeds y).
	if got := g.MFFCSize(y.Node(), refs); got != 2 {
		t.Fatalf("MFFC(y) = %d, want 2", got)
	}
	if got := g.MFFCSize(x.Node(), refs); got != 1 {
		t.Fatalf("MFFC(x) = %d, want 1", got)
	}
	// refs must be restored.
	refs2 := g.RefCounts()
	for i := range refs {
		if refs[i] != refs2[i] {
			t.Fatalf("MFFCSize corrupted refs at node %d", i)
		}
	}
	// Shared node: x also feeding a PO shrinks y's MFFC.
	g.AddPO(x, "x")
	refs = g.RefCounts()
	if got := g.MFFCSize(y.Node(), refs); got != 1 {
		t.Fatalf("MFFC(y) with shared x = %d, want 1", got)
	}
}

func TestRebuildSubstitution(t *testing.T) {
	g, a, b, c := buildSmall(t)
	x := g.And(a, b)
	// Replace x by constant true: y = OR(1, c) = 1, PO x = 1.
	ng := g.Rebuild(map[int]ReplaceFunc{
		x.Node(): func(_ *Graph, _ func(int) Lit) Lit { return ConstTrue },
	})
	if err := ng.Check(); err != nil {
		t.Fatalf("Check after rebuild: %v", err)
	}
	if ng.NumPIs() != 3 || ng.NumPOs() != 2 {
		t.Fatalf("interface changed: %d/%d", ng.NumPIs(), ng.NumPOs())
	}
	if ng.PO(0) != ConstTrue || ng.PO(1) != ConstTrue {
		t.Fatalf("POs = %v, %v; want const true", ng.PO(0), ng.PO(1))
	}
	if ng.NumAnds() != 0 {
		t.Fatalf("NumAnds = %d, want 0 after sweep", ng.NumAnds())
	}
	_, _ = b, c
}

func TestRebuildWireSubstitution(t *testing.T) {
	// Replace x = AND(a,b) by wire c; y = OR(c, c) = c.
	g, a, b, c := buildSmall(t)
	gOld := g.Clone()
	xl := g.And(a, b) // structural hash returns the existing node
	ng := g.Rebuild(map[int]ReplaceFunc{
		xl.Node(): func(_ *Graph, copyOf func(int) Lit) Lit { return copyOf(c.Node()) },
	})
	if err := ng.Check(); err != nil {
		t.Fatal(err)
	}
	// Functional check on all 8 assignments: y' = c, x' = c.
	for pat := 0; pat < 8; pat++ {
		assign := map[int]bool{}
		for i, pi := range ng.PIs() {
			assign[pi] = pat&(1<<i) != 0
		}
		cv := pat&4 != 0
		if got := evalLit(ng, ng.PO(0), assign); got != cv {
			t.Fatalf("pat %d: PO0 = %v, want %v", pat, got, cv)
		}
		if got := evalLit(ng, ng.PO(1), assign); got != cv {
			t.Fatalf("pat %d: PO1 = %v, want %v", pat, got, cv)
		}
	}
	// The original is untouched.
	if gOld.NumAnds() != g.NumAnds() {
		t.Fatalf("original mutated")
	}
}

func TestSweepKeepsUnusedPIs(t *testing.T) {
	g := New("t")
	a := g.AddPI("a")
	g.AddPI("unused")
	g.AddPO(a, "y")
	ng := g.Sweep()
	if ng.NumPIs() != 2 {
		t.Fatalf("Sweep dropped a PI: %d", ng.NumPIs())
	}
}

func TestCheckDetectsViolations(t *testing.T) {
	g := New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	g.AddPO(g.And(a, b), "y")
	if err := g.Check(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g, a, b, _ := buildSmall(t)
	c := g.Clone()
	if c.NumAnds() != g.NumAnds() || c.NumPIs() != g.NumPIs() || c.NumPOs() != g.NumPOs() {
		t.Fatalf("clone shape differs")
	}
	// Growing the original must not affect the clone.
	g.And(g.And(a, b), a.Not())
	if c.NumAnds() == g.NumAnds() {
		t.Fatalf("clone shares storage with original")
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestProbeAnd(t *testing.T) {
	g := New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	x := g.And(a, b)
	// Existing node is found without growing the graph.
	n := g.NumNodes()
	got, ok := g.ProbeAnd(b, a)
	if !ok || got != x {
		t.Fatalf("ProbeAnd(existing) = %v, %v", got, ok)
	}
	// Trivial cases fold.
	if got, ok := g.ProbeAnd(a, ConstFalse); !ok || got != ConstFalse {
		t.Fatal("x&0 should fold")
	}
	if got, ok := g.ProbeAnd(a, ConstTrue); !ok || got != a {
		t.Fatal("x&1 should fold")
	}
	if got, ok := g.ProbeAnd(a, a.Not()); !ok || got != ConstFalse {
		t.Fatal("x&!x should fold")
	}
	// Unknown conjunction reports not-ok and creates nothing.
	if _, ok := g.ProbeAnd(a, b.Not()); ok {
		t.Fatal("ProbeAnd invented a node")
	}
	if g.NumNodes() != n {
		t.Fatal("ProbeAnd changed the graph")
	}
}
