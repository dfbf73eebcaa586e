package lac

import (
	"testing"

	"accals/internal/aig"
	"accals/internal/simulate"
)

// fixture builds y = (a&b) | (c&d) with POs on y, (a&b) and (c&d).
// x1 precedes x2 in topological order.
func fixture() (*aig.Graph, aig.Lit, aig.Lit) {
	g := aig.New("fix")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	d := g.AddPI("d")
	x1 := g.And(a, b)
	x2 := g.And(c, d)
	y := g.Or(x1, x2)
	g.AddPO(y, "y")
	g.AddPO(x1, "x1")
	g.AddPO(x2, "x2")
	return g, x1, x2
}

func TestFnString(t *testing.T) {
	cases := map[string]Fn{
		"0":       {Kind: FnConst0},
		"1":       {Kind: FnConst1},
		"(a)":     {Kind: FnWire},
		"(!a)":    {Kind: FnWire, C0: true},
		"(a&b)":   {Kind: FnAnd},
		"!(a&!b)": {Kind: FnAnd, C1: true, OutC: true},
		"(a^b)":   {Kind: FnXor},
		"!(!a^b)": {Kind: FnXor, C0: true, OutC: true},
	}
	for want, fn := range cases {
		if got := fn.String(); got != want {
			t.Errorf("Fn%+v.String() = %q, want %q", fn, got, want)
		}
	}
}

func TestApplyConstLAC(t *testing.T) {
	g, x1, _ := fixture()
	l := &LAC{Target: x1.Node(), Fn: Fn{Kind: FnConst1}, Gain: 1}
	ng := Apply(g, []*LAC{l})
	if err := ng.Check(); err != nil {
		t.Fatal(err)
	}
	// y = 1|x2 = 1, PO x1 = 1.
	if ng.PO(0) != aig.ConstTrue || ng.PO(1) != aig.ConstTrue {
		t.Fatalf("POs after const-1 LAC: %v %v", ng.PO(0), ng.PO(1))
	}
}

func TestApplyWireLAC(t *testing.T) {
	g, x1, x2 := fixture()
	// Replace x2 with !x1 (the SN precedes the target).
	l := &LAC{Target: x2.Node(), SNs: []int{x1.Node()}, Fn: Fn{Kind: FnWire, C0: true}, Gain: 1}
	ng := Apply(g, []*LAC{l})
	if err := ng.Check(); err != nil {
		t.Fatal(err)
	}
	// y = x1 | !x1 = 1 for all inputs.
	p := simulate.Exhaustive(4)
	r := simulate.MustRun(ng, p)
	if simulate.PopCount(r.POValues(ng)[0]) != 16 {
		t.Fatal("y should be constant true after wire LAC")
	}
	// PO x1 unchanged: a&b holds on 4 of 16 patterns.
	if got := simulate.PopCount(r.POValues(ng)[1]); got != 4 {
		t.Fatalf("PO x1 popcount = %d, want 4", got)
	}
	// PO x2 now equals !x1 = !(a&b): 12 of 16 patterns.
	if got := simulate.PopCount(r.POValues(ng)[2]); got != 12 {
		t.Fatalf("PO x2 popcount = %d, want 12", got)
	}
}

func TestApplyPanicsOnForwardSN(t *testing.T) {
	g, x1, x2 := fixture()
	l := &LAC{Target: x1.Node(), SNs: []int{x2.Node()}, Fn: Fn{Kind: FnWire}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for SN after target")
		}
	}()
	Apply(g, []*LAC{l})
}

func TestApplyPanicsOnSharedTarget(t *testing.T) {
	g, x1, _ := fixture()
	lacs := []*LAC{
		{Target: x1.Node(), Fn: Fn{Kind: FnConst0}},
		{Target: x1.Node(), Fn: Fn{Kind: FnConst1}},
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shared target")
		}
	}()
	Apply(g, lacs)
}

func TestApplyResubLACs(t *testing.T) {
	g := aig.New("res")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	x := g.And(g.And(a, b), c) // 2 ANDs
	g.AddPO(x, "y")
	// Replace the top AND with XOR(a, b).
	l := &LAC{
		Target: x.Node(),
		SNs:    []int{a.Node(), b.Node()},
		Fn:     Fn{Kind: FnXor},
	}
	ng := Apply(g, []*LAC{l})
	p := simulate.Exhaustive(3)
	r := simulate.MustRun(ng, p)
	v := r.POValues(ng)[0]
	for pat := 0; pat < 8; pat++ {
		av := pat&1 != 0
		bv := pat&2 != 0
		want := av != bv
		if got := simulate.Bit(v, pat); got != want {
			t.Fatalf("pattern %d: got %v want %v", pat, got, want)
		}
	}
}

func TestApplyMultipleLACs(t *testing.T) {
	g, x1, x2 := fixture()
	lacs := []*LAC{
		{Target: x1.Node(), Fn: Fn{Kind: FnConst0}},
		{Target: x2.Node(), Fn: Fn{Kind: FnConst0}},
	}
	ng := Apply(g, lacs)
	if ng.PO(0) != aig.ConstFalse {
		t.Fatal("y should be constant false after both LACs")
	}
	if ng.NumAnds() != 0 {
		t.Fatalf("NumAnds = %d, want 0", ng.NumAnds())
	}
	// Interface preserved.
	if ng.NumPIs() != 4 || ng.NumPOs() != 3 {
		t.Fatal("interface changed")
	}
}

func TestApplyEmptyIsClone(t *testing.T) {
	g, _, _ := fixture()
	ng := Apply(g, nil)
	if ng == g {
		t.Fatal("Apply(nil) must not alias the input")
	}
	if ng.NumAnds() != g.NumAnds() {
		t.Fatal("Apply(nil) changed the circuit")
	}
}

func TestDeviation(t *testing.T) {
	g, x1, x2 := fixture()
	p := simulate.Exhaustive(4)
	res := simulate.MustRun(g, p)

	// Const-0 on x1: deviation = patterns where x1 = a&b = 1 -> 4.
	l0 := &LAC{Target: x1.Node(), Fn: Fn{Kind: FnConst0}}
	_, dev := l0.Deviation(res)
	if dev != 4 {
		t.Errorf("const0 deviation = %d, want 4", dev)
	}
	// Const-1: 12 remaining patterns.
	l1 := &LAC{Target: x1.Node(), Fn: Fn{Kind: FnConst1}}
	if _, dev := l1.Deviation(res); dev != 12 {
		t.Errorf("const1 deviation = %d, want 12", dev)
	}
	// Wire x2: patterns where a&b != c&d.
	lw := &LAC{Target: x1.Node(), SNs: []int{x2.Node()}, Fn: Fn{Kind: FnWire}}
	if _, dev := lw.Deviation(res); dev != 6 {
		t.Errorf("wire deviation = %d, want 6", dev)
	}
}

func TestNewValueMatchesApply(t *testing.T) {
	// For every function kind and every combination of its complement
	// flags, NewValue must agree with simulating the rebuilt circuit at
	// the substituted node's PO, on the exhaustive patterns (one partial
	// word) and on random ones spanning several words, the last partial.
	g, x1, x2 := fixture()
	pis := g.PIs()
	sns := map[FnKind][]int{
		FnConst0: nil,
		FnConst1: nil,
		FnWire:   {x1.Node()},
		FnAnd:    {pis[0], pis[2]},
		FnXor:    {pis[1], pis[3]},
		FnMux:    {pis[0], x1.Node(), pis[3]},
		FnMaj:    {pis[1], pis[2], x1.Node()},
	}
	var lacs []*LAC
	for kind := FnConst0; kind <= FnMaj; kind++ {
		// Only the flags of the kind's inputs, and OutC for all but the
		// constants, change the function.
		flags := len(sns[kind]) + 1
		if kind == FnConst0 || kind == FnConst1 {
			flags = 0
		}
		for bits := 0; bits < 1<<flags; bits++ {
			f := Fn{Kind: kind, OutC: bits&1 != 0, C0: bits&2 != 0, C1: bits&4 != 0, C2: bits&8 != 0}
			lacs = append(lacs, &LAC{Target: x2.Node(), SNs: sns[kind], Fn: f})
		}
	}
	if len(lacs) != 2+4+8+8+16+16 {
		t.Fatalf("%d LACs, want one per kind and flag combination", len(lacs))
	}
	for _, p := range []*simulate.Patterns{simulate.Exhaustive(4), simulate.Random(4, 200, 1)} {
		res := simulate.MustRun(g, p)
		for _, l := range lacs {
			nv := l.NewValue(res)
			ng := Apply(g, []*LAC{l})
			nres := simulate.MustRun(ng, p)
			got := nres.LitValue(ng.PO(2)) // PO 2 taps the target node
			for w := range nv {
				if nv[w] != got[w] {
					t.Errorf("%d patterns, LAC %v: NewValue disagrees with Apply (word %d: %x vs %x)", p.NumPatterns(), l, w, nv[w], got[w])
				}
			}
		}
	}
}
