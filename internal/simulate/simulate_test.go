package simulate

import (
	"errors"
	"testing"
	"testing/quick"

	"accals/internal/aig"
	"accals/internal/runctl"
)

func TestExhaustivePatterns(t *testing.T) {
	p := Exhaustive(3)
	if p.NumPatterns() != 8 || p.Words() != 1 {
		t.Fatalf("8 patterns expected, got %d in %d words", p.NumPatterns(), p.Words())
	}
	// PI i must equal bit i of the pattern index.
	for pi := 0; pi < 3; pi++ {
		for pat := 0; pat < 8; pat++ {
			want := pat&(1<<pi) != 0
			if got := Bit(p.PIValue(pi), pat); got != want {
				t.Errorf("PI %d pattern %d = %v, want %v", pi, pat, got, want)
			}
		}
	}
	if p.LastMask() != 0xff {
		t.Errorf("LastMask = %x", p.LastMask())
	}

	// Every slice of the enumeration must hold the assignments it
	// names, so chunks swept in order cover exactly Exhaustive(n).
	for _, r := range []struct{ nPIs, first, n int }{
		{5, 0, 32}, {12, 0, 4096}, {12, 1024, 1024}, {12, 3968, 128}, {16, 57344, 8192},
	} {
		p := ExhaustiveRange(r.nPIs, r.first, r.n)
		if p.NumPatterns() != r.n || p.NumPIs() != r.nPIs {
			t.Fatalf("range %+v: got %d patterns over %d PIs", r, p.NumPatterns(), p.NumPIs())
		}
		for pi := 0; pi < r.nPIs; pi++ {
			v := p.PIValue(pi)
			for pat := 0; pat < r.n; pat++ {
				if want := (r.first+pat)&(1<<pi) != 0; Bit(v, pat) != want {
					t.Fatalf("range %+v: PI %d pattern %d = %v, want %v", r, pi, pat, !want, want)
				}
			}
			if tail := v[len(v)-1] &^ p.LastMask(); tail != 0 {
				t.Fatalf("range %+v: PI %d has bits %#x past the last pattern", r, pi, tail)
			}
		}
	}
}

func TestRandomPatternsDeterministic(t *testing.T) {
	a := Random(40, 256, 7)
	b := Random(40, 256, 7)
	c := Random(40, 256, 8)
	same, diff := true, false
	for pi := 0; pi < 40; pi++ {
		for w := range a.PIValue(pi) {
			if a.PIValue(pi)[w] != b.PIValue(pi)[w] {
				same = false
			}
			if a.PIValue(pi)[w] != c.PIValue(pi)[w] {
				diff = true
			}
		}
	}
	if !same {
		t.Error("same seed produced different patterns")
	}
	if !diff {
		t.Error("different seeds produced identical patterns")
	}
}

func TestNewPatternsSelectsMode(t *testing.T) {
	if p := NewPatterns(10, 1024, 1); p.NumPatterns() != 1024 {
		t.Errorf("small input within budget should be exhaustive, got %d patterns", p.NumPatterns())
	}
	if p := NewPatterns(10, 999, 1); p.NumPatterns() != 999 {
		t.Errorf("budget below 2^n should stay random, got %d patterns", p.NumPatterns())
	}
	if p := NewPatterns(40, 999, 1); p.NumPatterns() != 999 {
		t.Errorf("large input should be random, got %d patterns", p.NumPatterns())
	}
}

func TestRunMatchesDirectEvaluation(t *testing.T) {
	g := aig.New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	c := g.AddPI("c")
	y := g.Or(g.And(a, b.Not()), g.Xor(b, c))
	g.AddPO(y, "y")
	g.AddPO(y.Not(), "ny")

	p := Exhaustive(3)
	r := MustRun(g, p)
	pos := r.POValues(g)
	for pat := 0; pat < 8; pat++ {
		av := pat&1 != 0
		bv := pat&2 != 0
		cv := pat&4 != 0
		want := (av && !bv) || (bv != cv)
		if got := Bit(pos[0], pat); got != want {
			t.Errorf("pattern %d: PO0 = %v, want %v", pat, got, want)
		}
		if got := Bit(pos[1], pat); got == want {
			t.Errorf("pattern %d: complemented PO not complemented", pat)
		}
	}
}

func TestLitValueMasksTailBits(t *testing.T) {
	g := aig.New("t")
	a := g.AddPI("a")
	g.AddPO(a.Not(), "y")
	p := Random(1, 10, 3) // 10 patterns: tail bits beyond 10 must stay 0
	r := MustRun(g, p)
	v := r.LitValue(g.PO(0))
	if v[0]&^p.LastMask() != 0 {
		t.Fatalf("complemented literal leaked bits beyond the pattern count: %x", v[0])
	}
	if got := PopCount(v) + PopCount(p.PIValue(0)); got != 10 {
		t.Fatalf("a + !a should cover all 10 patterns, got %d", got)
	}
}

func TestPopCountAndBit(t *testing.T) {
	f := func(words []uint64) bool {
		want := 0
		for i := range words {
			for b := 0; b < 64; b++ {
				if Bit(words, i*64+b) {
					want++
				}
			}
		}
		return PopCount(words) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConstantNodeSimulatesToZero(t *testing.T) {
	g := aig.New("t")
	g.AddPI("a")
	g.AddPO(aig.ConstFalse, "zero")
	g.AddPO(aig.ConstTrue, "one")
	p := Exhaustive(1)
	r := MustRun(g, p)
	pos := r.POValues(g)
	if PopCount(pos[0]) != 0 {
		t.Error("constant false simulated nonzero")
	}
	if PopCount(pos[1]) != 2 {
		t.Error("constant true missing patterns")
	}
}

func TestBiasedPatterns(t *testing.T) {
	const n = 8192
	p := Biased(3, []float64{0.1, 0.5, 0.9}, n, 7)
	for pi, want := range []float64{0.1, 0.5, 0.9} {
		got := float64(PopCount(p.PIValue(pi))) / n
		if got < want-0.03 || got > want+0.03 {
			t.Errorf("input %d: observed probability %.3f, want ~%.2f", pi, got, want)
		}
	}
	// Deterministic.
	q := Biased(3, []float64{0.1, 0.5, 0.9}, n, 7)
	for pi := 0; pi < 3; pi++ {
		for w := range p.PIValue(pi) {
			if p.PIValue(pi)[w] != q.PIValue(pi)[w] {
				t.Fatal("Biased not deterministic")
			}
		}
	}
}

func TestBiasedRejectsBadProbs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Biased(3, []float64{0.5}, 16, 1)
}

func TestExplicitPatterns(t *testing.T) {
	vecs := [][]bool{{true, false}, {false, true}, {true, true}}
	p := Explicit(2, vecs)
	if p.NumPatterns() != 3 {
		t.Fatalf("NumPatterns = %d", p.NumPatterns())
	}
	for pat, vec := range vecs {
		for pi, want := range vec {
			if got := Bit(p.PIValue(pi), pat); got != want {
				t.Errorf("pattern %d input %d = %v, want %v", pat, pi, got, want)
			}
		}
	}
}

func TestRunReportsInterfaceMismatch(t *testing.T) {
	g := aig.New("t")
	a := g.AddPI("a")
	g.AddPO(a, "y")
	p := Exhaustive(3) // patterns for 3 PIs, circuit has 1
	r, err := Run(g, p)
	if r != nil || err == nil {
		t.Fatalf("Run on mismatched interface: result %v, err %v", r, err)
	}
	if !errors.Is(err, runctl.ErrInterfaceMismatch) {
		t.Fatalf("error %v does not wrap runctl.ErrInterfaceMismatch", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustRun on mismatched interface did not panic")
		}
	}()
	MustRun(g, p)
}
