package errmetric

import (
	"math"
	"testing"

	"accals/internal/aig"
	"accals/internal/circuits"
	"accals/internal/simulate"
)

func TestMHDKnownValue(t *testing.T) {
	exact, approx := buildPair()
	p := simulate.Exhaustive(2)
	cmp := NewComparator(MHD, exact, p)
	// One bit of 2 differs on one pattern of 4: 1/8.
	if e := cmp.Error(approx); math.Abs(e-0.125) > 1e-12 {
		t.Fatalf("MHD = %g, want 0.125", e)
	}
	if e := cmp.Error(exact.Clone()); e != 0 {
		t.Fatalf("MHD self-error = %g", e)
	}
}

func TestMHDWideCircuits(t *testing.T) {
	// MHD must work beyond 63 outputs (unlike NMED/MRED).
	g := aig.New("wide")
	a := g.AddPI("a")
	b := g.AddPI("b")
	for i := 0; i < 100; i++ {
		g.AddPO(g.Xor(a, b), "y")
	}
	p := simulate.Exhaustive(2)
	cmp := NewComparator(MHD, g, p)
	approx := aig.New("wide")
	a2 := approx.AddPI("a")
	approx.AddPI("b")
	for i := 0; i < 100; i++ {
		approx.AddPO(a2, "y") // wrong whenever b=1: half the patterns
	}
	if e := cmp.Error(approx); math.Abs(e-0.5) > 1e-12 {
		t.Fatalf("MHD = %g, want 0.5", e)
	}
}

func TestMHDBoundedByER(t *testing.T) {
	// For any pair of circuits, MHD <= ER (a pattern counted by ER
	// has at least one, at most all, differing bits).
	g := circuits.ArrayMult(3)
	p := simulate.Exhaustive(6)
	res := simulate.MustRun(g, p)
	pos := res.POValues(g)
	approxPOs := make([]simulate.Vec, len(pos))
	for i := range pos {
		approxPOs[i] = append(simulate.Vec(nil), pos[i]...)
	}
	for w := range approxPOs[0] {
		approxPOs[0][w] = 0
		approxPOs[1][w] = ^approxPOs[1][w]
	}
	er := NewComparator(ER, g, p).ErrorFromPOs(approxPOs)
	mhd := NewComparator(MHD, g, p).ErrorFromPOs(approxPOs)
	if mhd > er {
		t.Fatalf("MHD %g exceeds ER %g", mhd, er)
	}
	if mhd == 0 {
		t.Fatal("expected nonzero MHD")
	}
}

func TestMHDFlipPath(t *testing.T) {
	exact, approx := buildPair()
	p := simulate.Exhaustive(2)
	cmp := NewComparator(MHD, exact, p)
	res := simulate.MustRun(approx, p)
	base := res.POValues(approx)
	flip := make([]simulate.Vec, 2)
	flip[1] = simulate.Vec{0b1000}
	if e := cmp.ErrorFromPOsXor(base, flip); e != 0 {
		t.Fatalf("flip-to-exact MHD = %g", e)
	}
}

func TestErrorWithFlipsMatchesFullEval(t *testing.T) {
	// Cross-check the incremental flip evaluator against the direct
	// XOR evaluation for word-level metrics, including empty and
	// full flip masks.
	g := circuits.ArrayMult(3)
	p := simulate.Exhaustive(6)
	res := simulate.MustRun(g, p)
	pos := res.POValues(g)
	for _, kind := range []Kind{NMED, MRED} {
		cmp := NewComparator(kind, g, p)
		base := cmp.NewBaseEval(pos)
		if got := cmp.ErrorWithFlips(base, make([]simulate.Vec, len(pos))); got != base.Err {
			t.Fatalf("%v: empty flips changed the error", kind)
		}
		for seed := int64(0); seed < 4; seed++ {
			flips := make([]simulate.Vec, len(pos))
			rp := simulate.Random(1, p.NumPatterns(), seed)
			flips[int(seed)%len(pos)] = rp.PIValue(0)
			want := cmp.ErrorFromPOsXor(pos, flips)
			got := cmp.ErrorWithFlips(base, flips)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("%v seed %d: incremental %g, direct %g", kind, seed, got, want)
			}
		}
	}
}

func TestErrorWithFlipsSamplingPath(t *testing.T) {
	// With more flipped patterns than the sampling budget the MRED
	// evaluator switches to a strided estimate; it must stay within a
	// loose relative tolerance of the exact value. NMED scores the
	// same flips exactly.
	g := aig.New("w")
	a := g.AddPI("a")
	b := g.AddPI("b")
	for j := 0; j < 4; j++ {
		g.AddPO(g.Xor(a, b), "y")
	}
	// 40 inputs is irrelevant; we need lots of patterns.
	big := aig.New("big")
	var pis []aig.Lit
	for i := 0; i < 24; i++ {
		pis = append(pis, big.AddPI("x"))
	}
	for j := 0; j < 4; j++ {
		big.AddPO(big.Xor(pis[j], pis[j+1]), "y")
	}
	p := simulate.Random(24, 40000, 3)
	cmp := NewComparator(MRED, big, p)
	res := simulate.MustRun(big, p)
	pos := res.POValues(big)
	base := cmp.NewBaseEval(pos)
	flips := make([]simulate.Vec, 4)
	full := make(simulate.Vec, p.Words())
	for w := range full {
		full[w] = ^uint64(0)
	}
	full[len(full)-1] &= p.LastMask()
	flips[0] = full // 40000 flipped patterns > budget
	exact := cmp.ErrorFromPOsXor(pos, flips)
	got := cmp.ErrorWithFlips(base, flips)
	if exact == 0 {
		t.Fatal("expected nonzero error")
	}
	if rel := math.Abs(got-exact) / exact; rel > 0.05 {
		t.Fatalf("sampled estimate off by %.1f%%", rel*100)
	}
	if got == exact {
		t.Fatal("MRED estimate equals the full evaluation; the flips did not reach the sampling path")
	}
	nmed := NewComparator(NMED, big, p)
	want := nmed.ErrorFromPOsXor(pos, flips)
	if got := nmed.ErrorWithFlips(nmed.NewBaseEval(pos), flips); math.Abs(got-want) > 1e-12*want {
		t.Fatalf("NMED over the sampling budget: %v, full evaluation %v", got, want)
	}
	_ = a
}

func TestErrorWithFlipsPanicsOnER(t *testing.T) {
	g := circuits.ArrayMult(3)
	p := simulate.Exhaustive(6)
	cmp := NewComparator(ER, g, p)
	res := simulate.MustRun(g, p)
	base := &BaseEval{POs: res.POValues(g)}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ER")
		}
	}()
	cmp.ErrorWithFlips(base, make([]simulate.Vec, g.NumPOs()))
}
