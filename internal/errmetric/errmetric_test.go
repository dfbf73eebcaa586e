package errmetric

import (
	"math"
	"strings"
	"testing"

	"accals/internal/aig"
	"accals/internal/circuits"
	"accals/internal/simulate"
)

func TestKindString(t *testing.T) {
	if ER.String() != "ER" || NMED.String() != "NMED" || MRED.String() != "MRED" {
		t.Fatal("metric names wrong")
	}
	if ER.IsWordLevel() || !NMED.IsWordLevel() || !MRED.IsWordLevel() {
		t.Fatal("IsWordLevel wrong")
	}
}

// TestParseKind: every kind parses back from its lower-cased String,
// which is the name snapshots, manifests and summaries record.
func TestParseKind(t *testing.T) {
	for _, k := range []Kind{ER, NMED, MRED, MHD, MaxED} {
		for _, name := range []string{strings.ToLower(k.String()), k.String()} {
			if got, err := ParseKind(name); err != nil || got != k {
				t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, k)
			}
		}
	}
	if _, err := ParseKind("wape"); err == nil || !strings.Contains(err.Error(), "unknown metric") {
		t.Errorf("ParseKind(wape) = %v, want an unknown-metric error", err)
	}
}

func TestZeroErrorAgainstSelf(t *testing.T) {
	g := circuits.RCA(4)
	p := simulate.Exhaustive(g.NumPIs())
	for _, k := range []Kind{ER, NMED, MRED} {
		cmp := NewComparator(k, g, p)
		if e := cmp.Error(g.Clone()); e != 0 {
			t.Errorf("%v self-error = %g, want 0", k, e)
		}
	}
}

// buildPair returns a 2-in/2-out circuit and an approximation that
// differs in an exactly known way: approximate PO1 is stuck at 0,
// exact PO1 = a AND b.
func buildPair() (exact, approx *aig.Graph) {
	exact = aig.New("exact")
	a := exact.AddPI("a")
	b := exact.AddPI("b")
	exact.AddPO(exact.Xor(a, b), "s0")
	exact.AddPO(exact.And(a, b), "s1")

	approx = aig.New("approx")
	a2 := approx.AddPI("a")
	b2 := approx.AddPI("b")
	approx.AddPO(approx.Xor(a2, b2), "s0")
	approx.AddPO(aig.ConstFalse, "s1")
	return exact, approx
}

func TestERKnownValue(t *testing.T) {
	exact, approx := buildPair()
	p := simulate.Exhaustive(2)
	cmp := NewComparator(ER, exact, p)
	// Outputs differ only for a=b=1: 1 of 4 patterns.
	if e := cmp.Error(approx); math.Abs(e-0.25) > 1e-12 {
		t.Fatalf("ER = %g, want 0.25", e)
	}
}

func TestNMEDKnownValue(t *testing.T) {
	exact, approx := buildPair()
	p := simulate.Exhaustive(2)
	cmp := NewComparator(NMED, exact, p)
	// Error distance: |0-2| = 2 on one of 4 patterns; max value 3.
	want := (2.0 / 3.0) / 4.0
	if e := cmp.Error(approx); math.Abs(e-want) > 1e-12 {
		t.Fatalf("NMED = %g, want %g", e, want)
	}
}

func TestMREDKnownValue(t *testing.T) {
	exact, approx := buildPair()
	p := simulate.Exhaustive(2)
	cmp := NewComparator(MRED, exact, p)
	// a=b=1: exact 3 (s0=0? no: s0 = xor = 0, s1 = 1 -> value 2);
	// approx value 0. RED = |0-2|/2 = 1 on 1 of 4 patterns.
	want := 1.0 / 4.0
	if e := cmp.Error(approx); math.Abs(e-want) > 1e-12 {
		t.Fatalf("MRED = %g, want %g", e, want)
	}
}

func TestMREDDenominatorClamp(t *testing.T) {
	// Exact output 0, approx output 1: RED uses max(exact,1)=1.
	exact := aig.New("e")
	a := exact.AddPI("a")
	exact.AddPO(exact.And(a, a.Not()), "y") // constant 0
	approx := aig.New("x")
	approx.AddPI("a")
	approx.AddPO(aig.ConstTrue, "y")
	p := simulate.Exhaustive(1)
	cmp := NewComparator(MRED, exact, p)
	if e := cmp.Error(approx); math.Abs(e-1) > 1e-12 {
		t.Fatalf("MRED = %g, want 1", e)
	}
}

func TestErrorFromPOsXor(t *testing.T) {
	exact, approx := buildPair()
	p := simulate.Exhaustive(2)
	for _, k := range []Kind{ER, NMED, MRED} {
		cmp := NewComparator(k, exact, p)
		res := simulate.MustRun(approx, p)
		base := res.POValues(approx)
		direct := cmp.ErrorFromPOs(base)

		// Flipping PO1 on pattern 3 turns approx into exact.
		flip := make([]simulate.Vec, 2)
		flip[1] = simulate.Vec{0b1000}
		if e := cmp.ErrorFromPOsXor(base, flip); e != 0 {
			t.Errorf("%v: flip-to-exact error = %g, want 0", k, e)
		}
		// A nil flip slice must equal the direct evaluation.
		if e := cmp.ErrorFromPOsXor(base, nil); e != direct {
			t.Errorf("%v: nil-flip mismatch: %g vs %g", k, e, direct)
		}
	}
}

func TestERAgainstBruteForceOnMultiplier(t *testing.T) {
	// Approximate a 3-bit multiplier by forcing its LSB to zero and
	// verify ER/NMED against a direct per-pattern computation.
	g := circuits.ArrayMult(3)
	p := simulate.Exhaustive(6)
	res := simulate.MustRun(g, p)
	pos := res.POValues(g)

	// Build flipped base: PO0 forced to const 0.
	approxPOs := make([]simulate.Vec, len(pos))
	for i := range pos {
		approxPOs[i] = append(simulate.Vec(nil), pos[i]...)
	}
	for w := range approxPOs[0] {
		approxPOs[0][w] = 0
	}

	var wantER, wantNMED float64
	n := p.NumPatterns()
	for pat := 0; pat < n; pat++ {
		a := uint64(pat) & 7
		b := uint64(pat) >> 3 & 7
		exactV := a * b
		approxV := exactV &^ 1
		if exactV != approxV {
			wantER++
		}
		wantNMED += math.Abs(float64(exactV)-float64(approxV)) / 63.0
	}
	wantER /= float64(n)
	wantNMED /= float64(n)

	if e := NewComparator(ER, g, p).ErrorFromPOs(approxPOs); math.Abs(e-wantER) > 1e-12 {
		t.Errorf("ER = %g, want %g", e, wantER)
	}
	if e := NewComparator(NMED, g, p).ErrorFromPOs(approxPOs); math.Abs(e-wantNMED) > 1e-12 {
		t.Errorf("NMED = %g, want %g", e, wantNMED)
	}
}

func TestWordLevelPanicsOnWideOutputs(t *testing.T) {
	g := aig.New("wide")
	a := g.AddPI("a")
	for i := 0; i < 64; i++ {
		g.AddPO(a, "y")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 64 outputs under NMED")
		}
	}()
	NewComparator(NMED, g, simulate.Exhaustive(1))
}
