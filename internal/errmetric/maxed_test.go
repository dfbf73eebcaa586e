package errmetric

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"accals/internal/aig"
	"accals/internal/circuits"
	"accals/internal/runctl"
	"accals/internal/simulate"
)

func TestMaxEDKnownValue(t *testing.T) {
	exact, approx := buildPair()
	p := simulate.Exhaustive(2)
	cmp := NewComparator(MaxED, exact, p)
	// The circuits differ only for a=b=1, where exact = 2 and approx
	// = 0: the sampled maximum error distance is 2.
	if e := cmp.Error(approx); e != 2 {
		t.Fatalf("MaxED = %g, want 2", e)
	}
	if e := cmp.Error(exact.Clone()); e != 0 {
		t.Fatalf("MaxED self-error = %g, want 0", e)
	}
}

func TestMaxEDAgainstBruteForce(t *testing.T) {
	// Truncate a 3-bit multiplier's two low POs and cross-check the
	// comparator's max against a direct per-pattern walk.
	g := circuits.ArrayMult(3)
	p := simulate.Exhaustive(6)
	res := simulate.MustRun(g, p)
	pos := res.POValues(g)

	approxPOs := make([]simulate.Vec, len(pos))
	for i := range pos {
		approxPOs[i] = append(simulate.Vec(nil), pos[i]...)
	}
	for _, i := range []int{0, 1} {
		for w := range approxPOs[i] {
			approxPOs[i][w] = 0
		}
	}

	var want uint64
	for pat := 0; pat < p.NumPatterns(); pat++ {
		a := uint64(pat) & 7
		b := uint64(pat) >> 3 & 7
		exactV := a * b
		if d := exactV - exactV&^3; d > want {
			want = d
		}
	}

	cmp := NewComparator(MaxED, g, p)
	if e := cmp.ErrorFromPOs(approxPOs); e != float64(want) {
		t.Fatalf("MaxED = %g, want %d", e, want)
	}
	// The incremental scorer must agree with the direct walk: scoring
	// the truncation as flips of the exact base.
	base := cmp.NewBaseEval(pos)
	flips := make([]simulate.Vec, len(pos))
	for _, i := range []int{0, 1} {
		flips[i] = append(simulate.Vec(nil), pos[i]...) // flip exact -> 0
	}
	if e := cmp.MaxErrorWithFlips(base, flips); e != float64(want) {
		t.Fatalf("MaxErrorWithFlips = %g, want %d", e, want)
	}
	// A nil flip set must reproduce the base error (zero: base is exact).
	if e := cmp.MaxErrorWithFlips(base, make([]simulate.Vec, len(pos))); e != 0 {
		t.Fatalf("MaxErrorWithFlips(no flips) = %g, want 0", e)
	}
}

// TestMaxErrorWithFlipsRandom cross-checks the word-cached incremental
// scorer against full re-evaluation on random flip sets.
func TestMaxErrorWithFlipsRandom(t *testing.T) {
	g := circuits.RCA(4)
	p := simulate.NewPatterns(g.NumPIs(), 200, 7)
	cmp := NewComparator(MaxED, g, p)
	res := simulate.MustRun(g, p)
	pos := res.POValues(g)

	rng := rand.New(rand.NewSource(42))
	words := (p.NumPatterns() + 63) / 64
	for trial := 0; trial < 50; trial++ {
		// Random base: exact POs with random bit noise.
		base := make([]simulate.Vec, len(pos))
		for i := range pos {
			base[i] = append(simulate.Vec(nil), pos[i]...)
			for w := range base[i] {
				base[i][w] ^= rng.Uint64() & rng.Uint64() & rng.Uint64()
			}
		}
		flips := make([]simulate.Vec, len(pos))
		for i := range flips {
			if rng.Intn(2) == 0 {
				continue
			}
			flips[i] = make(simulate.Vec, words)
			for w := range flips[i] {
				flips[i][w] = rng.Uint64() & rng.Uint64() & rng.Uint64() & rng.Uint64()
			}
		}
		be := cmp.NewBaseEval(base)
		got := cmp.MaxErrorWithFlips(be, flips)

		flipped := make([]simulate.Vec, len(base))
		for i := range base {
			flipped[i] = append(simulate.Vec(nil), base[i]...)
			if flips[i] != nil {
				for w := range flipped[i] {
					flipped[i][w] ^= flips[i][w]
				}
			}
		}
		want := cmp.ErrorFromPOs(flipped)
		if got != want {
			t.Fatalf("trial %d: MaxErrorWithFlips = %g, direct = %g", trial, got, want)
		}
	}
}

// TestNMEDNormalizationInteger pins the normalisation constant fix:
// the denominator 2^m - 1 is now computed from integer arithmetic
// (float64(MaxUint64 >> (64-m))) instead of math.Pow(2, m) - 1. Both
// pipelines agree where float64 can represent the value at all, but
// the integer path is exact for every m <= 53 by construction, is the
// correctly-rounded conversion of the true 2^63-1 at the 63-output
// limit, and cannot overflow to +Inf for wide bit-level circuits the
// way a Pow-based constant could.
func TestNMEDNormalizationInteger(t *testing.T) {
	width := func(m int) *aig.Graph {
		g := aig.New("wide")
		a := g.AddPI("a")
		for i := 0; i < m; i++ {
			g.AddPO(a, "y")
		}
		return g
	}
	p := simulate.Exhaustive(1)
	// Exact range: the float64 must equal 2^m - 1 precisely.
	for _, m := range []int{1, 3, 16, 32, 52, 53} {
		cmp := NewComparator(NMED, width(m), p)
		want := float64(uint64(1)<<uint(m) - 1)
		if cmp.maxVal != want {
			t.Fatalf("m=%d: maxVal = %v, want %v", m, cmp.maxVal, want)
		}
	}
	// At the 63-output limit: the correctly-rounded conversion of
	// 2^63 - 1, and finite.
	cmp := NewComparator(NMED, width(63), p)
	if want := float64(uint64(math.MaxUint64) >> 1); cmp.maxVal != want {
		t.Fatalf("m=63: maxVal = %v, want %v", cmp.maxVal, want)
	}
	if math.IsInf(cmp.maxVal, 0) || math.IsNaN(cmp.maxVal) {
		t.Fatalf("m=63: maxVal = %v not finite", cmp.maxVal)
	}
	// Sanity on a real adder: 3 sum bits -> 7.
	g2 := circuits.RCA(2)
	if c := NewComparator(NMED, g2, simulate.Exhaustive(g2.NumPIs())); c.maxVal != 7 {
		t.Fatalf("3-output maxVal = %v, want 7", c.maxVal)
	}
}

// TestZeroOutputRejection: a circuit with no POs must be refused with
// runctl.ErrNoOutputs by every validation entry point, never reach a
// comparator, and never produce NaN.
func TestZeroOutputRejection(t *testing.T) {
	g := aig.New("noout")
	g.AddPI("a")
	for _, k := range []Kind{ER, NMED, MRED, MHD, MaxED} {
		if err := Validate(k, g); !errors.Is(err, runctl.ErrNoOutputs) {
			t.Errorf("Validate(%v) = %v, want ErrNoOutputs", k, err)
		}
		if _, err := NewComparatorChecked(k, g, simulate.Exhaustive(1)); !errors.Is(err, runctl.ErrNoOutputs) {
			t.Errorf("NewComparatorChecked(%v) = %v, want ErrNoOutputs", k, err)
		}
	}
}

func TestValidateBound(t *testing.T) {
	cases := []struct {
		kind  Kind
		bound float64
		ok    bool
	}{
		{ER, 0.05, true},
		{ER, 0, false},
		{ER, 1, true},
		{ER, 1.5, false},
		{ER, -0.1, false},
		{ER, math.NaN(), false},
		{NMED, 0.001, true},
		{MaxED, 0, true},
		{MaxED, 4, true},
		{MaxED, 2.5, false},
		{MaxED, -1, false},
		{MaxED, math.NaN(), false},
		{MaxED, math.Inf(1), false},
	}
	for _, c := range cases {
		err := ValidateBound(c.kind, c.bound)
		if (err == nil) != c.ok {
			t.Errorf("ValidateBound(%v, %v) = %v, want ok=%v", c.kind, c.bound, err, c.ok)
		}
		if err != nil && !errors.Is(err, runctl.ErrInvalidBound) {
			t.Errorf("ValidateBound(%v, %v) = %v, not wrapping ErrInvalidBound", c.kind, c.bound, err)
		}
	}
}

// TestComparatorAlwaysFinite is the finite-error property test: across
// every metric, a variety of circuits (including constant-output and
// zero-value references, the historical NaN triggers) and pattern
// seeds, a validated comparator never returns NaN or ±Inf, whether it
// scores whole output vectors or, for the word-level metrics, random
// flips of a base through ErrorWithFlips/MaxErrorWithFlips.
func TestComparatorAlwaysFinite(t *testing.T) {
	builders := []struct {
		name  string
		build func() *aig.Graph
	}{
		{"rca4", func() *aig.Graph { return circuits.RCA(4) }},
		{"mult3", func() *aig.Graph { return circuits.ArrayMult(3) }},
		{"const0", func() *aig.Graph {
			g := aig.New("const0")
			g.AddPI("a")
			g.AddPI("b")
			g.AddPO(aig.ConstFalse, "y0")
			g.AddPO(aig.ConstFalse, "y1")
			return g
		}},
		{"rand", func() *aig.Graph { return circuits.RandomLogic("rand", 6, 4, 60, 0x5eed) }},
	}
	kinds := []Kind{ER, NMED, MRED, MHD, MaxED}
	seeds := []int64{1, 99, 123456}

	for _, b := range builders {
		ref := b.build()
		for _, seed := range seeds {
			p := simulate.NewPatterns(ref.NumPIs(), 128, seed)
			rng := rand.New(rand.NewSource(seed))
			for _, k := range kinds {
				cmp, err := NewComparatorChecked(k, ref, p)
				if err != nil {
					t.Fatalf("%s/%v: %v", b.name, k, err)
				}
				// Perturb the exact POs with random flips, including
				// the all-zero approximation (worst case for MRED's
				// denominator and NMED's normalisation).
				bases := [][]simulate.Vec{cmp.ExactPOs(), zeroPOs(ref, p)}
				for i := 0; i < 5; i++ {
					bases = append(bases, noisyPOs(cmp.ExactPOs(), rng))
				}
				for i, pos := range bases {
					e := cmp.ErrorFromPOs(pos)
					if math.IsNaN(e) || math.IsInf(e, 0) {
						t.Fatalf("%s/%v seed %d base %d: error %v not finite",
							b.name, k, seed, i, e)
					}
					if !k.IsWordLevel() {
						continue
					}
					score := cmp.ErrorWithFlips
					if k == MaxED {
						score = cmp.MaxErrorWithFlips
					}
					be := cmp.NewBaseEval(pos)
					for trial := 0; trial < 3; trial++ {
						flips := noisyPOs(zeroPOs(ref, p), rng)
						flips[rng.Intn(len(flips))] = nil
						if e := score(be, flips); math.IsNaN(e) || math.IsInf(e, 0) {
							t.Fatalf("%s/%v seed %d base %d flips %d: error %v not finite",
								b.name, k, seed, i, trial, e)
						}
					}
				}
			}
		}
	}
}

func zeroPOs(g *aig.Graph, p *simulate.Patterns) []simulate.Vec {
	words := (p.NumPatterns() + 63) / 64
	pos := make([]simulate.Vec, g.NumPOs())
	for i := range pos {
		pos[i] = make(simulate.Vec, words)
	}
	return pos
}

func noisyPOs(exact []simulate.Vec, rng *rand.Rand) []simulate.Vec {
	pos := make([]simulate.Vec, len(exact))
	for i := range exact {
		pos[i] = append(simulate.Vec(nil), exact[i]...)
		for w := range pos[i] {
			pos[i][w] ^= rng.Uint64() & rng.Uint64()
		}
	}
	return pos
}
