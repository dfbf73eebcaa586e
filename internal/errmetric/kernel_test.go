package errmetric

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"accals/internal/circuits"
	"accals/internal/simulate"
)

// refErrorWithFlips is the per-pattern ErrorWithFlips that ScoreFlips
// replaced, kept as the bit-identity oracle for the kernel. It gathers
// each changed pattern's flipped bits output by output.
func refErrorWithFlips(c *Comparator, b *BaseEval, flips []simulate.Vec) float64 {
	var fj []int
	for j, f := range flips {
		if f != nil {
			fj = append(fj, j)
		}
	}
	if len(fj) == 0 {
		return b.Err
	}
	words := c.patterns.Words()
	changed := make(simulate.Vec, words)
	total := 0
	for w := 0; w < words; w++ {
		var m uint64
		for _, j := range fj {
			m |= flips[j][w]
		}
		changed[w] = m
		total += bits.OnesCount64(m)
	}
	if total == 0 {
		return b.Err
	}
	stride := 1
	if total > flipSampleBudget {
		stride = (total + flipSampleBudget - 1) / flipSampleBudget
	}

	delta := 0.0
	sampled := 0
	for w := 0; w < words; w += stride {
		m := changed[w]
		sampled += bits.OnesCount64(m)
		for ; m != 0; m &= m - 1 {
			bit := m & -m
			pat := w<<6 + bits.TrailingZeros64(bit)
			av := b.Vals[pat]
			av2 := av
			for _, j := range fj {
				if flips[j][w]&bit != 0 {
					av2 ^= 1 << uint(j)
				}
			}
			ev := c.exactVals[pat]
			delta += c.contribution(av2, ev) - c.contribution(av, ev)
		}
	}
	if sampled == 0 {
		return b.Err
	}
	delta *= float64(total) / float64(sampled)
	return b.Err + delta/float64(c.patterns.NumPatterns())
}

// refMaxErrorWithFlips is the per-pattern MaxErrorWithFlips that
// ScoreFlips replaced: every word a flip touches is re-walked whole.
func refMaxErrorWithFlips(c *Comparator, b *BaseEval, flips []simulate.Vec) float64 {
	var fj []int
	for j, f := range flips {
		if f != nil {
			fj = append(fj, j)
		}
	}
	if len(fj) == 0 {
		return b.Err
	}
	words := c.patterns.Words()
	var g uint64
	for w := 0; w < words; w++ {
		var m uint64
		for _, j := range fj {
			m |= flips[j][w]
		}
		if w == words-1 {
			m &= c.patterns.LastMask()
		}
		if m == 0 {
			if b.wordMax[w] > g {
				g = b.wordMax[w]
			}
			continue
		}
		if d := refWordMaxDiff(c, b.Vals, w, fj, flips); d > g {
			g = d
		}
	}
	return float64(g)
}

// refWordMaxDiff returns the largest |approx - exact| over the
// patterns of word w, with the flips of outputs fj applied.
func refWordMaxDiff(c *Comparator, vals []uint64, w int, fj []int, flips []simulate.Vec) uint64 {
	n := c.patterns.NumPatterns()
	lim := 64
	if w == c.patterns.Words()-1 && n&63 != 0 {
		lim = n & 63
	}
	var g uint64
	for b := 0; b < lim; b++ {
		pat := w<<6 + b
		av := vals[pat]
		for _, j := range fj {
			if flips[j][w]>>uint(b)&1 != 0 {
				av ^= 1 << uint(j)
			}
		}
		ev := c.exactVals[pat]
		var diff uint64
		if av > ev {
			diff = av - ev
		} else {
			diff = ev - av
		}
		if diff > g {
			g = diff
		}
	}
	return g
}

// randomVec returns a random vector over p's patterns with bit density
// 2^-density, zero past the last pattern.
func randomVec(p *simulate.Patterns, rng *rand.Rand, density int) simulate.Vec {
	v := make(simulate.Vec, p.Words())
	for w := range v {
		v[w] = ^uint64(0)
		for k := 0; k < density; k++ {
			v[w] &= rng.Uint64()
		}
	}
	v[len(v)-1] &= p.LastMask()
	return v
}

// andVecs returns masks[j] & dev per output, nil where masks[j] is nil.
func andVecs(masks []simulate.Vec, dev simulate.Vec) []simulate.Vec {
	out := make([]simulate.Vec, len(masks))
	for j, m := range masks {
		if m == nil {
			continue
		}
		out[j] = make(simulate.Vec, len(m))
		for w := range m {
			out[j][w] = m[w] & dev[w]
		}
	}
	return out
}

// TestScoreFlipsMatchesReference is the kernel's bit-identity oracle:
// on random bases, flips and deviation masks, ScoreFlips and its
// ErrorWithFlips/MaxErrorWithFlips wrappers return exactly the
// per-pattern reference's float64 bits for NMED, MRED and MaxED. The
// 40000-pattern sets take the mean metrics' sampling stride. The base
// error the kernel starts from, which NewBaseEval sums from its cached
// contributions, must match ErrorFromPOs bit for bit too.
func TestScoreFlipsMatchesReference(t *testing.T) {
	g := circuits.ArrayMult(4)
	for _, n := range []int{64, 1000, 8192, 40000} {
		p := simulate.Random(g.NumPIs(), n, int64(n))
		strided := false
		for _, kind := range []Kind{NMED, MRED, MaxED} {
			cmp := NewComparator(kind, g, p)
			rng := rand.New(rand.NewSource(int64(n) + int64(kind)))
			ref := refErrorWithFlips
			wrapper := cmp.ErrorWithFlips
			if kind == MaxED {
				ref, wrapper = refMaxErrorWithFlips, cmp.MaxErrorWithFlips
			}
			for trial := 0; trial < 12; trial++ {
				base := noisyPOs(cmp.ExactPOs(), rng)
				for _, v := range base {
					v[len(v)-1] &= p.LastMask()
				}
				b := cmp.NewBaseEval(base)
				if want := cmp.ErrorFromPOs(base); math.Float64bits(b.Err) != math.Float64bits(want) {
					t.Fatalf("n=%d %v trial %d: NewBaseEval error %v, ErrorFromPOs %v", n, kind, trial, b.Err, want)
				}
				masks := make([]simulate.Vec, g.NumPOs())
				for j := range masks {
					if rng.Intn(4) != 0 {
						masks[j] = randomVec(p, rng, 1+trial%4)
					}
				}
				dev := randomVec(p, rng, 1)
				if n > flipSampleBudget && kind != MaxED {
					if changed := countChanged(andVecs(masks, dev)); changed > flipSampleBudget {
						strided = true
					}
				}
				if got, want := wrapper(b, masks), ref(cmp, b, masks); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d %v trial %d, no deviation mask: kernel %v, reference %v", n, kind, trial, got, want)
				}
				if got, want := cmp.ScoreFlips(b, masks, dev), ref(cmp, b, andVecs(masks, dev)); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d %v trial %d, deviation mask: kernel %v, reference %v", n, kind, trial, got, want)
				}
			}
		}
		if n > flipSampleBudget && !strided {
			t.Fatalf("n=%d: no case took the sampling stride", n)
		}
	}
}

// countChanged returns the number of patterns on which some flip is
// set.
func countChanged(flips []simulate.Vec) int {
	var union simulate.Vec
	for _, f := range flips {
		if f == nil {
			continue
		}
		if union == nil {
			union = make(simulate.Vec, len(f))
		}
		for w := range f {
			union[w] |= f[w]
		}
	}
	return simulate.PopCount(union)
}

// TestErrorWithFlipsIgnoresTailBits is the regression test for flip
// bits past the last pattern: ErrorWithFlips used to index past the
// per-pattern values and panic; every word-level scorer must ignore
// those bits, as ErrorFromPOsXor does.
func TestErrorWithFlipsIgnoresTailBits(t *testing.T) {
	g := circuits.ArrayMult(4)
	p := simulate.Random(g.NumPIs(), 1000, 1)
	for _, kind := range []Kind{NMED, MRED, MaxED} {
		cmp := NewComparator(kind, g, p)
		base := cmp.NewBaseEval(cmp.ExactPOs())
		ones := make(simulate.Vec, p.Words())
		for w := range ones {
			ones[w] = ^uint64(0)
		}
		flips := make([]simulate.Vec, g.NumPOs())
		flips[0] = ones
		score := cmp.ErrorWithFlips
		if kind == MaxED {
			score = cmp.MaxErrorWithFlips
		}
		got := score(base, flips)
		if want := cmp.ErrorFromPOsXor(cmp.ExactPOs(), flips); math.Abs(got-want) > 1e-12 {
			t.Fatalf("%v: all-ones flip on output 0 scores %v, ErrorFromPOsXor %v", kind, got, want)
		}
		masked := append(simulate.Vec(nil), ones...)
		masked[len(masked)-1] &= p.LastMask()
		flips[0] = masked
		if again := score(base, flips); math.Float64bits(again) != math.Float64bits(got) {
			t.Fatalf("%v: tail bits changed the score: %v with, %v without", kind, got, again)
		}
	}
}

// TestScoreFlipsAllocFree pins the kernel's allocation contract: the
// scorers allocate nothing, so the estimator can call them once per
// candidate.
func TestScoreFlipsAllocFree(t *testing.T) {
	g := circuits.ArrayMult(4)
	p := simulate.Random(g.NumPIs(), 1000, 1)
	rng := rand.New(rand.NewSource(9))
	masks := make([]simulate.Vec, g.NumPOs())
	for j := range masks {
		masks[j] = randomVec(p, rng, 2)
	}
	dev := randomVec(p, rng, 1)
	for _, kind := range []Kind{NMED, MRED, MaxED} {
		cmp := NewComparator(kind, g, p)
		b := cmp.NewBaseEval(noisyPOs(cmp.ExactPOs(), rng))
		score := cmp.ErrorWithFlips
		if kind == MaxED {
			score = cmp.MaxErrorWithFlips
		}
		if a := testing.AllocsPerRun(20, func() { score(b, masks) }); a != 0 {
			t.Errorf("%v: flip scoring allocates %v per call, want 0", kind, a)
		}
		if a := testing.AllocsPerRun(20, func() { cmp.ScoreFlips(b, masks, dev) }); a != 0 {
			t.Errorf("%v: ScoreFlips allocates %v per call, want 0", kind, a)
		}
	}
}
