package errmetric

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"accals/internal/circuits"
	"accals/internal/simulate"
)

// refNMEDDelta is NMED's exact increase: the sum, over every pattern a
// flip changes, of |new − exact| − |base − exact|, as an unbounded
// integer.
func refNMEDDelta(c *Comparator, b *BaseEval, flips []simulate.Vec) *big.Int {
	delta := new(big.Int)
	var term big.Int
	for pat, av := range b.Vals {
		av2 := av
		for j, f := range flips {
			if f != nil && simulate.Bit(f, pat) {
				av2 ^= 1 << uint(j)
			}
		}
		ev := c.exactVals[pat]
		delta.Add(delta, term.SetUint64(absDiff(av2, ev)))
		delta.Sub(delta, term.SetUint64(absDiff(av, ev)))
	}
	return delta
}

// refNMEDWithFlips is NMED's reference scorer: b.Err + Δ/maxVal/n,
// with the exact increase Δ (refNMEDDelta) rounded to float64 once.
func refNMEDWithFlips(c *Comparator, b *BaseEval, flips []simulate.Vec) float64 {
	d, _ := new(big.Float).SetInt(refNMEDDelta(c, b, flips)).Float64()
	return b.Err + d/c.maxVal/float64(c.patterns.NumPatterns())
}

// refMREDWithFlips is MRED's reference scorer, pattern by pattern,
// with the kernel's float operations in the kernel's order and its
// strided sample above flipSampleBudget. It gathers each changed
// pattern's flipped bits output by output.
func refMREDWithFlips(c *Comparator, b *BaseEval, flips []simulate.Vec) float64 {
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

// refMaxErrorWithFlips is MaxED's reference scorer: it walks every
// pattern of every word, with the flips applied, and of BaseEval reads
// only the base outputs, from which it builds its own per-pattern
// values, and, when nothing flips, the base error.
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
	vals := extractValues(nil, b.POs, c.patterns)
	var g uint64
	for w := 0; w < c.patterns.Words(); w++ {
		if d := refWordMaxDiff(c, vals, w, fj, flips); d > g {
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

// andVecs returns masks[j] & dev per output over p's real patterns,
// nil where masks[j] is nil; a nil dev masks nothing. This is the flip
// set ScoreTarget scores for one candidate.
func andVecs(p *simulate.Patterns, masks []simulate.Vec, dev simulate.Vec) []simulate.Vec {
	out := make([]simulate.Vec, len(masks))
	for j, m := range masks {
		if m == nil {
			continue
		}
		out[j] = make(simulate.Vec, len(m))
		for w := range m {
			out[j][w] = m[w]
			if dev != nil {
				out[j][w] &= dev[w]
			}
		}
		out[j][len(m)-1] &= p.LastMask()
	}
	return out
}

// setTail sets every bit of v past p's last pattern.
func setTail(p *simulate.Patterns, v simulate.Vec) {
	if v != nil {
		v[len(v)-1] |= ^p.LastMask()
	}
}

// refScore is the reference scorer for the comparator's metric.
func refScore(c *Comparator) func(*Comparator, *BaseEval, []simulate.Vec) float64 {
	switch c.kind {
	case NMED:
		return refNMEDWithFlips
	case MaxED:
		return refMaxErrorWithFlips
	}
	return refMREDWithFlips
}

// checkTarget scores devs against masks in one ScoreTarget call and
// checks every result against the reference on masks AND devs[k], bit
// for bit.
func checkTarget(t *testing.T, c *Comparator, b *BaseEval, masks, devs []simulate.Vec, what string) {
	t.Helper()
	out := make([]float64, len(devs))
	c.ScoreTarget(b, masks, devs, out)
	ref := refScore(c)
	for k, dev := range devs {
		if want := ref(c, b, andVecs(c.patterns, masks, dev)); math.Float64bits(out[k]) != math.Float64bits(want) {
			t.Fatalf("%s, candidate %d of %d: kernel %v, reference %v", what, k, len(devs), out[k], want)
		}
	}
}

// sampleStride returns the sampling stride MRED takes on a flip set.
func sampleStride(flips []simulate.Vec) int {
	if changed := countChanged(flips); changed > flipSampleBudget {
		return (changed + flipSampleBudget - 1) / flipSampleBudget
	}
	return 1
}

// TestScoreFlipsMatchesReference is the kernel's bit-identity oracle:
// on random bases and target masks, each trial scores 1 to 8
// deviation masks in one ScoreTarget call, and every result, like the
// ErrorWithFlips/MaxErrorWithFlips wrappers, returns exactly the
// reference's float64 bits: the exact integer increase, rounded once,
// for NMED, and the per-pattern scorers for MRED and MaxED. The
// trials cover a target whose masks are all nil, all-zero and nil
// deviation masks, and flip bits past the last pattern. NMED scores 16
// pattern words at a time: 64 patterns fill part of one block, 1000
// one whole block, 1100 a whole block and 2 words of a second, and the
// larger sets many blocks. The 40000-pattern sets take MRED's sampling
// stride, with different strides for candidates of one target. The
// base error the kernel starts from, which NewBaseEval sums per
// pattern, must match ErrorFromPOs bit for bit too. A last call per
// set scores more candidates than one kernel chunk holds.
func TestScoreFlipsMatchesReference(t *testing.T) {
	g := circuits.ArrayMult(4)
	for _, n := range []int{64, 1000, 1100, 8192, 40000} {
		p := simulate.Random(g.NumPIs(), n, int64(n))
		strided, mixed := false, false
		for _, kind := range []Kind{NMED, MRED, MaxED} {
			cmp := NewComparator(kind, g, p)
			rng := rand.New(rand.NewSource(int64(n) + int64(kind)))
			wrapper := cmp.ErrorWithFlips
			if kind == MaxED {
				wrapper = cmp.MaxErrorWithFlips
			}
			var b *BaseEval
			var masks []simulate.Vec
			for trial := 0; trial < 12; trial++ {
				base := noisyPOs(cmp.ExactPOs(), rng)
				for _, v := range base {
					v[len(v)-1] &= p.LastMask()
				}
				b = cmp.NewBaseEval(base)
				if want := cmp.ErrorFromPOs(base); math.Float64bits(b.Err) != math.Float64bits(want) {
					t.Fatalf("n=%d %v trial %d: NewBaseEval error %v, ErrorFromPOs %v", n, kind, trial, b.Err, want)
				}
				masks = make([]simulate.Vec, g.NumPOs())
				for j := range masks {
					if trial > 0 && rng.Intn(4) != 0 {
						masks[j] = randomVec(p, rng, 1+trial%4)
						if trial%3 == 2 {
							setTail(p, masks[j])
						}
					}
				}
				devs := make([]simulate.Vec, 1+trial%8)
				for k := range devs {
					switch {
					case k == 1 && trial%4 == 1:
						devs[k] = make(simulate.Vec, p.Words())
					case k == 2:
						devs[k] = nil
					default:
						devs[k] = randomVec(p, rng, k%4)
						if trial%3 == 2 {
							setTail(p, devs[k])
						}
					}
				}
				if n > flipSampleBudget && kind == MRED {
					seen := map[int]bool{}
					for _, dev := range devs {
						s := sampleStride(andVecs(p, masks, dev))
						seen[s] = true
						strided = strided || s > 1
					}
					mixed = mixed || len(seen) > 1
				}
				what := fmt.Sprintf("n=%d %v trial %d", n, kind, trial)
				if got, want := wrapper(b, masks), refScore(cmp)(cmp, b, andVecs(p, masks, nil)); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s, no deviation mask: kernel %v, reference %v", what, got, want)
				}
				checkTarget(t, cmp, b, masks, devs, what)
			}
			devs := make([]simulate.Vec, targetChunk+5)
			for k := range devs {
				devs[k] = randomVec(p, rng, k%5)
			}
			checkTarget(t, cmp, b, masks, devs, fmt.Sprintf("n=%d %v, %d candidates", n, kind, len(devs)))
		}
		if n > flipSampleBudget && !(strided && mixed) {
			t.Fatalf("n=%d: strided %v, mixed strides within a target %v; want both", n, strided, mixed)
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

// TestScoreTarget63Outputs scores targets of a 63-output circuit whose
// flips hit the top planes, bit for bit against the references. The
// NMED increases must overflow int64 both ways (so the kernel's wide
// accumulator and its one rounding are exercised): flipping the top
// output of a base that has it right raises the error by about 2^62
// per pattern, and the same flip on a base that has it wrong lowers it.
// They must do so on one block of pattern words (1000 patterns) and on
// several, the last partial (3000 patterns, 47 words), so the wide sums
// carry across blocks.
func TestScoreTarget63Outputs(t *testing.T) {
	const m = 63
	g := circuits.RandomLogic("wide", 8, m, 2*m+20, 63)
	for _, n := range []int{1000, 3000} {
		p := simulate.Random(g.NumPIs(), n, 63)
		rng := rand.New(rand.NewSource(63))
		above, below := false, false
		for _, kind := range []Kind{NMED, MRED, MaxED} {
			cmp := NewComparator(kind, g, p)
			for trial := 0; trial < 8; trial++ {
				base := noisyPOs(cmp.ExactPOs(), rng)
				if trial%2 == 1 {
					for w := range base[m-1] {
						base[m-1][w] = ^cmp.ExactPOs()[m-1][w]
					}
				}
				for _, v := range base {
					v[len(v)-1] &= p.LastMask()
				}
				b := cmp.NewBaseEval(base)
				masks := make([]simulate.Vec, m)
				for j := m - 1 - trial; j < m; j++ {
					masks[j] = randomVec(p, rng, trial%3)
				}
				if trial >= 4 {
					masks[trial] = randomVec(p, rng, 1)
				}
				devs := []simulate.Vec{nil, randomVec(p, rng, 1), randomVec(p, rng, 2)}
				checkTarget(t, cmp, b, masks, devs, fmt.Sprintf("n=%d %v trial %d", n, kind, trial))
				if kind == NMED {
					for _, dev := range devs {
						d := refNMEDDelta(cmp, b, andVecs(p, masks, dev))
						above = above || d.Cmp(big.NewInt(math.MaxInt64)) > 0
						below = below || d.Cmp(big.NewInt(math.MinInt64)) < 0
					}
				}
			}
		}
		if !above || !below {
			t.Fatalf("n=%d: NMED increases above int64 %v, below int64 %v; want both", n, above, below)
		}
	}
}

// TestScoreTargetConcurrent scores many targets on one shared BaseEval
// from several goroutines at once, as the estimator's scoring shards
// do, and checks each result against the same call made alone. Under
// the race detector it also checks that scoring only reads b.
func TestScoreTargetConcurrent(t *testing.T) {
	g := circuits.ArrayMult(4)
	p := simulate.Random(g.NumPIs(), 1000, 3)
	rng := rand.New(rand.NewSource(3))
	const targets = 16
	for _, kind := range []Kind{NMED, MRED, MaxED} {
		cmp := NewComparator(kind, g, p)
		b := cmp.NewBaseEval(noisyPOs(cmp.ExactPOs(), rng))
		masks := make([][]simulate.Vec, targets)
		devs := make([]simulate.Vec, 4)
		for k := range devs {
			devs[k] = randomVec(p, rng, k%3)
		}
		want := make([][]float64, targets)
		for i := range masks {
			masks[i] = make([]simulate.Vec, g.NumPOs())
			for j := range masks[i] {
				if rng.Intn(3) != 0 {
					masks[i][j] = randomVec(p, rng, 1+i%3)
				}
			}
			want[i] = make([]float64, len(devs))
			cmp.ScoreTarget(b, masks[i], devs, want[i])
		}
		var wg sync.WaitGroup
		got := make([][]float64, targets)
		for i := range masks {
			got[i] = make([]float64, len(devs))
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cmp.ScoreTarget(b, masks[i], devs, got[i])
			}(i)
		}
		wg.Wait()
		for i := range got {
			for k := range devs {
				if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
					t.Fatalf("%v target %d candidate %d: concurrent %v, alone %v", kind, i, k, got[i][k], want[i][k])
				}
			}
		}
	}
}

// TestInt128Float checks the kernel's one rounding of a wide integer
// against math/big on values around the int64 range, ties at 53 bits
// and random 128-bit integers.
func TestInt128Float(t *testing.T) {
	check := func(hi int64, lo uint64) {
		t.Helper()
		x := new(big.Int).Lsh(big.NewInt(hi), 64)
		x.Add(x, new(big.Int).SetUint64(lo))
		want, _ := new(big.Float).SetInt(x).Float64()
		if got := int128Float(hi, lo); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("int128Float(%#x, %#x) = %v, want %v (%v)", hi, lo, got, want, x)
		}
	}
	for _, hi := range []int64{0, -1, 1, -2, 1 << 10, -1 << 10, math.MaxInt64, math.MinInt64} {
		for _, lo := range []uint64{0, 1, 1 << 63, 1<<63 - 1, math.MaxUint64, 1 << 11, 3 << 10, 1<<11 | 1<<10, 1<<11 | 1<<10 | 1} {
			check(hi, lo)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		hi := int64(rng.Uint64()) >> uint(rng.Intn(64))
		lo := rng.Uint64()
		if i%2 == 0 {
			// Zero the bits just past the 53rd significant one, so
			// ties and near-ties turn up.
			lo &^= 1<<uint(rng.Intn(64)) - 1
		}
		check(hi, lo)
	}
}

// FuzzScoreTargetMatchesReference decodes a pattern count, an output
// count (1-63), one target's output masks and up to eight deviation
// masks, and checks every ScoreTarget result against the reference
// scorers for NMED, MRED and MaxED, bit for bit. Byte j of
// shape picks output j's mask: nil when it is 0 mod 5, else a random
// mask. The remaining bytes pick deviation masks the same way, except
// that 1 mod 5 is all zero. Bit 7 of a byte sets the mask's bits past
// the last pattern.
func FuzzScoreTargetMatchesReference(f *testing.F) {
	f.Add(uint16(1000), uint8(8), int64(1), []byte{1, 2, 0, 3, 4, 1, 2, 3, 2, 3, 4, 1, 0})
	f.Add(uint16(64), uint8(1), int64(2), []byte{0x81, 0x82})
	f.Add(uint16(8192), uint8(16), int64(3), bytes.Repeat([]byte{0x83}, 24))
	f.Add(uint16(20000), uint8(4), int64(4), []byte{1, 1, 1, 1, 2, 3, 4, 0x82})
	f.Add(uint16(777), uint8(62), int64(5), bytes.Repeat([]byte{0x84, 5, 2}, 22))
	f.Add(uint16(300), uint8(3), int64(6), []byte{0, 0, 0, 2, 2})
	f.Fuzz(func(t *testing.T, pats uint16, outs uint8, seed int64, shape []byte) {
		n := 1 + int(pats)%(1<<15)
		m := 1 + int(outs)%63
		g := circuits.RandomLogic("fuzz", 8, m, 2*m+20, seed)
		p := simulate.Random(g.NumPIs(), n, seed)
		rng := rand.New(rand.NewSource(seed))
		decode := func(sel byte, zero bool) simulate.Vec {
			d := int(sel % 5)
			if d == 0 {
				return nil
			}
			if zero {
				if d == 1 {
					return make(simulate.Vec, p.Words())
				}
				d--
			}
			v := randomVec(p, rng, d-1)
			if sel&0x80 != 0 {
				setTail(p, v)
			}
			return v
		}
		masks := make([]simulate.Vec, m)
		for j := 0; j < m && j < len(shape); j++ {
			masks[j] = decode(shape[j], false)
		}
		var devs []simulate.Vec
		for k := m; k < len(shape) && len(devs) < 8; k++ {
			devs = append(devs, decode(shape[k], true))
		}
		for _, kind := range []Kind{NMED, MRED, MaxED} {
			cmp := NewComparator(kind, g, p)
			base := noisyPOs(cmp.ExactPOs(), rng)
			for _, v := range base {
				v[len(v)-1] &= p.LastMask()
			}
			checkTarget(t, cmp, cmp.NewBaseEval(base), masks, devs, fmt.Sprintf("%v, %d patterns, %d outputs", kind, n, m))
		}
	})
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
// one-candidate wrappers and a ScoreTarget call on more candidates
// than one kernel chunk holds allocate nothing, so the estimator can
// call the kernel once per target.
func TestScoreFlipsAllocFree(t *testing.T) {
	g := circuits.ArrayMult(4)
	p := simulate.Random(g.NumPIs(), 1000, 1)
	rng := rand.New(rand.NewSource(9))
	masks := make([]simulate.Vec, g.NumPOs())
	for j := range masks {
		masks[j] = randomVec(p, rng, 2)
	}
	devs := make([]simulate.Vec, targetChunk+3)
	for k := 1; k < len(devs); k++ {
		devs[k] = randomVec(p, rng, k%3)
	}
	out := make([]float64, len(devs))
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
		if a := testing.AllocsPerRun(20, func() { cmp.ScoreTarget(b, masks, devs[:1], out[:1]) }); a != 0 {
			t.Errorf("%v: one-candidate ScoreTarget allocates %v per call, want 0", kind, a)
		}
		if a := testing.AllocsPerRun(20, func() { cmp.ScoreTarget(b, masks, devs, out) }); a != 0 {
			t.Errorf("%v: ScoreTarget on %d candidates allocates %v per call, want 0", kind, len(devs), a)
		}
	}
}
