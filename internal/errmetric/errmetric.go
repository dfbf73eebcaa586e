// Package errmetric computes the statistical error metrics used in the
// AccALS paper: error rate (ER), normalized mean error distance (NMED)
// and mean relative error distance (MRED), plus the maximum error
// distance (MaxED) used by certified synthesis. All metrics are
// evaluated against a fixed pattern set (exhaustive or Monte-Carlo)
// produced by package simulate, matching the paper's assumption of
// uniformly distributed inputs; MaxED over sampled patterns is a lower
// bound on the true worst case, which package maxerr certifies exactly.
//
// Two structural limits apply to every metric's reference circuit,
// enforced by Validate: it must have at least one primary output (a
// zero-output circuit has no defined error and would otherwise divide
// by zero into NaN; rejected with runctl.ErrNoOutputs), and the
// word-level metrics (NMED/MRED/MaxED), which read the outputs as one
// unsigned integer with PO 0 the least significant bit, support at
// most 63 outputs (rejected with runctl.ErrTooManyOutputs).
package errmetric

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"accals/internal/aig"
	"accals/internal/runctl"
	"accals/internal/simulate"
)

// Kind identifies a statistical error metric.
type Kind int

// Supported metrics.
const (
	// ER is the probability that the approximate outputs differ from
	// the exact outputs in at least one bit.
	ER Kind = iota
	// NMED is the mean error distance normalised by the maximum output
	// value 2^m - 1, treating the outputs as an unsigned integer with
	// PO 0 the least significant bit.
	NMED
	// MRED is the mean of |approx - exact| / max(exact, 1).
	MRED
	// MHD is the mean Hamming distance: the average fraction of
	// output bits that differ. Unlike NMED/MRED it applies to
	// circuits of any output width (no binary-number interpretation).
	MHD
	// MaxED is the maximum error distance max |approx - exact| over
	// the pattern set, treating the outputs as an unsigned integer.
	// Unlike the mean metrics it is an absolute (un-normalised)
	// quantity, and a sampled evaluation is only a lower bound on the
	// true worst case — package maxerr certifies the exact bound over
	// an error miter, by exhaustive simulation or a SAT query.
	MaxED
)

// String returns the metric's conventional abbreviation.
func (k Kind) String() string {
	switch k {
	case ER:
		return "ER"
	case NMED:
		return "NMED"
	case MRED:
		return "MRED"
	case MHD:
		return "MHD"
	case MaxED:
		return "MaxED"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind maps a metric name (er, nmed, mred, mhd or maxed, in any
// case) onto its Kind.
func ParseKind(name string) (Kind, error) {
	switch strings.ToLower(name) {
	case "er":
		return ER, nil
	case "nmed":
		return NMED, nil
	case "mred":
		return MRED, nil
	case "mhd":
		return MHD, nil
	case "maxed":
		return MaxED, nil
	}
	return 0, fmt.Errorf("unknown metric %q (want er, nmed, mred, mhd or maxed)", name)
}

// IsWordLevel reports whether the metric interprets the outputs as a
// binary number (true for NMED, MRED and MaxED), limiting the
// reference circuit to 63 outputs.
func (k Kind) IsWordLevel() bool { return k == NMED || k == MRED || k == MaxED }

// Comparator evaluates the error of approximate circuits against a
// fixed reference circuit under a fixed pattern set. Building a
// Comparator simulates the reference once; each Error call simulates
// only the candidate.
//
// A Comparator is immutable after construction: every evaluation
// method (Error, ErrorFromPOs, ErrorFromPOsXor, NewBaseEval and the
// flip scorers) only reads the cached reference state, so a single
// Comparator may be shared by concurrent goroutines — the parallel
// engine relies on this to measure duel candidates simultaneously.
type Comparator struct {
	kind     Kind
	patterns *simulate.Patterns
	numPOs   int
	exactPOs []simulate.Vec
	// exactVals caches the per-pattern exact output value for the
	// word-level metrics.
	exactVals []uint64
	// exactPl holds the exact outputs' bit planes word by word (NMED
	// and MaxED): plane j of word w is exactPl[w*numPOs+j].
	exactPl []uint64
	// maxVal is 2^m - 1 as a float, the NMED normalisation constant.
	maxVal float64
}

// NewComparator simulates the reference graph ref under the pattern set
// and returns a comparator for the chosen metric. For word-level
// metrics the reference must have at most 63 outputs; violations panic
// with an error wrapping runctl.ErrTooManyOutputs (use
// NewComparatorChecked for an error-returning variant).
func NewComparator(kind Kind, ref *aig.Graph, p *simulate.Patterns) *Comparator {
	if err := Validate(kind, ref); err != nil {
		panic(err)
	}
	res := simulate.MustRun(ref, p)
	c := &Comparator{
		kind:     kind,
		patterns: p,
		numPOs:   ref.NumPOs(),
		exactPOs: res.POValues(ref),
	}
	if kind.IsWordLevel() {
		// Exact integer arithmetic: math.Pow(2, 63)-1 rounds to 2^63
		// in float64, which would skew the NMED normalisation by one
		// ULP-boundary at the 63-output limit.
		c.maxVal = float64(uint64(math.MaxUint64) >> uint(64-ref.NumPOs()))
		c.exactVals = extractValues(nil, c.exactPOs, p)
		if kind != MRED {
			c.exactPl = planes(nil, c.exactPOs, p.Words())
		}
	}
	return c
}

// Validate reports whether the reference circuit is usable with the
// metric. Every metric needs at least one output (rejected with an
// error wrapping runctl.ErrNoOutputs: a zero-output circuit has no
// defined error, and the mean metrics would divide by zero into NaN).
// The word-level metrics (NMED/MRED/MaxED) interpret the outputs as
// one unsigned integer and are limited to 63 outputs (the returned
// error wraps runctl.ErrTooManyOutputs).
func Validate(kind Kind, ref *aig.Graph) error {
	if ref.NumPOs() == 0 {
		return fmt.Errorf("errmetric: %v undefined for circuit %q with no outputs: %w", kind, ref.Name, runctl.ErrNoOutputs)
	}
	if kind.IsWordLevel() && ref.NumPOs() > 63 {
		return fmt.Errorf("errmetric: %v limited to 63 outputs, circuit %q has %d: %w", kind, ref.Name, ref.NumPOs(), runctl.ErrTooManyOutputs)
	}
	return nil
}

// ValidateBound reports whether bound is a usable error bound for the
// metric: the mean metrics take a fraction in (0, 1], MaxED an
// absolute non-negative integer error distance. The returned error
// wraps runctl.ErrInvalidBound.
func ValidateBound(kind Kind, bound float64) error {
	if math.IsNaN(bound) {
		return fmt.Errorf("errmetric: %v bound is NaN: %w", kind, runctl.ErrInvalidBound)
	}
	if kind == MaxED {
		if bound < 0 || bound != math.Trunc(bound) || bound > float64(math.MaxUint64>>1) {
			return fmt.Errorf("errmetric: %v bound must be a non-negative integer error distance, got %v: %w", kind, bound, runctl.ErrInvalidBound)
		}
		return nil
	}
	if !(bound > 0 && bound <= 1) {
		return fmt.Errorf("errmetric: %v bound must be in (0, 1], got %v: %w", kind, bound, runctl.ErrInvalidBound)
	}
	return nil
}

// NewComparatorChecked is NewComparator with an error return instead of
// a panic on invalid (kind, reference) combinations.
func NewComparatorChecked(kind Kind, ref *aig.Graph, p *simulate.Patterns) (c *Comparator, err error) {
	defer runctl.Guard(&err)
	if err := Validate(kind, ref); err != nil {
		return nil, err
	}
	return NewComparator(kind, ref, p), nil
}

// Kind returns the metric the comparator evaluates.
func (c *Comparator) Kind() Kind { return c.kind }

// Patterns returns the pattern set the comparator evaluates under.
func (c *Comparator) Patterns() *simulate.Patterns { return c.patterns }

// ExactPOs returns the reference circuit's simulated output vectors.
func (c *Comparator) ExactPOs() []simulate.Vec { return c.exactPOs }

// Error simulates the approximate graph and returns its error with
// respect to the reference. The graph must have the same PI/PO counts
// as the reference.
func (c *Comparator) Error(approx *aig.Graph) float64 {
	if approx.NumPOs() != c.numPOs {
		panic(fmt.Errorf("errmetric: approximate circuit has %d POs, reference has %d: %w", approx.NumPOs(), c.numPOs, runctl.ErrInterfaceMismatch))
	}
	res := simulate.MustRun(approx, c.patterns)
	return c.ErrorFromPOs(res.POValues(approx))
}

// ErrorFromPOs returns the error of the given simulated output vectors
// with respect to the reference.
func (c *Comparator) ErrorFromPOs(approxPOs []simulate.Vec) float64 {
	return c.ErrorFromPOsXor(approxPOs, nil)
}

// ErrorFromPOsXor returns the error of base XOR flip with respect to
// the reference, where flip[j] may be nil to indicate no flipped
// patterns on output j. This is the estimator's fast path: it avoids
// materialising the flipped output vectors.
func (c *Comparator) ErrorFromPOsXor(base, flip []simulate.Vec) float64 {
	n := c.patterns.NumPatterns()
	words := c.patterns.Words()
	if c.kind == MHD {
		// Mean Hamming distance is linear over outputs: sum the
		// per-output diff counts.
		diffBits := 0
		buf := make(simulate.Vec, words)
		for j := 0; j < c.numPOs; j++ {
			e := c.exactPOs[j]
			b := base[j]
			if flip != nil && flip[j] != nil {
				f := flip[j]
				for w := 0; w < words; w++ {
					buf[w] = (b[w] ^ f[w]) ^ e[w]
				}
			} else {
				for w := 0; w < words; w++ {
					buf[w] = b[w] ^ e[w]
				}
			}
			buf[words-1] &= c.patterns.LastMask()
			diffBits += simulate.PopCount(buf)
		}
		return float64(diffBits) / float64(n*c.numPOs)
	}
	if c.kind == ER {
		diffCount := 0
		anyDiff := make(simulate.Vec, words)
		for j := 0; j < c.numPOs; j++ {
			e := c.exactPOs[j]
			b := base[j]
			if flip != nil && flip[j] != nil {
				f := flip[j]
				for w := 0; w < words; w++ {
					anyDiff[w] |= (b[w] ^ f[w]) ^ e[w]
				}
			} else {
				for w := 0; w < words; w++ {
					anyDiff[w] |= b[w] ^ e[w]
				}
			}
		}
		anyDiff[words-1] &= c.patterns.LastMask()
		diffCount = simulate.PopCount(anyDiff)
		return float64(diffCount) / float64(n)
	}

	// Word-level metrics: walk patterns, assembling the approximate
	// output value per pattern. NMED/MRED accumulate a mean; MaxED
	// keeps the largest error distance seen.
	sum := 0.0
	var maxDiff uint64
	row := make([]uint64, c.numPOs)
	for w := 0; w < words; w++ {
		for j := 0; j < c.numPOs; j++ {
			v := base[j][w]
			if flip != nil && flip[j] != nil {
				v ^= flip[j][w]
			}
			row[j] = v
		}
		lim := 64
		if w == words-1 && n&63 != 0 {
			lim = n & 63
		}
		for b := 0; b < lim; b++ {
			var av uint64
			for j := 0; j < c.numPOs; j++ {
				av |= (row[j] >> uint(b) & 1) << uint(j)
			}
			ev := c.exactVals[w<<6+b]
			diff := absDiff(av, ev)
			switch c.kind {
			case NMED:
				sum += float64(diff) / c.maxVal
			case MRED:
				den := float64(ev)
				if den < 1 {
					den = 1
				}
				sum += float64(diff) / den
			case MaxED:
				if diff > maxDiff {
					maxDiff = diff
				}
			}
		}
	}
	if c.kind == MaxED {
		return float64(maxDiff)
	}
	return sum / float64(n)
}

// BaseEval caches the per-pattern values, bit planes and error of one
// approximate circuit, so that many variants of it (one per candidate
// LAC or LAC set) can be scored incrementally: only the patterns an
// output flip touches are re-evaluated.
type BaseEval struct {
	// POs are the base circuit's simulated outputs.
	POs []simulate.Vec
	// Vals are the per-pattern output values (NMED and MRED only: the
	// mean kernels read the base side of every changed pattern from
	// them).
	Vals []uint64
	// Err is the base circuit's error.
	Err float64
	// count is the base's integer error count: its erring patterns (ER)
	// or erring output bits (MHD).
	count int
	// anyDiff holds, per 64-pattern word, the real patterns on which
	// some output differs from the reference (ER, NMED and MRED). Under
	// NMED and MRED they are exactly the patterns whose error term is
	// nonzero.
	anyDiff []uint64
	// contrib caches each pattern's error term (NMED and MRED), and
	// pre[w] the sum of the terms before word w, added in pattern order
	// as ErrorFromPOs adds them.
	contrib, pre []float64
	// wordMax caches, per 64-pattern word, the base circuit's largest
	// error distance (MaxED only): the scoring kernels skip every word a
	// candidate's flips do not touch.
	wordMax []uint64
	// The plane kernel's base state (NMED and MaxED), word by word. With
	// m outputs, plane j of word w sits at w*m+j in pl (the base value)
	// and dist (|base − exact|), and at w*(m+1)+j in borrow (the borrow
	// into plane j of base − exact; plane m is the sign, base < exact)
	// and eqAbove (the patterns on which base and exact agree on every
	// plane >= j; all ones at plane m).
	pl, dist, borrow, eqAbove []uint64
}

// NewBaseEval prepares an incremental evaluator for the given
// simulated outputs.
func (c *Comparator) NewBaseEval(pos []simulate.Vec) *BaseEval {
	b := &BaseEval{}
	c.ResetBaseEval(b, pos)
	return b
}

// ResetBaseEval refills b for the given simulated outputs, reusing b's
// buffers, so a caller that scores one base per round can keep a single
// BaseEval without allocating. b.Err is bit-identical to
// ErrorFromPOs(pos).
func (c *Comparator) ResetBaseEval(b *BaseEval, pos []simulate.Vec) {
	b.POs = pos
	n, words := c.patterns.NumPatterns(), c.patterns.Words()
	switch c.kind {
	case MaxED:
		c.fillPlanes(b)
		m := c.numPOs
		b.wordMax = slices.Grow(b.wordMax[:0], words)[:words]
		var g uint64
		for w := range b.wordMax {
			b.wordMax[w] = maxPlanes(b.dist[w*m:(w+1)*m], c.realLanes(w))
			g = max(g, b.wordMax[w])
		}
		b.Err = float64(g)
		return
	case MHD:
		b.count = 0
		for j, v := range pos {
			for w, x := range c.exactPOs[j] {
				b.count += bits.OnesCount64((v[w] ^ x) & c.realLanes(w))
			}
		}
		b.Err = float64(b.count) / float64(n*c.numPOs)
		return
	}
	b.anyDiff = slices.Grow(b.anyDiff[:0], words)[:words]
	clear(b.anyDiff)
	for j, v := range pos {
		for w, x := range c.exactPOs[j] {
			b.anyDiff[w] |= v[w] ^ x
		}
	}
	b.anyDiff[words-1] &= c.patterns.LastMask()
	if c.kind == ER {
		b.count = 0
		for _, x := range b.anyDiff {
			b.count += bits.OnesCount64(x)
		}
		b.Err = float64(b.count) / float64(n)
		return
	}
	if c.kind == NMED {
		c.fillPlanes(b)
	}
	b.Vals = extractValues(b.Vals, pos, c.patterns)
	b.contrib = slices.Grow(b.contrib[:0], n)[:n]
	clear(b.contrib)
	b.pre = slices.Grow(b.pre[:0], words)[:words]
	// ErrorFromPOs adds every pattern's term in pattern order. A pattern
	// on which the outputs agree adds +0, which leaves the (never
	// negative) sum unchanged, so adding only the nonzero terms in order
	// gives Err bit-identical to it.
	sum := 0.0
	for w, x := range b.anyDiff {
		b.pre[w] = sum
		for ; x != 0; x &= x - 1 {
			pat := w<<6 + bits.TrailingZeros64(x)
			t := c.contribution(b.Vals[pat], c.exactVals[pat])
			b.contrib[pat] = t
			sum += t
		}
	}
	b.Err = sum / float64(n)
}

// fillPlanes computes b's plane kernel state from b.POs: the base
// planes, then per word a ripple-borrow subtraction base − exact, its
// absolute value and the agreement masks from the top plane down.
func (c *Comparator) fillPlanes(b *BaseEval) {
	m, words := c.numPOs, c.patterns.Words()
	b.pl = planes(b.pl, b.POs, words)
	b.dist = slices.Grow(b.dist[:0], words*m)[:words*m]
	b.borrow = slices.Grow(b.borrow[:0], words*(m+1))[:words*(m+1)]
	b.eqAbove = slices.Grow(b.eqAbove[:0], words*(m+1))[:words*(m+1)]
	for w := 0; w < words; w++ {
		base, exact := b.pl[w*m:(w+1)*m], c.exactPl[w*m:(w+1)*m]
		absDiffPlanes(b.dist[w*m:(w+1)*m], b.borrow[w*(m+1):(w+1)*(m+1)], base, exact)
		eq := b.eqAbove[w*(m+1) : (w+1)*(m+1)]
		same := ^uint64(0)
		eq[m] = same
		for j := m - 1; j >= 0; j-- {
			same &^= base[j] ^ exact[j]
			eq[j] = same
		}
	}
}

// absDiffPlanes writes the planes of |x − y| into dist, where x and y
// are unsigned integers given by their m bit planes, by a ripple-borrow
// subtraction x − y. borrow[j] receives the borrow into plane j, and
// borrow[m] the sign (x < y).
func absDiffPlanes(dist, borrow, x, y []uint64) {
	var diff [63]uint64
	var br uint64
	for j, xj := range x {
		yj := y[j]
		borrow[j] = br
		diff[j] = xj ^ yj ^ br
		br = ^xj&yj | ^(xj^yj)&br
	}
	borrow[len(x)] = br
	// Negate diff where x < y, as (diff ^ br) + br.
	carry := br
	for j := range dist {
		v := diff[j] ^ br
		dist[j] = v ^ carry
		carry &= v
	}
}

// absDiff returns |a - b| for unsigned integers.
func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// contribution returns one pattern's error contribution for the
// mean word-level metrics.
func (c *Comparator) contribution(av, ev uint64) float64 {
	diff := absDiff(av, ev)
	switch c.kind {
	case NMED:
		return float64(diff) / c.maxVal
	case MRED:
		den := float64(ev)
		if den < 1 {
			den = 1
		}
		return float64(diff) / den
	}
	return 0
}

// ErrorOnWords returns the error of outputs that equal b.POs except on
// the listed pattern words, given in ascending order: on word words[i],
// output j is pl[i*m+j] for m outputs, with bits past the last pattern
// clear. It is bit-identical to ErrorFromPOs on those outputs and
// touches only the listed words where it can. ER and MHD adjust the
// base's integer count by each listed word's change, and MaxED takes
// the largest of the listed words' maxima and the cached maxima of the
// rest. NMED and MRED must add every pattern's term in pattern order,
// since float addition is not associative: they start from the cached
// sum before the first listed word and add, word by word, the base's
// cached nonzero terms and the changed patterns' new terms. It only
// reads b, so concurrent calls on one BaseEval are safe.
func (c *Comparator) ErrorOnWords(b *BaseEval, words []int, pl []uint64) float64 {
	if len(words) == 0 {
		return b.Err
	}
	m, n := c.numPOs, c.patterns.NumPatterns()
	switch c.kind {
	case ER:
		count := b.count
		for i, w := range words {
			var x uint64
			for j, v := range pl[i*m : (i+1)*m] {
				x |= v ^ c.exactPOs[j][w]
			}
			count += bits.OnesCount64(x&c.realLanes(w)) - bits.OnesCount64(b.anyDiff[w])
		}
		return float64(count) / float64(n)
	case MHD:
		count := b.count
		for i, w := range words {
			lanes := c.realLanes(w)
			for j, v := range pl[i*m : (i+1)*m] {
				e := c.exactPOs[j][w]
				count += bits.OnesCount64((v^e)&lanes) - bits.OnesCount64((b.POs[j][w]^e)&lanes)
			}
		}
		return float64(count) / float64(n*m)
	case MaxED:
		var g uint64
		var dist [63]uint64
		var borrow [64]uint64
		i := 0
		for w, wmax := range b.wordMax {
			if i < len(words) && words[i] == w {
				absDiffPlanes(dist[:m], borrow[:m+1], pl[i*m:(i+1)*m], c.exactPl[w*m:(w+1)*m])
				wmax = maxPlanes(dist[:m], c.realLanes(w))
				i++
			}
			g = max(g, wmax)
		}
		return float64(g)
	}
	sum := b.pre[words[0]]
	var flip [64]uint64
	var term [64]float64
	i := 0
	for w := words[0]; w < len(b.pre); w++ {
		at := b.anyDiff[w]
		contrib := b.contrib[w<<6:]
		if i < len(words) && words[i] == w {
			// flip[k] gathers the outputs that change at lane k; term[k]
			// is lane k's term, the new one where some output changed.
			lanes := c.realLanes(w)
			var changed uint64
			for j, v := range pl[i*m : (i+1)*m] {
				x := (v ^ b.POs[j][w]) & lanes
				changed |= x
				for ; x != 0; x &= x - 1 {
					flip[bits.TrailingZeros64(x)] |= 1 << uint(j)
				}
			}
			vals, exact := b.Vals[w<<6:], c.exactVals[w<<6:]
			for x := changed; x != 0; x &= x - 1 {
				k := bits.TrailingZeros64(x)
				term[k] = c.contribution(vals[k]^flip[k], exact[k])
				flip[k] = 0
			}
			for x := at &^ changed; x != 0; x &= x - 1 {
				k := bits.TrailingZeros64(x)
				term[k] = contrib[k]
			}
			// A zero term leaves the sum unchanged, as in ResetBaseEval.
			for x := at | changed; x != 0; x &= x - 1 {
				sum += term[bits.TrailingZeros64(x)]
			}
			i++
			continue
		}
		for ; at != 0; at &= at - 1 {
			sum += contrib[bits.TrailingZeros64(at)]
		}
	}
	return sum / float64(n)
}

// flipSampleBudget bounds the number of flipped patterns MRED scores
// exactly per candidate; larger flip sets are scored on a strided word
// sample and scaled. The budget is set high enough that every candidate
// is exact at the default pattern counts (sampling can bias the ranking
// of constant LACs, whose flips are many but individually cheap); it
// only engages as a guard on very large Monte-Carlo sample sizes.
const flipSampleBudget = 16384

// targetChunk is the most candidates one kernel pass scores. ScoreTarget
// splits a larger group into chunks, so the per-candidate accumulators
// fit in fixed-size stack arrays.
const targetChunk = 64

// ErrorWithFlips returns the error of base XOR flips (flip[j] may be
// nil), touching only flipped patterns. It must only be used with the
// mean word-level metrics (NMED/MRED): MaxED uses MaxErrorWithFlips.
// The ER estimator has its own batched fast path. It is the
// one-candidate ScoreTarget call without a deviation mask.
func (c *Comparator) ErrorWithFlips(b *BaseEval, flips []simulate.Vec) float64 {
	if c.kind != NMED && c.kind != MRED {
		panic("errmetric: ErrorWithFlips requires a mean word-level metric (NMED/MRED)")
	}
	return c.scoreOne(b, flips)
}

// MaxErrorWithFlips returns the MaxED of base XOR flips (flip[j] may
// be nil). It is the one-candidate ScoreTarget call without a
// deviation mask.
func (c *Comparator) MaxErrorWithFlips(b *BaseEval, flips []simulate.Vec) float64 {
	if c.kind != MaxED {
		panic("errmetric: MaxErrorWithFlips requires the MaxED metric")
	}
	return c.scoreOne(b, flips)
}

// scoreOne scores a single candidate that flips masks[j] on output j.
func (c *Comparator) scoreOne(b *BaseEval, masks []simulate.Vec) float64 {
	var out [1]float64
	c.ScoreTarget(b, masks, []simulate.Vec{nil}, out[:])
	return out[0]
}

// ScoreTarget scores every candidate that shares one target's output
// masks. out[k] receives the word-level error (NMED, MRED or MaxED) of
// the base circuit with output j flipped on the patterns in
// masks[j] & devs[k], where masks[j] may be nil (output j never flips)
// and a nil devs[k] masks nothing; out must be as long as devs. The
// estimator passes a target's propagation masks per output and the
// deviation masks of the candidates on that target, so no
// per-candidate flip vector is ever built. Bits past the last pattern
// are ignored. It allocates nothing and only reads b, masks and devs,
// so concurrent calls on one BaseEval are safe.
//
// NMED and MaxED are scored on the output bit planes, 64 patterns at a
// time. On a pattern where the target's flips are applied (the
// candidate's deviation mask), the new value differs from the base by
// d = new − base, which only the live outputs lo..hi (the lowest and
// highest with a mask) set, and the error distance changes by
// c = |new − exact| − |base − exact|. With t the sign of new − exact
// and s that of base − exact, c = (t ? −d : d) − 2·|base − exact| where
// t ≠ s. Once per word for all of the target's candidates, the kernel
// builds d over planes lo..hi and t from the borrow chain of
// new − exact over the same planes, starting from BaseEval's borrow
// into plane lo; above hi, new agrees with base, so t is s wherever
// base and exact still differ there. NMED sums c over each candidate's
// changed patterns from popcounts of those planes and of the cached
// distance planes, exactly, as an integer, blockWords words at a time:
// it writes each word's planes into rows, one per plane, and counts a
// candidate's patterns one row at a time across the block, shifting
// each row's count once. MaxED takes the bit-sliced maximum, top plane
// first, of |base − exact| + c on the candidate's changed patterns and
// of the base distance on the rest, in the words a candidate touches,
// and each untouched word's cached base maximum. It stays word by
// word: a candidate whose maximum already reaches a word's bound skips
// the word, so what it pays is per-word work that blocks would not
// reduce. MRED divides by a per-pattern denominator with no plane form,
// so it keeps the per-pattern kernel (meanTarget).
func (c *Comparator) ScoreTarget(b *BaseEval, masks, devs []simulate.Vec, out []float64) {
	if !c.kind.IsWordLevel() {
		panic("errmetric: ScoreTarget requires a word-level metric (NMED/MRED/MaxED)")
	}
	// live holds one bit per output that can flip (at most 63 outputs).
	var live uint64
	for j, m := range masks {
		if m != nil {
			live |= 1 << uint(j)
		}
	}
	for k0 := 0; k0 < len(devs); k0 += targetChunk {
		k1 := min(k0+targetChunk, len(devs))
		switch {
		case live == 0:
			for k := k0; k < k1; k++ {
				out[k] = b.Err
			}
		case c.kind == NMED:
			c.nmedTarget(b, masks, devs[k0:k1], out[k0:k1], live)
		case c.kind == MaxED:
			c.maxedTarget(b, masks, devs[k0:k1], out[k0:k1], live)
		default:
			c.meanTarget(b, masks, devs[k0:k1], out[k0:k1], live)
		}
	}
}

// changePlanes writes, for word w of a target whose live outputs span
// lo..hi, planes lo..hi+1 of d' = (t ? −d : d) into cp, plane hi+1 the
// sign (see ScoreTarget; d' is zero below lo). It returns the real
// patterns some output flips, on which alone d' is nonzero, and x, the
// flipped patterns on which the error changes sign from a nonzero base
// distance: c = d' − 2·|base − exact| on x and c = d' elsewhere. On x,
// d' >= |base − exact| > 0. When no real pattern flips, cp is left
// unspecified.
func (c *Comparator) changePlanes(b *BaseEval, masks []simulate.Vec, lo, hi, w int, cp *[64]uint64) (changed, x uint64) {
	m := c.numPOs
	base, exact := b.pl[w*m:(w+1)*m], c.exactPl[w*m:(w+1)*m]
	borrow, eq := b.borrow[w*(m+1):(w+1)*(m+1)], b.eqAbove[w*(m+1):(w+1)*(m+1)]
	// d = new − base with borrow db, and the borrow chain nb of
	// new − exact, which below lo is the base's.
	var db uint64
	nb := borrow[lo]
	for j := lo; j <= hi; j++ {
		var f uint64
		if mj := masks[j]; mj != nil {
			f = mj[w]
		}
		bj, ej := base[j], exact[j]
		nj := bj ^ f
		cp[j] = f ^ db
		db = f&bj | ^f&db
		nb = ^nj&ej | ^(nj^ej)&nb
		changed |= f
	}
	if changed &= c.realLanes(w); changed == 0 {
		return 0, 0
	}
	s := borrow[m]
	t := eq[hi+1]&nb | ^eq[hi+1]&s
	// (d ^ t) + t over planes lo..hi+1, with d's sign at hi+1.
	cp[hi+1] = db
	carry := t
	for j := lo; j <= hi+1; j++ {
		v := cp[j] ^ t
		cp[j] = v ^ carry
		carry &= v
	}
	return changed, (t ^ s) &^ eq[0] & changed
}

// blockWords is the number of pattern words nmedTarget scores at a
// time.
const blockWords = 16

// block is one row of nmedTarget's planes over a block's words.
type block = [blockWords]uint64

// plane names a row of nmedTarget's block: each pattern set in it adds
// (or subtracts) 2^sh to the candidate's increase.
type plane struct {
	row, sh uint8
}

// nmedTarget is ScoreTarget for NMED on at most targetChunk candidates,
// blockWords pattern words at a time. For each word of a block it calls
// changePlanes and writes the planes of c into rows, masked to the
// changed patterns: planes lo..hi+1 of d' at rows 0..hi−lo+1, then the
// distance planes 0..hi on x. Words past the last pattern word are zero
// in every row. It lists the nonempty rows whose patterns add to c
// (those of d' below its sign) and those whose patterns subtract from
// it (the sign of d', and 2·|base − exact| on x). Each candidate then
// counts each listed row's patterns under its deviation mask across
// the block, and shifts the count once. Candidate k's increase Δ_k, the
// sum of c over its changed patterns, is the exact integer
// acc[k][1]·2^32 + acc[k][0]: planes below 32 add into acc[k][0], the
// others, scaled by 2^-32, into acc[k][1]. One word changes either by
// less than 2^38, so one block changes it by less than 2^42, and
// neither overflows below 2^25 words (2^31 patterns). Its error is
// b.Err + Δ_k/maxVal/n, with Δ_k rounded to float64 once.
func (c *Comparator) nmedTarget(b *BaseEval, masks, devs []simulate.Vec, out []float64, live uint64) {
	lo, hi := bits.TrailingZeros64(live), 63-bits.LeadingZeros64(live)
	m, words := c.numPOs, c.patterns.Words()
	var acc [targetChunk][2]int64
	var cp [64]uint64
	// The rows of d' come first, nd of them, then those of the distance.
	nd := hi - lo + 2
	var rows [2 * 64]block
	// add and sub list a block's nonempty rows in ascending shift order;
	// the first nAdd and nSub of them weigh less than 2^32.
	var add, sub [2 * 64]plane
	// ones is the deviation block of a nil mask, and part holds a mask's
	// words in a last, partial block.
	var ones, part block
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	for w0 := 0; w0 < words; w0 += blockWords {
		nw := min(blockWords, words-w0)
		var anyChanged, anyX uint64
		for i := 0; i < nw; i++ {
			w := w0 + i
			changed, x := c.changePlanes(b, masks, lo, hi, w, &cp)
			anyChanged |= changed
			anyX |= x
			for j := lo; j <= hi+1; j++ {
				rows[j-lo][i] = cp[j] & changed
			}
			for j, a := range b.dist[w*m : w*m+hi+1] {
				rows[nd+j][i] = a & x
			}
		}
		if nw < blockWords {
			for r := range rows[:nd+hi+1] {
				clear(rows[r][nw:])
			}
		}
		if anyChanged == 0 {
			continue
		}
		na, ns := 0, 0
		for j := lo; j <= hi; j++ {
			if nonzero(&rows[j-lo]) {
				add[na] = plane{uint8(j - lo), uint8(j)}
				na++
			}
		}
		// The distance's plane j weighs 2^(j+1), the sign of d' 2^(hi+1).
		if anyX != 0 {
			for j := 0; j <= hi; j++ {
				if nonzero(&rows[nd+j]) {
					sub[ns] = plane{uint8(nd + j), uint8(j + 1)}
					ns++
				}
			}
		}
		if nonzero(&rows[nd-1]) {
			sub[ns] = plane{uint8(nd - 1), uint8(hi + 1)}
			ns++
		}
		nAdd, nSub := na, ns
		for nAdd > 0 && add[nAdd-1].sh >= 32 {
			nAdd--
		}
		for nSub > 0 && sub[nSub-1].sh >= 32 {
			nSub--
		}
		for k, dv := range devs {
			d := &ones
			switch {
			case dv == nil:
			case nw == blockWords:
				d = (*block)(dv[w0 : w0+blockWords])
			default:
				d = &part
				copy(d[:], dv[w0:])
			}
			acc[k][0] += planeSum(&rows, add[:nAdd], d) - planeSum(&rows, sub[:nSub], d)
			acc[k][1] += planeSum(&rows, add[nAdd:na], d) - planeSum(&rows, sub[nSub:ns], d)
		}
	}
	n := float64(c.patterns.NumPatterns())
	for k := range devs {
		l, h := acc[k][0], acc[k][1]
		lo64, carry := bits.Add64(uint64(h)<<32, uint64(l), 0)
		delta := int128Float(h>>32+l>>63+int64(carry), lo64)
		out[k] = b.Err + delta/c.maxVal/n
	}
}

// maxedTarget is ScoreTarget for MaxED on at most targetChunk
// candidates. A touched word builds the new distance |base − exact| + c
// in nd once, as (dist ^ x) + d' + x with d' sign-extended above plane
// hi+1; a candidate whose running maximum already reaches the word's
// bound (the largest new distance on any changed pattern and the base
// maximum) skips it.
func (c *Comparator) maxedTarget(b *BaseEval, masks, devs []simulate.Vec, out []float64, live uint64) {
	lo, hi := bits.TrailingZeros64(live), 63-bits.LeadingZeros64(live)
	m := c.numPOs
	var g [targetChunk]uint64
	var cp, nd [64]uint64
	for w, wmax := range b.wordMax {
		changed, x := c.changePlanes(b, masks, lo, hi, w, &cp)
		if changed == 0 {
			for k := range devs {
				g[k] = max(g[k], wmax)
			}
			continue
		}
		dist := b.dist[w*m : (w+1)*m]
		copy(nd[:m], dist)
		first := lo
		if x != 0 {
			first = 0
		}
		carry := x
		for j := first; j < m; j++ {
			var d uint64
			if j >= lo {
				d = cp[min(j, hi+1)]
			}
			a := dist[j] ^ x
			nd[j] = a ^ d ^ carry
			carry = a&d | carry&(a^d)
			// Above hi, dist is zero on x and d is d's sign, zero on
			// x: once the carry is x ^ sign on every pattern, the rest
			// of nd is the base distance.
			if j > hi && carry == d^x {
				break
			}
		}
		bound := max(maxPlanes(nd[:m], changed), wmax)
		for k, dv := range devs {
			mk := changed & devWord(dv, w)
			switch {
			case mk == 0:
				g[k] = max(g[k], wmax)
			case g[k] < bound:
				lanes, v := c.realLanes(w), uint64(0)
				for j := m - 1; j >= 0; j-- {
					if x := lanes & (nd[j]&mk | dist[j]&^mk); x != 0 {
						v |= 1 << uint(j)
						lanes = x
					}
				}
				g[k] = max(g[k], v)
			}
		}
	}
	for k := range devs {
		out[k] = float64(g[k])
	}
}

// meanTarget is ScoreTarget for MRED on at most targetChunk candidates,
// pattern by pattern. It scatters the target's flipped output bits into
// a 64-entry per-pattern flip array once per word, restricted to the
// union of the candidates' deviation masks, and computes each changed
// pattern's term contribution(new) − contribution(base) once, reading
// the base side from BaseEval. Each candidate then adds the terms of
// its own changed patterns in ascending order, so its score is the one
// a per-candidate pass would compute, float operation for float
// operation. A candidate with more than flipSampleBudget changed
// patterns is scored on a strided word sample.
func (c *Comparator) meanTarget(b *BaseEval, masks, devs []simulate.Vec, out []float64, live uint64) {
	n := c.patterns.NumPatterns()
	words := c.patterns.Words()
	// Candidate k visits the words 0, stride[k], 2*stride[k], ..., the
	// next of them being next[k]. Its changed-pattern count decides the
	// stride. The count can exceed the budget only on pattern sets
	// larger than the budget; smaller sets count it during the scoring
	// pass itself.
	var total, stride, next, sampled [targetChunk]int
	var delta [targetChunk]float64
	for k := range devs {
		stride[k] = 1
	}
	counted := n > flipSampleBudget
	if counted {
		for w := 0; w < words; w++ {
			var flips uint64
			for l := live; l != 0; l &= l - 1 {
				flips |= masks[bits.TrailingZeros64(l)][w]
			}
			if w == words-1 {
				flips &= c.patterns.LastMask()
			}
			for k, dv := range devs {
				total[k] += bits.OnesCount64(flips & devWord(dv, w))
			}
		}
		for k := range devs {
			if total[k] > flipSampleBudget {
				stride[k] = (total[k] + flipSampleBudget - 1) / flipSampleBudget
			}
		}
	}
	var flip [64]uint64
	var term [64]float64
	for w := 0; w < words; w++ {
		var sel uint64
		for k, dv := range devs {
			if next[k] == w {
				sel |= devWord(dv, w)
			}
		}
		changed := c.scatter(&flip, masks, live, sel, w)
		for x := changed; x != 0; x &= x - 1 {
			i := bits.TrailingZeros64(x)
			pat := w<<6 + i
			term[i] = c.contribution(b.Vals[pat]^flip[i], c.exactVals[pat]) - b.contrib[pat]
			flip[i] = 0
		}
		for k, dv := range devs {
			if next[k] != w {
				continue
			}
			next[k] += stride[k]
			m := changed & devWord(dv, w)
			sampled[k] += bits.OnesCount64(m)
			d := delta[k]
			for ; m != 0; m &= m - 1 {
				d += term[bits.TrailingZeros64(m)]
			}
			delta[k] = d
		}
	}
	for k := range devs {
		if sampled[k] == 0 {
			out[k] = b.Err
			continue
		}
		t := sampled[k]
		if counted {
			t = total[k]
		}
		d := delta[k] * (float64(t) / float64(sampled[k]))
		out[k] = b.Err + d/float64(n)
	}
}

// nonzero reports whether any word of row is set.
func nonzero(r *block) bool {
	return r[0]|r[1]|r[2]|r[3]|r[4]|r[5]|r[6]|r[7]|
		r[8]|r[9]|r[10]|r[11]|r[12]|r[13]|r[14]|r[15] != 0
}

// planeSum returns the sum, over the planes p in ps, of the number of
// patterns set in both rows[p.row] and d, shifted left by p.sh mod 32.
// The count is written out word by word: in a loop, the popcount's
// fallback call would keep the running count on the stack.
func planeSum(rows *[2 * 64]block, ps []plane, d *block) int64 {
	var sum int64
	for _, p := range ps {
		r := &rows[p.row]
		n := bits.OnesCount64(r[0]&d[0]) + bits.OnesCount64(r[1]&d[1]) +
			bits.OnesCount64(r[2]&d[2]) + bits.OnesCount64(r[3]&d[3]) +
			bits.OnesCount64(r[4]&d[4]) + bits.OnesCount64(r[5]&d[5]) +
			bits.OnesCount64(r[6]&d[6]) + bits.OnesCount64(r[7]&d[7]) +
			bits.OnesCount64(r[8]&d[8]) + bits.OnesCount64(r[9]&d[9]) +
			bits.OnesCount64(r[10]&d[10]) + bits.OnesCount64(r[11]&d[11]) +
			bits.OnesCount64(r[12]&d[12]) + bits.OnesCount64(r[13]&d[13]) +
			bits.OnesCount64(r[14]&d[14]) + bits.OnesCount64(r[15]&d[15])
		sum += int64(n) << (p.sh & 31)
	}
	return sum
}

// devWord returns word w of a deviation mask, all ones for a nil mask.
func devWord(dv simulate.Vec, w int) uint64 {
	if dv == nil {
		return ^uint64(0)
	}
	return dv[w]
}

// scatter returns the mask of word w's patterns in sel on which some
// live output flips: the union over live outputs j of masks[j][w] &
// sel, restricted to real patterns. It also ORs 1<<j into flip[i] for
// every output j that flips at bit i; callers clear each entry they
// read, so flip is all zero between words.
func (c *Comparator) scatter(flip *[64]uint64, masks []simulate.Vec, live, sel uint64, w int) uint64 {
	if w == c.patterns.Words()-1 {
		sel &= c.patterns.LastMask()
	}
	if sel == 0 {
		return 0
	}
	var changed uint64
	for l := live; l != 0; l &= l - 1 {
		j := bits.TrailingZeros64(l)
		x := masks[j][w] & sel
		changed |= x
		for ; x != 0; x &= x - 1 {
			flip[bits.TrailingZeros64(x)] |= 1 << uint(j)
		}
	}
	return changed
}

// realLanes returns the mask of word w's real patterns.
func (c *Comparator) realLanes(w int) uint64 {
	if w == c.patterns.Words()-1 {
		return c.patterns.LastMask()
	}
	return ^uint64(0)
}

// maxPlanes returns the largest value, over the patterns in lanes, of
// the unsigned integer whose plane j is planes[j]; 0 for no patterns.
// It decides one bit per plane, top plane first, keeping the patterns
// that reach the maximum so far.
func maxPlanes(planes []uint64, lanes uint64) uint64 {
	var g uint64
	for j := len(planes) - 1; j >= 0; j-- {
		if x := lanes & planes[j]; x != 0 {
			g |= 1 << uint(j)
			lanes = x
		}
	}
	return g
}

// int128Float returns the float64 nearest to the two's-complement
// integer hi·2^64 + lo, ties to even.
func int128Float(hi int64, lo uint64) float64 {
	if hi == int64(lo)>>63 {
		return float64(int64(lo))
	}
	uh, ul := uint64(hi), lo
	if hi < 0 {
		var borrow uint64
		ul, borrow = bits.Sub64(0, ul, 0)
		uh, _ = bits.Sub64(0, uh, borrow)
	}
	f := float64(ul)
	if uh != 0 {
		// Keep the top 64 significant bits, with the rest folded into a
		// sticky bit, so the one rounding to 53 bits is the true one.
		sh := uint(64 - bits.LeadingZeros64(uh))
		top := uh<<(64-sh) | ul>>sh
		if ul<<(64-sh) != 0 {
			top |= 1
		}
		f = math.Ldexp(float64(top), int(sh))
	}
	if hi < 0 {
		return -f
	}
	return f
}

// planes returns the output vectors pos transposed word by word, plane
// j of word w at w*len(pos)+j, reusing dst.
func planes(dst []uint64, pos []simulate.Vec, words int) []uint64 {
	m := len(pos)
	dst = slices.Grow(dst[:0], words*m)[:words*m]
	for j, v := range pos {
		for w := 0; w < words; w++ {
			dst[w*m+j] = v[w]
		}
	}
	return dst
}

// extractValues converts packed PO vectors into one unsigned integer
// per pattern (PO 0 = least significant bit), reusing dst.
func extractValues(dst []uint64, pos []simulate.Vec, p *simulate.Patterns) []uint64 {
	n := p.NumPatterns()
	vals := slices.Grow(dst[:0], n)[:n]
	clear(vals)
	for j, v := range pos {
		for w := range p.Words() {
			x := v[w]
			if w == p.Words()-1 {
				x &= p.LastMask()
			}
			for ; x != 0; x &= x - 1 {
				vals[w<<6+bits.TrailingZeros64(x)] |= 1 << uint(j)
			}
		}
	}
	return vals
}
