// Package simulate provides 64-way bit-parallel logic simulation of
// AND-inverter graphs. A set of input patterns is packed one bit per
// pattern into uint64 words; a single sweep over the graph evaluates
// all patterns simultaneously.
//
// For circuits with few inputs the pattern set can be exhaustive, in
// which case every statistical error metric computed from it is exact.
// Otherwise a seeded Monte-Carlo sample approximates the uniform input
// distribution assumed by the paper's experiments.
package simulate

import (
	"fmt"
	"math/bits"
	"math/rand"

	"accals/internal/aig"
	"accals/internal/runctl"
)

// Vec holds bit-parallel signal values, one bit per pattern.
type Vec []uint64

// Patterns is a fixed set of input patterns for a circuit with a given
// number of primary inputs.
type Patterns struct {
	numPIs      int
	numPatterns int
	words       int
	lastMask    uint64
	piValues    []Vec // indexed by PI position
}

// ExhaustiveLimit is the largest PI count for which NewPatterns will
// ever generate exhaustive patterns.
const ExhaustiveLimit = 16

// NewPatterns builds a pattern set for nPIs inputs: exhaustive when
// the full input space (2^nPIs patterns) fits within the nRandom
// sample budget, otherwise nRandom seeded random patterns. Exhaustive
// sets make every error metric exact; random sets are the standard
// Monte-Carlo estimate used by simulation-based ALS flows.
func NewPatterns(nPIs, nRandom int, seed int64) *Patterns {
	if nPIs <= ExhaustiveLimit && 1<<uint(nPIs) <= nRandom {
		return Exhaustive(nPIs)
	}
	return Random(nPIs, nRandom, seed)
}

// Exhaustive returns all 2^nPIs patterns. nPIs must be at most 20 to
// keep memory bounded; use Random beyond that.
func Exhaustive(nPIs int) *Patterns {
	if nPIs > 20 {
		panic(fmt.Errorf("simulate: exhaustive pattern set limited to 20 inputs, got %d: %w", nPIs, runctl.ErrTooManyInputs))
	}
	return ExhaustiveRange(nPIs, 0, 1<<nPIs)
}

// lowPIWords[i] is the packed value of PI i < 6 over any 64 consecutive
// patterns of the exhaustive enumeration that start at a multiple of 64.
var lowPIWords = [6]uint64{
	0xaaaaaaaaaaaaaaaa, 0xcccccccccccccccc, 0xf0f0f0f0f0f0f0f0,
	0xff00ff00ff00ff00, 0xffff0000ffff0000, 0xffffffff00000000,
}

// ExhaustiveRange returns n consecutive patterns of the exhaustive
// enumeration of nPIs inputs, starting at pattern first: pattern k of
// the result is the input assignment first+k, in which PI i is bit i.
// Sweeping first over 0, n, 2n, ... visits all 2^nPIs assignments
// while holding only n of them at a time. first must be a multiple of
// 64 and the range must lie within [0, 2^nPIs).
func ExhaustiveRange(nPIs, first, n int) *Patterns {
	if first < 0 || first&63 != 0 || n < 1 || first+n > 1<<uint(nPIs) {
		panic(fmt.Errorf("simulate: exhaustive range [%d, %d) of %d inputs is not word-aligned within 2^%d", first, first+n, nPIs, nPIs))
	}
	p := newPatterns(nPIs, n)
	for pi := 0; pi < nPIs; pi++ {
		v := p.piValues[pi]
		for w := range v {
			if pi < len(lowPIWords) {
				v[w] = lowPIWords[pi]
			} else if (first+w<<6)>>uint(pi)&1 != 0 {
				v[w] = ^uint64(0)
			}
		}
		v[len(v)-1] &= p.lastMask
	}
	return p
}

// Random returns nPatterns uniformly random patterns drawn from a
// deterministic source seeded with seed.
func Random(nPIs, nPatterns int, seed int64) *Patterns {
	if nPatterns < 1 {
		nPatterns = 1
	}
	p := newPatterns(nPIs, nPatterns)
	rng := rand.New(rand.NewSource(seed))
	for pi := 0; pi < nPIs; pi++ {
		v := p.piValues[pi]
		for w := range v {
			v[w] = rng.Uint64()
		}
		v[len(v)-1] &= p.lastMask
	}
	return p
}

// Biased returns nPatterns random patterns where input i is 1 with
// probability probs[i] (a probability of 0.5 matches Random). This
// realises the paper's claim that the flow handles any input
// distribution: error metrics and LAC selection are then taken with
// respect to the biased distribution.
func Biased(nPIs int, probs []float64, nPatterns int, seed int64) *Patterns {
	if len(probs) != nPIs {
		panic(fmt.Errorf("simulate: probability vector length %d does not match %d inputs: %w", len(probs), nPIs, runctl.ErrInterfaceMismatch))
	}
	if nPatterns < 1 {
		nPatterns = 1
	}
	p := newPatterns(nPIs, nPatterns)
	rng := rand.New(rand.NewSource(seed))
	// Draw pattern-major so one input's bias does not consume the
	// generator stream of another.
	for pat := 0; pat < nPatterns; pat++ {
		for pi := 0; pi < nPIs; pi++ {
			if rng.Float64() < probs[pi] {
				p.piValues[pi][pat>>6] |= 1 << (uint(pat) & 63)
			}
		}
	}
	return p
}

// Explicit builds a pattern set from explicit input vectors:
// vectors[k][i] is the value of PI i in pattern k. Useful for
// directed tests and tools that replay recorded stimuli.
func Explicit(nPIs int, vectors [][]bool) *Patterns {
	p := newPatterns(nPIs, len(vectors))
	for pat, vec := range vectors {
		if len(vec) != nPIs {
			panic(fmt.Errorf("simulate: vector width %d does not match %d inputs: %w", len(vec), nPIs, runctl.ErrInterfaceMismatch))
		}
		for pi, v := range vec {
			if v {
				p.piValues[pi][pat>>6] |= 1 << (uint(pat) & 63)
			}
		}
	}
	return p
}

// FromWords builds a pattern set from packed 64-pattern words, one row
// per primary input, in the layout PIValue returns. Rows are copied;
// tail bits beyond nPatterns are masked off defensively.
func FromWords(nPIs, nPatterns int, rows [][]uint64) (*Patterns, error) {
	if nPIs < 0 || nPatterns < 1 {
		return nil, fmt.Errorf("simulate: pattern set %d x %d: %w", nPIs, nPatterns, runctl.ErrInterfaceMismatch)
	}
	p := newPatterns(nPIs, nPatterns)
	if len(rows) != nPIs {
		return nil, fmt.Errorf("simulate: %d rows for %d inputs: %w", len(rows), nPIs, runctl.ErrInterfaceMismatch)
	}
	for i, row := range rows {
		if len(row) != p.words {
			return nil, fmt.Errorf("simulate: row %d has %d words, want %d: %w", i, len(row), p.words, runctl.ErrInterfaceMismatch)
		}
		copy(p.piValues[i], row)
		p.piValues[i][p.words-1] &= p.lastMask
	}
	return p, nil
}

func newPatterns(nPIs, nPatterns int) *Patterns {
	words := (nPatterns + 63) / 64
	mask := ^uint64(0)
	if r := nPatterns & 63; r != 0 {
		mask = (1 << uint(r)) - 1
	}
	p := &Patterns{
		numPIs:      nPIs,
		numPatterns: nPatterns,
		words:       words,
		lastMask:    mask,
		piValues:    make([]Vec, nPIs),
	}
	for i := range p.piValues {
		p.piValues[i] = make(Vec, words)
	}
	return p
}

// NumPatterns returns the number of patterns in the set.
func (p *Patterns) NumPatterns() int { return p.numPatterns }

// NumPIs returns the input count the patterns were generated for.
func (p *Patterns) NumPIs() int { return p.numPIs }

// Words returns the number of 64-bit words per signal vector.
func (p *Patterns) Words() int { return p.words }

// LastMask returns the validity mask for the final word.
func (p *Patterns) LastMask() uint64 { return p.lastMask }

// PIValue returns the packed values of the i-th primary input.
func (p *Patterns) PIValue(i int) Vec { return p.piValues[i] }

// Result holds the simulated values of every node of a graph under a
// pattern set.
type Result struct {
	Patterns *Patterns
	NodeVals []Vec // indexed by node id; nil for unsimulated kinds

	// slab is the pooled backing array of every AND vector when the
	// result was produced by a Runner; Runner.Release recycles it.
	slab []uint64
}

// Run simulates g under the pattern set and returns per-node values.
// The graph's PI count must match the pattern set; a mismatch is
// reported as an error wrapping runctl.ErrInterfaceMismatch (callers
// that construct the patterns from the same graph can use MustRun).
func Run(g *aig.Graph, p *Patterns) (*Result, error) {
	if g.NumPIs() != p.numPIs {
		return nil, fmt.Errorf("simulate: circuit has %d PIs but patterns were built for %d: %w", g.NumPIs(), p.numPIs, runctl.ErrInterfaceMismatch)
	}
	vals := make([]Vec, g.NumNodes())
	vals[0] = make(Vec, p.words) // constant false: all zeros
	for i, id := range g.PIs() {
		vals[id] = p.piValues[i]
	}
	for id := 0; id < g.NumNodes(); id++ {
		n := g.NodeAt(id)
		if n.Kind != aig.KindAnd {
			continue
		}
		v := make(Vec, p.words)
		a := vals[n.Fanin0.Node()]
		b := vals[n.Fanin1.Node()]
		ac, bc := n.Fanin0.IsCompl(), n.Fanin1.IsCompl()
		switch {
		case !ac && !bc:
			for w := range v {
				v[w] = a[w] & b[w]
			}
		case ac && !bc:
			for w := range v {
				v[w] = ^a[w] & b[w]
			}
		case !ac && bc:
			for w := range v {
				v[w] = a[w] & ^b[w]
			}
		default:
			for w := range v {
				v[w] = ^(a[w] | b[w])
			}
		}
		v[len(v)-1] &= p.lastMask
		vals[id] = v
	}
	return &Result{Patterns: p, NodeVals: vals}, nil
}

// MustRun is Run for call sites whose pattern set was built from the
// same graph, where a PI-count mismatch is a programming error: it
// panics (wrapping runctl.ErrInterfaceMismatch) instead of returning
// an error. Public API boundaries convert that panic into a typed
// error via runctl.Guard.
func MustRun(g *aig.Graph, p *Patterns) *Result {
	r, err := Run(g, p)
	if err != nil {
		panic(err)
	}
	return r
}

// LitValue returns the packed values of literal l, allocating a new
// vector when the literal is complemented.
func (r *Result) LitValue(l aig.Lit) Vec {
	v := r.NodeVals[l.Node()]
	if !l.IsCompl() {
		return v
	}
	out := make(Vec, len(v))
	for w := range v {
		out[w] = ^v[w]
	}
	out[len(out)-1] &= r.Patterns.lastMask
	return out
}

// POValues returns the packed values of every primary output of g.
func (r *Result) POValues(g *aig.Graph) []Vec {
	out := make([]Vec, g.NumPOs())
	for i, l := range g.POs() {
		out[i] = r.LitValue(l)
	}
	return out
}

// PopCount returns the number of set bits in v.
func PopCount(v Vec) int {
	c := 0
	for _, w := range v {
		c += bits.OnesCount64(w)
	}
	return c
}

// Bit reports whether pattern pat is set in v.
func Bit(v Vec, pat int) bool {
	return v[pat>>6]&(1<<(uint(pat)&63)) != 0
}
