// Package lac defines local approximate changes (LACs) and their
// candidate generation. A LAC L(S_n, n) replaces a target node (TN) n
// by a new function over a set of substitute nodes (SNs), following the
// paper's unified view of SASIMI [7] and ALSRAC [9] changes:
//
//   - constant LACs replace n by 0 or 1 (no SNs);
//   - wire LACs (SASIMI) replace n by an existing signal or its
//     negation (one SN);
//   - resubstitution LACs (ALSRAC) replace n by a two-input function
//     of existing signals (two SNs).
//
// Substitute nodes are always strictly earlier than the target node in
// the graph's topological order, which guarantees that any set of
// simultaneously applied LACs yields an acyclic circuit.
package lac

import (
	"fmt"

	"accals/internal/aig"
	"accals/internal/simulate"
)

// FnKind identifies the replacement function of a LAC.
type FnKind uint8

// Replacement function kinds.
const (
	FnConst0 FnKind = iota
	FnConst1
	FnWire // SNs[0], optionally complemented
	FnAnd  // AND of (possibly complemented) SNs, optionally complemented output
	FnXor  // XOR of SNs, optionally complemented output
	FnMux  // SNs[0] ? SNs[1] : SNs[2] (three SNs)
	FnMaj  // majority of three SNs
)

// Fn describes the replacement function applied to the SNs. C0, C1
// and C2 complement the SN inputs; OutC complements the function
// output. OR and NAND/NOR variants are expressed through FnAnd with
// input/output complements.
type Fn struct {
	Kind FnKind
	C0   bool
	C1   bool
	C2   bool
	OutC bool
}

// String renders the function in a compact algebraic form.
func (f Fn) String() string {
	neg := func(c bool, s string) string {
		if c {
			return "!" + s
		}
		return s
	}
	var body string
	switch f.Kind {
	case FnConst0:
		return "0"
	case FnConst1:
		return "1"
	case FnWire:
		body = neg(f.C0, "a")
	case FnAnd:
		body = fmt.Sprintf("%s&%s", neg(f.C0, "a"), neg(f.C1, "b"))
	case FnXor:
		body = fmt.Sprintf("%s^%s", neg(f.C0, "a"), neg(f.C1, "b"))
	case FnMux:
		body = fmt.Sprintf("%s?%s:%s", neg(f.C0, "a"), neg(f.C1, "b"), neg(f.C2, "c"))
	case FnMaj:
		body = fmt.Sprintf("maj(%s,%s,%s)", neg(f.C0, "a"), neg(f.C1, "b"), neg(f.C2, "c"))
	}
	return neg(f.OutC, "("+body+")")
}

// LAC is a single local approximate change: replace node Target with
// Fn over SNs. Gain is the estimated AIG-node saving of applying the
// LAC alone (MFFC of the target minus nodes added). DeltaE is the
// estimated error increase filled in by the estimator.
type LAC struct {
	Target int
	SNs    []int
	Fn     Fn
	Gain   int
	DeltaE float64
}

// String renders the LAC in the paper's L({SNs}, TN) notation.
func (l *LAC) String() string {
	return fmt.Sprintf("L(%v, %d; fn=%v, gain=%d, dE=%.3g)", l.SNs, l.Target, l.Fn, l.Gain, l.DeltaE)
}

// Replace returns the rebuild callback that constructs the LAC's
// replacement literal in a new graph.
func (l *LAC) Replace() aig.ReplaceFunc {
	fn := l.Fn
	sns := l.SNs
	return func(g *aig.Graph, copyOf func(int) aig.Lit) aig.Lit {
		switch fn.Kind {
		case FnConst0:
			return aig.ConstFalse
		case FnConst1:
			return aig.ConstTrue
		case FnWire:
			return copyOf(sns[0]).NotIf(fn.C0).NotIf(fn.OutC)
		case FnAnd:
			a := copyOf(sns[0]).NotIf(fn.C0)
			b := copyOf(sns[1]).NotIf(fn.C1)
			return g.And(a, b).NotIf(fn.OutC)
		case FnXor:
			a := copyOf(sns[0]).NotIf(fn.C0)
			b := copyOf(sns[1]).NotIf(fn.C1)
			return g.Xor(a, b).NotIf(fn.OutC)
		case FnMux:
			s := copyOf(sns[0]).NotIf(fn.C0)
			t := copyOf(sns[1]).NotIf(fn.C1)
			e := copyOf(sns[2]).NotIf(fn.C2)
			return g.Mux(s, t, e).NotIf(fn.OutC)
		case FnMaj:
			a := copyOf(sns[0]).NotIf(fn.C0)
			b := copyOf(sns[1]).NotIf(fn.C1)
			c := copyOf(sns[2]).NotIf(fn.C2)
			return g.Maj3(a, b, c).NotIf(fn.OutC)
		}
		panic("lac: unknown function kind")
	}
}

// NewValue computes the bit-parallel values the target node would take
// after the LAC, from the simulated values of the current graph.
func (l *LAC) NewValue(res *simulate.Result) simulate.Vec {
	out := make(simulate.Vec, res.Patterns.Words())
	l.NewValueInto(out, res)
	return out
}

// NewValueInto is NewValue writing into dst (length must equal the
// pattern word count), for callers reusing scratch vectors across
// candidates. Returns dst.
func (l *LAC) NewValueInto(dst simulate.Vec, res *simulate.Result) simulate.Vec {
	return l.NewValueAt(dst, res.Patterns.LastMask(), func(id int) simulate.Vec { return res.NodeVals[id] })
}

// NewValueAt computes the post-LAC target values into dst, reading SN
// values through val. The indirection lets multi-LAC resimulation feed
// overlay values: when one LAC's SN lies in the fanout cone of another
// applied target, the replacement must be evaluated on the already-
// overlaid values, matching what Rebuild produces. mask is the
// pattern set's final-word validity mask. Returns dst.
//
// The function kind is switched on once, outside the word loop, and
// each complement flag becomes an XOR mask, so every kind runs one
// branch-free loop.
func (l *LAC) NewValueAt(dst simulate.Vec, mask uint64, val func(int) simulate.Vec) simulate.Vec {
	f := l.Fn
	c0, c1, c2, out := complMask(f.C0), complMask(f.C1), complMask(f.C2), complMask(f.OutC)
	switch f.Kind {
	case FnConst0:
		clear(dst)
	case FnConst1:
		for w := range dst {
			dst[w] = ^uint64(0)
		}
	case FnWire:
		a := val(l.SNs[0])[:len(dst)]
		for w, x := range a {
			dst[w] = x ^ c0 ^ out
		}
	case FnAnd:
		a, b := val(l.SNs[0])[:len(dst)], val(l.SNs[1])[:len(dst)]
		for w, x := range a {
			dst[w] = (x^c0)&(b[w]^c1) ^ out
		}
	case FnXor:
		a, b := val(l.SNs[0])[:len(dst)], val(l.SNs[1])[:len(dst)]
		k := c0 ^ c1 ^ out
		for w, x := range a {
			dst[w] = x ^ b[w] ^ k
		}
	case FnMux:
		a, b, c := val(l.SNs[0])[:len(dst)], val(l.SNs[1])[:len(dst)], val(l.SNs[2])[:len(dst)]
		for w, x := range a {
			s := x ^ c0
			dst[w] = (s&(b[w]^c1) | ^s&(c[w]^c2)) ^ out
		}
	case FnMaj:
		a, b, c := val(l.SNs[0])[:len(dst)], val(l.SNs[1])[:len(dst)], val(l.SNs[2])[:len(dst)]
		for w, x := range a {
			p, q, r := x^c0, b[w]^c1, c[w]^c2
			dst[w] = (p&q | p&r | q&r) ^ out
		}
	}
	dst[len(dst)-1] &= mask
	return dst
}

// complMask returns the XOR mask of a complement flag: all ones when
// set.
func complMask(c bool) uint64 {
	if c {
		return ^uint64(0)
	}
	return 0
}

// fnEval evaluates a two-input function word-wise.
func fnEval(f Fn, a, b uint64) uint64 {
	if f.C0 {
		a = ^a
	}
	if f.C1 {
		b = ^b
	}
	var v uint64
	switch f.Kind {
	case FnAnd:
		v = a & b
	case FnXor:
		v = a ^ b
	default:
		panic("lac: fnEval on non-binary function")
	}
	if f.OutC {
		v = ^v
	}
	return v
}

// fnEval3 evaluates a three-input function word-wise.
func fnEval3(f Fn, a, b, c uint64) uint64 {
	if f.C0 {
		a = ^a
	}
	if f.C1 {
		b = ^b
	}
	if f.C2 {
		c = ^c
	}
	var v uint64
	switch f.Kind {
	case FnMux:
		v = a&b | ^a&c
	case FnMaj:
		v = a&b | a&c | b&c
	default:
		panic("lac: fnEval3 on non-ternary function")
	}
	if f.OutC {
		v = ^v
	}
	return v
}

// Deviation returns the packed mask of patterns on which the LAC
// changes the target node's value, together with its popcount.
func (l *LAC) Deviation(res *simulate.Result) (simulate.Vec, int) {
	dev := l.DeviationInto(make(simulate.Vec, res.Patterns.Words()), res)
	return dev, simulate.PopCount(dev)
}

// DeviationInto writes Deviation's mask, without its popcount, into dst
// (length must equal the pattern word count), for callers reusing
// scratch vectors across candidates. Returns dst.
func (l *LAC) DeviationInto(dst simulate.Vec, res *simulate.Result) simulate.Vec {
	l.NewValueInto(dst, res)
	cur := res.NodeVals[l.Target]
	for w := range dst {
		dst[w] ^= cur[w]
	}
	dst[len(dst)-1] &= res.Patterns.LastMask()
	return dst
}

// Apply applies a set of conflict-free LACs to g simultaneously and
// returns the resulting swept graph. It panics when a LAC violates the
// SN-before-TN topological invariant (which would silently corrupt the
// rebuild) or when two LACs share a target node (a Type-1 conflict).
func Apply(g *aig.Graph, lacs []*LAC) *aig.Graph {
	ng, _ := ApplyMapped(g, lacs)
	return ng
}

// ApplyMapped is Apply returning, alongside the new graph, the old→new
// literal map of the rebuild (see aig.RebuildMapped). The map is what
// the incremental Generator consumes to carry per-target caches across
// rounds.
func ApplyMapped(g *aig.Graph, lacs []*LAC) (*aig.Graph, []aig.Lit) {
	if len(lacs) == 0 {
		return g.RebuildMapped(nil)
	}
	repl := make(map[int]aig.ReplaceFunc, len(lacs))
	for _, l := range lacs {
		for _, sn := range l.SNs {
			if sn >= l.Target {
				panic(fmt.Sprintf("lac: %v has SN %d not preceding its target", l, sn))
			}
		}
		if _, dup := repl[l.Target]; dup {
			panic(fmt.Sprintf("lac: two LACs share target %d (Type-1 conflict)", l.Target))
		}
		repl[l.Target] = l.Replace()
	}
	return g.RebuildMapped(repl)
}

// Targets returns the target node ids of the given LACs, in order.
func Targets(lacs []*LAC) []int {
	ts := make([]int, len(lacs))
	for i, l := range lacs {
		ts[i] = l.Target
	}
	return ts
}
