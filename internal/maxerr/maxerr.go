// Package maxerr certifies worst-case error bounds. The statistical
// MaxED metric (errmetric.MaxED) measures the largest error distance
// over a sampled pattern set — a lower bound on the true worst case.
// This package closes the gap: BuildMiter constructs an error-miter AIG
// whose single output is 1 exactly on the inputs where
// |approx - exact| > bound (ripple-borrow subtractors in both
// directions feeding a greater-than-constant comparator), and Certify
// decides whether that output can ever be 1. A miter with at most
// simulate.ExhaustiveLimit inputs (see BySimulation) is simulated on
// every input assignment, one fixed-size chunk at a time; a wider one
// goes to the CDCL solver via cec.Satisfiable.
//
// Certification invariants:
//
//   - UNSAT, or a full sweep with no exceeding input ⇒ the bound holds
//     on ALL 2^n inputs, not just sampled ones.
//   - SAT, or an exceeding input found by the sweep ⇒ Counterexample
//     is an input whose error distance exceeds the bound (the lowest
//     such input, when swept).
//   - Budget exhaustion (Unknown) ⇒ the circuit is NOT certified. An
//     exhausted conflict budget is never acceptance. Only the SAT path
//     has a budget.
//
// Both circuits read their outputs as one unsigned integer with PO 0
// the least significant bit, so the word-level 63-output limit of
// errmetric applies here too.
package maxerr

import (
	"fmt"
	"math"
	"math/bits"

	"accals/internal/aig"
	"accals/internal/cec"
	"accals/internal/errmetric"
	"accals/internal/obs"
	"accals/internal/runctl"
	"accals/internal/simulate"
)

// Certificate reports one certification attempt.
type Certificate struct {
	// Certified is true when the bound was proved: the solver found the
	// miter UNSAT, or the sweep found no exceeding input. The error
	// distance is then at most Bound on every input assignment.
	Certified bool
	// Exceeded is true when an input whose error distance exceeds
	// Bound was found; Counterexample holds it (by PI position). When
	// neither Certified nor Exceeded is set the conflict budget ran out
	// before a proof either way, which only the SAT path, above
	// simulate.ExhaustiveLimit inputs, can do.
	Exceeded       bool
	Counterexample []bool
	// Bound is the certified (or refuted) error-distance bound.
	Bound uint64
	// Conflicts is the solver effort spent; 0 for a swept bound.
	Conflicts int64
}

// BuildMiter returns the error-miter AIG of approx against exact: a
// circuit over the shared inputs whose single output "exceed" is 1
// exactly when |approx - exact| > bound, outputs read as unsigned
// integers. The construction is two ripple-borrow subtractors
// (approx-exact and exact-approx), the borrow-out selecting which
// difference is the true magnitude, each feeding a greater-than-
// constant comparator.
func BuildMiter(approx, exact *aig.Graph, bound uint64) (*aig.Graph, error) {
	if approx.NumPIs() != exact.NumPIs() || approx.NumPOs() != exact.NumPOs() {
		return nil, fmt.Errorf("maxerr: interface mismatch: %d/%d vs %d/%d: %w",
			approx.NumPIs(), approx.NumPOs(), exact.NumPIs(), exact.NumPOs(), runctl.ErrInterfaceMismatch)
	}
	if err := errmetric.Validate(errmetric.MaxED, exact); err != nil {
		return nil, err
	}
	width := exact.NumPOs()

	g := aig.New("maxerr_" + approx.Name)
	pis := make([]aig.Lit, exact.NumPIs())
	for i := range pis {
		pis[i] = g.AddPI(exact.PIName(i))
	}
	av := cec.CopyInto(g, approx, pis)
	ev := cec.CopyInto(g, exact, pis)

	exceed := aig.ConstFalse
	// The error distance of a width-bit word pair never exceeds
	// 2^width - 1; a bound at or above that is vacuously certified and
	// the miter degenerates to constant false.
	if maxDiff := uint64(math.MaxUint64) >> uint(64-width); bound < maxDiff {
		d1, bo1 := subtract(g, av, ev) // approx - exact, borrow-out set iff approx < exact
		d2, _ := subtract(g, ev, av)   // exact - approx
		exceed = g.Or(
			g.And(bo1.Not(), gtConst(g, d1, bound)),
			g.And(bo1, gtConst(g, d2, bound)),
		)
	}
	g.AddPO(exceed, "exceed")
	return g.Sweep(), nil
}

// subtract builds a ripple-borrow subtractor x - y over equal-width
// words, returning the difference bits and the borrow-out (1 iff
// x < y, in which case the difference bits hold the wrapped value).
func subtract(g *aig.Graph, x, y []aig.Lit) (diff []aig.Lit, borrow aig.Lit) {
	diff = make([]aig.Lit, len(x))
	borrow = aig.ConstFalse
	for i := range x {
		xy := g.Xor(x[i], y[i])
		diff[i] = g.Xor(xy, borrow)
		// borrow_out = (¬x ∧ y) ∨ (borrow_in ∧ ¬(x⊕y))
		borrow = g.Or(g.And(x[i].Not(), y[i]), g.And(borrow, xy.Not()))
	}
	return diff, borrow
}

// gtConst builds the comparator "word d > constant n", folding from
// the most significant bit down: d is greater exactly when, at some
// position where n has a 0, d has a 1 and all higher bits agree.
func gtConst(g *aig.Graph, d []aig.Lit, n uint64) aig.Lit {
	gt := aig.ConstFalse
	eq := aig.ConstTrue
	for i := len(d) - 1; i >= 0; i-- {
		if n>>uint(i)&1 == 0 {
			gt = g.Or(gt, g.And(eq, d[i]))
			eq = g.And(eq, d[i].Not())
		} else {
			eq = g.And(eq, d[i])
		}
	}
	return gt
}

// sweepChunk is the number of input assignments one simulation of the
// miter covers when a bound is decided by sweeping: 8192 patterns, 1 KiB
// per miter node, so a 16-input sweep takes 8 chunks and never holds
// all 2^16 patterns for every node.
const sweepChunk = 8192

// BySimulation reports whether Certify decides the bound of circuits
// with nPIs inputs by simulating the error miter on all 2^nPIs input
// assignments, rather than by SAT. It is the one place that rule
// lives; the conflict budget applies only where it is false.
func BySimulation(nPIs int) bool { return nPIs <= simulate.ExhaustiveLimit }

// Certify proves or refutes that approx stays within the given
// maximum error distance of exact on every input. A circuit with at
// most simulate.ExhaustiveLimit inputs is decided by exhaustive
// simulation, which always reaches a verdict. A wider one is decided by
// SAT, where budget caps solver conflicts (0 = unlimited); an exhausted
// budget yields a Certificate with neither Certified nor Exceeded set —
// callers must reject such a circuit.
func Certify(approx, exact *aig.Graph, bound uint64, budget int64) (*Certificate, error) {
	return CertifyRec(approx, exact, bound, budget, nil)
}

// CertifyRec is Certify with instrumentation: the sweep or the SAT
// query runs under the recorder's cec-phase span, and the SAT query
// feeds the SAT-conflict counter. rec may be nil.
func CertifyRec(approx, exact *aig.Graph, bound uint64, budget int64, rec *obs.Recorder) (*Certificate, error) {
	m, err := BuildMiter(approx, exact, bound)
	if err != nil {
		return nil, err
	}
	if !BySimulation(m.NumPIs()) {
		return certifyBySAT(m, bound, budget, rec)
	}
	sp := rec.StartSpan(obs.PhaseCEC)
	defer sp.End()
	return certifyBySweep(m, bound)
}

// certifyBySAT decides the bound of miter m with the CDCL solver:
// UNSAT certifies it, a model refutes it, and an exhausted budget
// decides nothing.
func certifyBySAT(m *aig.Graph, bound uint64, budget int64, rec *obs.Recorder) (*Certificate, error) {
	res, err := cec.SatisfiableRec(m, budget, rec)
	if err != nil {
		return nil, err
	}
	c := &Certificate{Bound: bound, Conflicts: res.Conflicts}
	if res.Proved {
		if res.Equivalent {
			c.Certified = true
		} else {
			c.Exceeded = true
			c.Counterexample = res.Counterexample
		}
	}
	return c, nil
}

// certifyBySweep decides the bound of miter m by simulating it on every
// input assignment, sweepChunk assignments at a time in ascending
// order. It stops at the first chunk in which the exceed output is 1
// and refutes the bound with the lowest such input; a sweep that never
// sees a 1 certifies it.
func certifyBySweep(m *aig.Graph, bound uint64) (*Certificate, error) {
	n := m.NumPIs()
	total := 1 << uint(n)
	chunk := min(total, sweepChunk)
	exceed := m.PO(0)
	r := simulate.NewRunner(1)
	for first := 0; first < total; first += chunk {
		p := simulate.ExhaustiveRange(n, first, chunk)
		res, err := r.Run(m, p)
		if err != nil {
			return nil, err
		}
		lowest := -1
		for w, x := range res.NodeVals[exceed.Node()] {
			if exceed.IsCompl() {
				x = ^x
			}
			if w == p.Words()-1 {
				x &= p.LastMask()
			}
			if x != 0 {
				lowest = first + w<<6 + bits.TrailingZeros64(x)
				break
			}
		}
		r.Release(res)
		if lowest >= 0 {
			cex := make([]bool, n)
			for i := range cex {
				cex[i] = lowest>>uint(i)&1 != 0
			}
			return &Certificate{Exceeded: true, Counterexample: cex, Bound: bound}, nil
		}
	}
	return &Certificate{Certified: true, Bound: bound}, nil
}
