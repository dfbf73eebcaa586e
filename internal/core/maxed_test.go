package core

import (
	"testing"

	"accals/internal/aig"
	"accals/internal/circuits"
	"accals/internal/errmetric"
	"accals/internal/maxerr"
	"accals/internal/runctl"
	"accals/internal/simulate"
)

// exhaustiveMaxED measures the true worst-case error distance of
// approx against exact by exhaustive simulation.
func exhaustiveMaxED(t *testing.T, exact, approx *aig.Graph) uint64 {
	t.Helper()
	p := simulate.Exhaustive(exact.NumPIs())
	cmp := errmetric.NewComparator(errmetric.MaxED, exact, p)
	return uint64(cmp.Error(approx))
}

// TestRunMaxEDCertifiedEqualsExhaustive is the acceptance test of the
// certified maximum-error flow: on ripple-carry adders up to 8 bits
// per operand, the synthesised circuit's certified worst-case error
// distance must exactly equal its exhaustive-simulation one —
// certifiable at the measured maximum, refutable one below it. rca4
// (9 inputs) and rca6 (13) are certified by exhaustive simulation;
// rca8 (17 inputs) is above simulate.ExhaustiveLimit and is still
// certified by SAT.
func TestRunMaxEDCertifiedEqualsExhaustive(t *testing.T) {
	cases := []struct {
		width int
		bound float64
	}{
		{4, 3},
		{6, 12},
		{8, 48},
	}
	for _, c := range cases {
		g := circuits.RCA(c.width)
		res := Run(g, errmetric.MaxED, c.bound, Options{})
		if res.Final == nil {
			t.Fatalf("rca%d: no result", c.width)
		}
		if !res.Certified {
			t.Fatalf("rca%d: MaxED run not marked certified", c.width)
		}
		if res.Error > c.bound {
			t.Fatalf("rca%d: final error %g exceeds bound %g", c.width, res.Error, c.bound)
		}

		// The true worst case over ALL inputs must respect the bound —
		// this is the property the statistical metrics cannot give.
		trueMax := exhaustiveMaxED(t, g, res.Final)
		if float64(trueMax) > c.bound {
			t.Fatalf("rca%d: exhaustive max ED %d exceeds certified bound %g",
				c.width, trueMax, c.bound)
		}

		// The certifier and exhaustive simulation must agree exactly:
		// the bound is certified at the measured maximum and refuted
		// one below it.
		cert, err := maxerr.Certify(res.Final, g, trueMax, 0)
		if err != nil {
			t.Fatalf("rca%d: %v", c.width, err)
		}
		if !cert.Certified {
			t.Fatalf("rca%d: bound %d not certified though exhaustive max is %d",
				c.width, trueMax, trueMax)
		}
		if trueMax > 0 {
			cert, err = maxerr.Certify(res.Final, g, trueMax-1, 0)
			if err != nil {
				t.Fatalf("rca%d: %v", c.width, err)
			}
			if !cert.Exceeded {
				t.Fatalf("rca%d: bound %d not refuted though exhaustive max is %d",
					c.width, trueMax-1, trueMax)
			}
		}

		// Every round the run adopted was certified; any uncertified
		// round must have ended the run.
		for i, rs := range res.Rounds {
			if rs.CertRan && !rs.Certified && i != len(res.Rounds)-1 {
				t.Fatalf("rca%d: uncertified round %d did not stop the run", c.width, rs.Round)
			}
		}
	}
}

// TestRunMaxEDZeroBound: a zero bound allows no error at all; the run
// may only apply exact rewrites (in practice: none) and everything it
// returns is equivalent to the original.
func TestRunMaxEDZeroBound(t *testing.T) {
	g := circuits.RCA(4)
	res := Run(g, errmetric.MaxED, 0, Options{})
	if res.Error != 0 {
		t.Fatalf("zero-bound error %g", res.Error)
	}
	if got := exhaustiveMaxED(t, g, res.Final); got != 0 {
		t.Fatalf("zero-bound run returned a circuit with max ED %d", got)
	}
}

// TestRunMaxEDTightBudgetRejects pins the acceptance criterion's
// budget clause at the synthesis level: a certification that exhausts
// a deliberately tight conflict budget yields rejection — StopReason
// Uncertified and a fallback to the last certified circuit — never
// silent acceptance. The warm start is a Kogge-Stone adder checked
// against a ripple-carry adder at bound 0: a functionally equivalent
// circuit that one conflict cannot certify. The adders have 17 inputs,
// one more than simulate.ExhaustiveLimit, so SAT and its budget decide.
func TestRunMaxEDTightBudgetRejects(t *testing.T) {
	orig := circuits.RCA(8)
	start := circuits.KSA(8)
	if start.NumPIs() != orig.NumPIs() || start.NumPOs() != orig.NumPOs() {
		t.Fatal("adder interfaces diverged")
	}
	if n := orig.NumPIs(); n <= simulate.ExhaustiveLimit {
		t.Fatalf("adders have %d inputs, want more than %d so that SAT decides", n, simulate.ExhaustiveLimit)
	}

	res := Run(orig, errmetric.MaxED, 0, Options{
		CertBudget: 1,
		Start:      &StartState{Graph: start, Round: 7},
	})
	if res.StopReason != runctl.Uncertified {
		t.Fatalf("stop reason %v, want Uncertified", res.StopReason)
	}
	// The unproved warm start was not adopted: the result fell back to
	// the exact circuit, whose worst case is trivially within bound.
	if got := exhaustiveMaxED(t, orig, res.Final); got != 0 {
		t.Fatalf("rejected run returned a circuit with max ED %d", got)
	}

	// The same warm start certifies under an unlimited budget (the
	// adders are equivalent), proving the rejection above was the
	// budget's doing and not a refutation.
	res = Run(orig, errmetric.MaxED, 0, Options{
		CertBudget: -1,
		Start:      &StartState{Graph: circuits.KSA(8), Round: 7},
	})
	if res.StopReason == runctl.Uncertified {
		t.Fatal("unlimited budget still rejected the equivalent warm start")
	}
	if got := exhaustiveMaxED(t, orig, res.Final); got != 0 {
		t.Fatalf("zero-bound run returned a circuit with max ED %d", got)
	}
}

// TestRunMaxEDTightBudgetNeverAccepts: whatever a tiny budget does to
// the trajectory, the final circuit's true worst case must respect the
// bound — budget exhaustion may shorten the run but can never smuggle
// an unproved circuit through. The adder's 17 inputs put it above
// simulate.ExhaustiveLimit, so its rounds are certified by SAT, and
// the budget stops the run.
func TestRunMaxEDTightBudgetNeverAccepts(t *testing.T) {
	g := circuits.RCA(8)
	if n := g.NumPIs(); n <= simulate.ExhaustiveLimit {
		t.Fatalf("adder has %d inputs, want more than %d so that SAT decides", n, simulate.ExhaustiveLimit)
	}
	const bound = 6
	res := Run(g, errmetric.MaxED, bound, Options{CertBudget: 1})
	if got := exhaustiveMaxED(t, g, res.Final); got > bound {
		t.Fatalf("tight-budget run accepted max ED %d past bound %d", got, bound)
	}
	if res.StopReason != runctl.Uncertified {
		t.Fatalf("stop reason %v, want Uncertified: the budget-exhaustion branch went untested", res.StopReason)
	}
	// Rejection path taken: the recorded last round must carry the
	// failed certification.
	last := res.Rounds[len(res.Rounds)-1]
	if !last.CertRan || last.Certified {
		t.Fatalf("Uncertified stop without a failed certification round: %+v", last)
	}
}
