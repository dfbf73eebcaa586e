package maxerr

import (
	"errors"
	"math"
	"math/bits"
	"testing"

	"accals/internal/aig"
	"accals/internal/circuits"
	"accals/internal/errmetric"
	"accals/internal/runctl"
	"accals/internal/simulate"
)

// exhaustiveMax returns the true maximum error distance of approx
// against exact by simulating every input assignment.
func exhaustiveMax(t *testing.T, approx, exact *aig.Graph) uint64 {
	t.Helper()
	p := simulate.Exhaustive(exact.NumPIs())
	cmp, err := errmetric.NewComparatorChecked(errmetric.MaxED, exact, p)
	if err != nil {
		t.Fatalf("comparator: %v", err)
	}
	return uint64(cmp.Error(approx))
}

// truncated returns the adder with its low zeroBits sum outputs
// forced to constant 0 — a classic approximation with a known
// worst-case error distance of 2^zeroBits - 1.
func truncated(g *aig.Graph, zeroBits int) *aig.Graph {
	a := g.Clone()
	for i := 0; i < zeroBits; i++ {
		a.SetPO(i, aig.ConstFalse)
	}
	return a
}

func TestMiterMatchesExhaustive(t *testing.T) {
	// The miter output must be satisfiable exactly when some input's
	// error distance exceeds the bound — checked against exhaustive
	// simulation of the miter itself for a spread of bounds.
	exact := circuits.RCA(3)
	approx := truncated(exact, 2) // max ED = 3
	p := simulate.Exhaustive(exact.NumPIs())
	for bound := uint64(0); bound <= 4; bound++ {
		m, err := BuildMiter(approx, exact, bound)
		if err != nil {
			t.Fatalf("BuildMiter(%d): %v", bound, err)
		}
		if m.NumPOs() != 1 {
			t.Fatalf("miter has %d POs, want 1", m.NumPOs())
		}
		res := simulate.MustRun(m, p)
		sat := simulate.PopCount(res.POValues(m)[0]) > 0
		wantSat := bound < 3
		if sat != wantSat {
			t.Errorf("bound %d: miter satisfiable = %v, want %v", bound, sat, wantSat)
		}
	}
}

func TestCertifyEqualsExhaustiveMax(t *testing.T) {
	// Acceptance criterion: on adders up to 8 inputs per operand the
	// certified bound must exactly equal the exhaustive-simulation
	// maximum — Certify(maxED) proves UNSAT, Certify(maxED-1) finds a
	// counterexample.
	for _, width := range []int{2, 4, 8} {
		for zero := 1; zero <= 2; zero++ {
			exact := circuits.RCA(width)
			approx := truncated(exact, zero)
			want := exhaustiveMax(t, approx, exact)

			cert, err := Certify(approx, exact, want, 0)
			if err != nil {
				t.Fatalf("rca%d/zero%d: Certify(%d): %v", width, zero, want, err)
			}
			if !cert.Certified || cert.Exceeded {
				t.Errorf("rca%d/zero%d: bound %d not certified (cert=%+v)", width, zero, want, cert)
			}
			if want == 0 {
				continue
			}
			cert, err = Certify(approx, exact, want-1, 0)
			if err != nil {
				t.Fatalf("rca%d/zero%d: Certify(%d): %v", width, zero, want-1, err)
			}
			if cert.Certified || !cert.Exceeded {
				t.Errorf("rca%d/zero%d: bound %d wrongly certified (cert=%+v)", width, zero, want-1, cert)
			}
			if cert.Counterexample == nil {
				t.Errorf("rca%d/zero%d: exceeded without counterexample", width, zero)
			}
		}
	}
}

func TestCertifyCounterexampleIsReal(t *testing.T) {
	exact := circuits.RCA(4)
	approx := truncated(exact, 2)
	cert, err := Certify(approx, exact, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Exceeded {
		t.Fatalf("bound 1 should be exceeded (max ED is 3)")
	}
	if diff := replayED(approx, exact, cert.Counterexample); diff <= 1 {
		t.Errorf("counterexample has error distance %d, want > 1", diff)
	}
}

// replayED simulates one input vector through both circuits and
// returns its error distance.
func replayED(approx, exact *aig.Graph, in []bool) uint64 {
	p := simulate.Explicit(exact.NumPIs(), [][]bool{in})
	va := wordValue(simulate.MustRun(approx, p).POValues(approx))
	ve := wordValue(simulate.MustRun(exact, p).POValues(exact))
	if va > ve {
		return va - ve
	}
	return ve - va
}

func wordValue(pos []simulate.Vec) uint64 {
	var v uint64
	for j, w := range pos {
		v |= (w[0] & 1) << uint(j)
	}
	return v
}

func TestCertifyBudgetExhaustedIsNotAcceptance(t *testing.T) {
	// A one-conflict budget cannot prove bound 0 across two
	// structurally different adder implementations (ripple-carry
	// against Kogge-Stone; truncated adders, by contrast, sweep to
	// near-constant miters); the certificate must come back neither
	// certified nor exceeded. Only circuits too wide for exhaustive
	// simulation reach the solver and its budget.
	exact := circuits.RCA(8)
	approx := circuits.KSA(8)
	if n := exact.NumPIs(); n <= simulate.ExhaustiveLimit {
		t.Fatalf("adders have %d inputs, want more than %d so that SAT decides", n, simulate.ExhaustiveLimit)
	}
	if got := exhaustiveMax(t, approx, exact); got != 0 {
		t.Fatalf("adders disagree: exhaustive max ED %d", got)
	}
	cert, err := Certify(approx, exact, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Certified {
		t.Fatalf("budget-exhausted certification was accepted: %+v", cert)
	}
	if cert.Exceeded {
		// A single conflict cannot have found a real counterexample to
		// a true bound; if Exceeded is set something is deeply wrong.
		t.Fatalf("budget-exhausted certification claims a counterexample: %+v", cert)
	}
}

func TestCertifyVacuousBound(t *testing.T) {
	// A bound at or above 2^m - 1 is vacuously certified via the
	// constant-false miter, without any solver work.
	exact := circuits.RCA(2)
	approx := truncated(exact, 1)
	maxDiff := uint64(math.MaxUint64) >> uint(64-exact.NumPOs())
	cert, err := Certify(approx, exact, maxDiff, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Certified {
		t.Errorf("vacuous bound %d not certified: %+v", maxDiff, cert)
	}
}

func TestBuildMiterRejectsBadInterfaces(t *testing.T) {
	exact := circuits.RCA(2)
	other := circuits.RCA(3)
	if _, err := BuildMiter(other, exact, 1); !errors.Is(err, runctl.ErrInterfaceMismatch) {
		t.Errorf("mismatched widths: got %v, want ErrInterfaceMismatch", err)
	}

	noOut := aig.New("noout")
	noOut.AddPI("x")
	noOut2 := aig.New("noout2")
	noOut2.AddPI("x")
	if _, err := BuildMiter(noOut, noOut2, 1); !errors.Is(err, runctl.ErrNoOutputs) {
		t.Errorf("zero-PO: got %v, want ErrNoOutputs", err)
	}

	wide := aig.New("wide")
	wide.AddPI("x")
	for i := 0; i < 64; i++ {
		wide.AddPO(aig.ConstFalse, "o")
	}
	wide2 := wide.Clone()
	if _, err := BuildMiter(wide, wide2, 1); !errors.Is(err, runctl.ErrTooManyOutputs) {
		t.Errorf("64-PO: got %v, want ErrTooManyOutputs", err)
	}
}

func TestIdenticalCircuitsCertifyAtZero(t *testing.T) {
	exact := circuits.RCA(4)
	cert, err := Certify(exact.Clone(), exact, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Certified {
		t.Errorf("identical circuits not certified at bound 0: %+v", cert)
	}
}

// flipOnTopInputs returns exact with output 0 inverted on the inputs
// whose PIs lo..n-1 are all 1: the last 2^lo of the 2^n assignments in
// the exhaustive order, where every error distance is 1.
func flipOnTopInputs(exact *aig.Graph, lo int) *aig.Graph {
	a := exact.Clone()
	top := aig.ConstTrue
	for i := lo; i < a.NumPIs(); i++ {
		top = a.And(top, aig.MakeLit(a.PI(i), false))
	}
	a.SetPO(0, a.Xor(a.PO(0), top))
	return a
}

// lowestExceeding returns the lowest input assignment, in the
// exhaustive order where PI i is bit i, whose error distance exceeds
// bound, found by simulating both circuits directly; -1 if none does.
func lowestExceeding(approx, exact *aig.Graph, bound uint64) int {
	p := simulate.Exhaustive(exact.NumPIs())
	pa := simulate.MustRun(approx, p).POValues(approx)
	pe := simulate.MustRun(exact, p).POValues(exact)
	for pat := 0; pat < p.NumPatterns(); pat++ {
		var va, ve uint64
		for j := range pa {
			if simulate.Bit(pa[j], pat) {
				va |= 1 << uint(j)
			}
			if simulate.Bit(pe[j], pat) {
				ve |= 1 << uint(j)
			}
		}
		if va > ve+bound || ve > va+bound {
			return pat
		}
	}
	return -1
}

// TestCertifyBySimulationMatchesSAT cross-checks the two decision
// procedures on circuits narrow enough to sweep: at bounds around the
// true maximum error distance, the sweep's verdict must equal the
// solver's (unlimited budget) and exhaustive simulation's, and its
// counterexample must be the lowest exceeding input.
func TestCertifyBySimulationMatchesSAT(t *testing.T) {
	mult8 := circuits.ArrayMult(8)
	// The last chunk holds exactly the inputs whose PIs chunkBits..15
	// are all 1.
	chunkBits := bits.Len(uint(sweepChunk)) - 1
	if mult8.NumPIs() != simulate.ExhaustiveLimit || 1<<uint(mult8.NumPIs()) < 2*sweepChunk {
		t.Fatalf("mult8 has %d inputs, want %d spanning several %d-input chunks",
			mult8.NumPIs(), simulate.ExhaustiveLimit, sweepChunk)
	}
	cases := []struct {
		name          string
		approx, exact *aig.Graph
	}{
		{"rca2-trunc1", truncated(circuits.RCA(2), 1), circuits.RCA(2)},
		{"ksa2-vs-rca2", circuits.KSA(2), circuits.RCA(2)},
		{"rca4-trunc2", truncated(circuits.RCA(4), 2), circuits.RCA(4)},
		{"rca7-trunc3", truncated(circuits.RCA(7), 3), circuits.RCA(7)},
		{"wal4-vs-mtp4", circuits.WallaceMult(4), circuits.ArrayMult(4)},
		{"mtp5-trunc3-vs-wal5", truncated(circuits.ArrayMult(5), 3), circuits.WallaceMult(5)},
		{"mtp8-last-chunk", flipOnTopInputs(mult8, chunkBits), mult8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if n := tc.exact.NumPIs(); !BySimulation(n) {
				t.Fatalf("%d inputs are not certified by simulation", n)
			}
			maxED := exhaustiveMax(t, tc.approx, tc.exact)
			vacuous := uint64(math.MaxUint64) >> uint(64-tc.exact.NumPOs())
			bounds := []uint64{maxED, maxED + 1, vacuous}
			if maxED > 0 {
				bounds = append(bounds, 0, maxED-1)
			}
			for _, bound := range bounds {
				cert, err := Certify(tc.approx, tc.exact, bound, 0)
				if err != nil {
					t.Fatalf("bound %d: %v", bound, err)
				}
				m, err := BuildMiter(tc.approx, tc.exact, bound)
				if err != nil {
					t.Fatalf("bound %d: %v", bound, err)
				}
				sat, err := certifyBySAT(m, bound, 0, nil)
				if err != nil {
					t.Fatalf("bound %d: SAT: %v", bound, err)
				}
				exceeded := maxED > bound
				if cert.Certified == exceeded || cert.Exceeded != exceeded || cert.Conflicts != 0 {
					t.Fatalf("bound %d (max %d): swept certificate %+v", bound, maxED, cert)
				}
				if sat.Certified != cert.Certified || sat.Exceeded != cert.Exceeded {
					t.Fatalf("bound %d: SAT says certified=%v exceeded=%v, sweep says %v/%v",
						bound, sat.Certified, sat.Exceeded, cert.Certified, cert.Exceeded)
				}
				if !exceeded {
					continue
				}
				for _, cex := range [][]bool{cert.Counterexample, sat.Counterexample} {
					if ed := replayED(tc.approx, tc.exact, cex); ed <= bound {
						t.Fatalf("bound %d: counterexample %v has error distance %d", bound, cex, ed)
					}
				}
				got := 0
				for i, v := range cert.Counterexample {
					if v {
						got |= 1 << uint(i)
					}
				}
				if want := lowestExceeding(tc.approx, tc.exact, bound); got != want {
					t.Fatalf("bound %d: swept counterexample is input %d, want the lowest exceeding input %d", bound, got, want)
				}
			}
		})
	}
}
