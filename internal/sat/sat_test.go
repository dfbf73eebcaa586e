package sat

import (
	"math/rand"
	"testing"
)

func TestLit(t *testing.T) {
	l := MkLit(5, false)
	if l.Var() != 5 || l.Neg() {
		t.Fatal("MkLit wrong")
	}
	n := l.Not()
	if n.Var() != 5 || !n.Neg() || n.Not() != l {
		t.Fatal("Not wrong")
	}
	if n.String() != "!x5" {
		t.Fatalf("String = %q", n.String())
	}
}

func TestTrivial(t *testing.T) {
	s := New(2)
	s.AddClause(MkLit(0, false))
	s.AddClause(MkLit(1, true))
	if s.Solve() != Sat {
		t.Fatal("expected SAT")
	}
	if !s.Value(0) || s.Value(1) {
		t.Fatal("model wrong")
	}
}

func TestContradiction(t *testing.T) {
	s := New(1)
	s.AddClause(MkLit(0, false))
	if ok := s.AddClause(MkLit(0, true)); ok {
		t.Fatal("expected AddClause to detect contradiction")
	}
	if s.Solve() != Unsat {
		t.Fatal("expected UNSAT")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New(1)
	if s.AddClause() {
		t.Fatal("empty clause must fail")
	}
	if s.Solve() != Unsat {
		t.Fatal("expected UNSAT")
	}
}

func TestXorChainSat(t *testing.T) {
	// x0 XOR x1 = 1, x1 XOR x2 = 1, x0 XOR x2 = 0 is satisfiable.
	s := New(3)
	addXor := func(a, b int, val bool) {
		x, y := MkLit(a, false), MkLit(b, false)
		if val {
			s.AddClause(x, y)
			s.AddClause(x.Not(), y.Not())
		} else {
			s.AddClause(x.Not(), y)
			s.AddClause(x, y.Not())
		}
	}
	addXor(0, 1, true)
	addXor(1, 2, true)
	addXor(0, 2, false)
	if s.Solve() != Sat {
		t.Fatal("expected SAT")
	}
	if s.Value(0) == s.Value(1) || s.Value(1) == s.Value(2) || s.Value(0) != s.Value(2) {
		t.Fatal("model violates XOR constraints")
	}
}

func TestXorChainUnsat(t *testing.T) {
	// Odd cycle of XOR=1 constraints over 3 variables is UNSAT:
	// x0^x1=1, x1^x2=1, x2^x0=1.
	s := New(3)
	addXor := func(a, b int) {
		x, y := MkLit(a, false), MkLit(b, false)
		s.AddClause(x, y)
		s.AddClause(x.Not(), y.Not())
	}
	addXor(0, 1)
	addXor(1, 2)
	addXor(2, 0)
	if s.Solve() != Unsat {
		t.Fatal("expected UNSAT")
	}
}

// pigeonhole(n): n+1 pigeons into n holes — classically UNSAT and
// exercises conflict analysis hard.
func pigeonhole(n int) *Solver {
	s := New((n + 1) * n)
	v := func(p, h int) Lit { return MkLit(p*n+h, false) }
	// Every pigeon in some hole.
	for p := 0; p <= n; p++ {
		var cl []Lit
		for h := 0; h < n; h++ {
			cl = append(cl, v(p, h))
		}
		s.AddClause(cl...)
	}
	// No two pigeons share a hole.
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(v(p1, h).Not(), v(p2, h).Not())
			}
		}
	}
	return s
}

func TestPigeonhole(t *testing.T) {
	for n := 2; n <= 5; n++ {
		s := pigeonhole(n)
		if s.Solve() != Unsat {
			t.Fatalf("PHP(%d) should be UNSAT", n)
		}
	}
}

func TestBudgetReturnsUnknown(t *testing.T) {
	s := pigeonhole(8)
	s.Budget = 50
	if got := s.Solve(); got != Unknown {
		t.Fatalf("expected Unknown under tiny budget, got %v", got)
	}
}

// TestRandom3SATAgainstBruteForce cross-checks the solver on random
// small instances.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for inst := 0; inst < 60; inst++ {
		nVars := 6 + rng.Intn(5)
		nCls := 10 + rng.Intn(25)
		type cls [3]Lit
		var clauses []cls
		for i := 0; i < nCls; i++ {
			var c cls
			for k := 0; k < 3; k++ {
				c[k] = MkLit(rng.Intn(nVars), rng.Intn(2) == 1)
			}
			clauses = append(clauses, c)
		}
		// Brute force.
		bruteSat := false
		for m := 0; m < 1<<uint(nVars); m++ {
			ok := true
			for _, c := range clauses {
				cok := false
				for _, l := range c {
					val := m&(1<<uint(l.Var())) != 0
					if val != l.Neg() {
						cok = true
						break
					}
				}
				if !cok {
					ok = false
					break
				}
			}
			if ok {
				bruteSat = true
				break
			}
		}
		s := New(nVars)
		for _, c := range clauses {
			s.AddClause(c[0], c[1], c[2])
		}
		got := s.Solve()
		want := Unsat
		if bruteSat {
			want = Sat
		}
		if got != want {
			t.Fatalf("instance %d: solver %v, brute force %v", inst, got, want)
		}
		if got == Sat {
			// Model must satisfy all clauses.
			for ci, c := range clauses {
				ok := false
				for _, l := range c {
					if s.Value(l.Var()) != l.Neg() {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("instance %d: model violates clause %d", inst, ci)
				}
			}
		}
	}
}

func TestSolveWithAssumptions(t *testing.T) {
	// (x0 | x1) & (!x0 | x1): assuming !x1 forces UNSAT; assuming x1
	// is SAT. The solver must remain reusable between calls.
	s := New(2)
	s.AddClause(MkLit(0, false), MkLit(1, false))
	s.AddClause(MkLit(0, true), MkLit(1, false))
	if s.Solve(MkLit(1, true)) != Unsat {
		t.Fatal("assuming !x1 should be UNSAT")
	}
	if s.Solve(MkLit(1, false)) != Sat {
		t.Fatal("assuming x1 should be SAT")
	}
	if s.Solve() != Sat {
		t.Fatal("formula itself is SAT")
	}

	// After a Sat verdict the next Solve must not inherit the model:
	// the x1 assumption's level has to go before !x1 is assumed.
	s = New(2)
	s.AddClause(MkLit(0, false), MkLit(1, false))
	s.AddClause(MkLit(0, true), MkLit(1, false))
	if s.Solve(MkLit(1, false)) != Sat {
		t.Fatal("assuming x1 should be SAT")
	}
	if got := s.Solve(MkLit(1, true)); got != Unsat {
		t.Fatalf("assuming !x1 after a SAT call = %v (x1=%v), want UNSAT", got, s.Value(1))
	}

	// Nor may AddClause simplify against the model: with x0=F, x1=T,
	// x2=F left on the trail, (x0 | x2) looked empty and the
	// satisfiable formula was reported UNSAT.
	s = New(3)
	s.AddClause(MkLit(0, false), MkLit(1, false))
	if s.Solve() != Sat {
		t.Fatal("(x0 | x1) should be SAT")
	}
	if !s.AddClause(MkLit(0, false), MkLit(2, false)) {
		t.Fatal("AddClause(x0 | x2) after a SAT call reported a contradiction")
	}
	if s.Solve() != Sat {
		t.Fatal("(x0 | x1) & (x0 | x2) should be SAT")
	}
	if !s.Value(0) && !(s.Value(1) && s.Value(2)) {
		t.Fatalf("model x0=%v x1=%v x2=%v violates a clause", s.Value(0), s.Value(1), s.Value(2))
	}
}
