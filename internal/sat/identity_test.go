package sat

import (
	"math/rand"
	"testing"
)

// cnf is one solver query: a fresh solver created over start
// variables and grown to nVars with NewVar, the clauses added in
// order, then one Solve under the assumptions and conflict budget.
type cnf struct {
	start, nVars int
	clauses      [][]Lit
	assumps      []Lit
	budget       int64
}

// solveAgainstReference runs f on a fresh Solver and a fresh
// reference solver and fails unless both agree on every AddClause
// result, the status, Conflicts() and, after Sat, the full model. It
// returns the production solver's status and the solver itself.
func solveAgainstReference(t testing.TB, f cnf) (Status, *Solver) {
	t.Helper()
	s, r := New(f.start), newRef(f.start)
	for s.NumVars() < f.nVars {
		if v, rv := s.NewVar(), r.NewVar(); v != rv {
			t.Fatalf("NewVar = %d, reference %d", v, rv)
		}
	}
	s.Budget, r.Budget = f.budget, f.budget
	for i, c := range f.clauses {
		if got, want := s.AddClause(c...), r.AddClause(c...); got != want {
			t.Fatalf("AddClause #%d %v = %v, reference %v", i, c, got, want)
		}
	}
	got, want := s.Solve(f.assumps...), r.Solve(f.assumps...)
	if got != want || s.Conflicts() != r.Conflicts() {
		t.Fatalf("Solve = %v after %d conflicts, reference %v after %d",
			got, s.Conflicts(), want, r.Conflicts())
	}
	if got == Sat {
		for v := 0; v < f.nVars; v++ {
			if s.Value(v) != r.Value(v) {
				t.Fatalf("model differs at x%d: %v, reference %v", v, s.Value(v), r.Value(v))
			}
		}
	}
	return got, s
}

// randomCNF draws a random instance near the 3-SAT threshold: mostly
// 3-literal clauses mixed with widths 1–8, duplicate and complementary
// literals left in, and on some instances a solver grown by NewVar, a
// conflict budget or a few assumptions.
func randomCNF(rng *rand.Rand) cnf {
	n := 40 + rng.Intn(100)
	f := cnf{start: n, nVars: n}
	if rng.Intn(4) == 0 {
		f.start = rng.Intn(n + 1)
	}
	lit := func() Lit { return MkLit(rng.Intn(n), rng.Intn(2) == 1) }
	for i, m := 0, n*39/10+rng.Intn(n/2); i < m; i++ {
		w := 3
		if rng.Intn(6) == 0 {
			w = 1 + rng.Intn(8)
			// Few units, or level-0 propagation settles too many
			// instances before any search.
			if w == 1 && rng.Intn(4) != 0 {
				w = 4
			}
		}
		c := make([]Lit, w)
		for k := range c {
			c[k] = lit()
		}
		f.clauses = append(f.clauses, c)
	}
	if rng.Intn(4) == 0 {
		f.budget = 1 + int64(rng.Intn(40))
	}
	if rng.Intn(3) == 0 {
		for k := 1 + rng.Intn(4); k > 0; k-- {
			f.assumps = append(f.assumps, lit())
		}
	}
	return f
}

// TestSolveMatchesReference is the search-identity check: on random
// instances the solver must make exactly the reference solver's
// search — same verdict, same conflict count, same model.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	count := map[Status]int{}
	var conflicts int64
	for inst := 0; inst < 600; inst++ {
		f := randomCNF(rng)
		st, s := solveAgainstReference(t, f)
		count[st]++
		conflicts += s.Conflicts()
	}
	// The instances must exercise every verdict and real search, or
	// the identity check above proves little.
	if count[Sat] == 0 || count[Unsat] == 0 || count[Unknown] == 0 || conflicts < 10000 {
		t.Fatalf("weak instance mix: %v, %d conflicts", count, conflicts)
	}
}

// satisfied reports whether the assignment val satisfies clause c.
func satisfied(val func(v int) bool, c []Lit) bool {
	for _, l := range c {
		if val(l.Var()) != l.Neg() {
			return true
		}
	}
	return false
}

// bruteForce reports whether some assignment of f's variables
// satisfies every clause and every assumption.
func bruteForce(f cnf) bool {
	for m := 0; m < 1<<uint(f.nVars); m++ {
		val := func(v int) bool { return m>>uint(v)&1 == 1 }
		ok := true
		for _, a := range f.assumps {
			ok = ok && satisfied(val, []Lit{a})
		}
		for _, c := range f.clauses {
			ok = ok && satisfied(val, c)
		}
		if ok {
			return true
		}
	}
	return false
}

// decodeCNF reads a small instance (at most 12 variables and 64
// clauses) from fuzz bytes: variable count, starting count, budget,
// up to three assumptions, then clauses as a width byte (0–8)
// followed by one byte per literal.
func decodeCNF(data []byte) cnf {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	f := cnf{nVars: 1 + int(next()%12)}
	f.start = int(next()) % (f.nVars + 1)
	if b := next(); b&1 == 1 {
		f.budget = 1 + int64(b>>1)%32
	}
	lit := func() Lit { b := next(); return MkLit(int(b>>1)%f.nVars, b&1 == 1) }
	for k := next() % 4; k > 0; k-- {
		f.assumps = append(f.assumps, lit())
	}
	for len(data) > 0 && len(f.clauses) < 64 {
		c := make([]Lit, next()%9)
		for k := range c {
			c[k] = lit()
		}
		f.clauses = append(f.clauses, c)
	}
	return f
}

// FuzzSolveMatchesReference checks on small decoded instances that
// the solver matches the reference search, that every Sat model
// satisfies every clause and assumption, and that every verdict
// agrees with brute force.
func FuzzSolveMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 16; i++ {
		b := make([]byte, 8+rng.Intn(200))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inst := decodeCNF(data)
		st, s := solveAgainstReference(t, inst)
		if st == Unknown {
			return
		}
		if want := bruteForce(inst); (st == Sat) != want {
			t.Fatalf("Solve = %v, brute force satisfiable = %v", st, want)
		}
		if st != Sat {
			return
		}
		for _, c := range inst.clauses {
			if !satisfied(s.Value, c) {
				t.Fatalf("model violates clause %v", c)
			}
		}
		for _, a := range inst.assumps {
			if !satisfied(s.Value, []Lit{a}) {
				t.Fatalf("model violates assumption %v", a)
			}
		}
	})
}
