// Package sat implements a compact CDCL (conflict-driven clause
// learning) Boolean satisfiability solver: two-watched-literal
// propagation, first-UIP conflict analysis with backjumping,
// VSIDS-style activity ordering, phase saving, and Luby restarts.
// It is the engine behind the combinational equivalence checker
// (package cec) used to verify circuit transformations exactly.
//
// Clauses live in one flat arena: each is a length word followed by
// its literals, addressed by the int32 offset of the length word.
// Watch lists and reasons hold offsets, so visiting a watcher is one
// index into the arena, and added and learnt clauses are appended to
// it in place. Propagation compacts each watch list in place, keeping
// the surviving watchers in their original order, and reads literal
// values from a per-literal table kept by enqueue and cancelUntil.
//
// The layout may change; the search may not. Watch order, replacement
// scan order, first-UIP literal order, activity bumps, Luby restarts
// and linear-scan branching are exactly those of the pointer-per-clause
// solver kept as a test-only reference (reference_test.go), so a query
// makes the same decisions, learns the same clauses, reports the same
// Conflicts() and returns the same model. The golden trajectories in
// package core pin the certification conflicts that depend on this.
//
// After Sat the model stays on the trail and Value reads it. The next
// AddClause or Solve first backtracks to decision level 0, which
// clears the model.
package sat

import "fmt"

// Lit is a solver literal: variable index shifted left by one, low
// bit set for negation. Variables are numbered from 0.
type Lit int32

// MkLit builds a literal from a variable index and a sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 != 0 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal as e.g. "x3" or "!x3".
func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("!x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

// value codes.
type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// noReason is the reason of a decision, an assumption or a level-0
// unit: no clause implied it.
const noReason int32 = -1

// Status is a solver verdict.
type Status int

// Solver outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// Solver is a CDCL SAT solver. Create with New, add clauses, then
// call Solve.
type Solver struct {
	arena   []Lit     // clauses: length word, then the literals
	watches [][]int32 // literal -> offsets of the clauses watching it

	litVal   []lbool // literal -> value
	level    []int32
	reason   []int32 // variable -> offset of its implying clause, or noReason
	phase    []bool  // saved phases
	activity []float64
	varInc   float64

	trail    []Lit
	trailLim []int
	qhead    int

	seen    []bool
	learnt  []Lit // analyze's output, reused across conflicts
	conflic int64

	// Budget caps the number of conflicts before Solve gives up with
	// Unknown (0 = unlimited).
	Budget int64

	unsat bool
}

// New returns a solver over nVars variables.
func New(nVars int) *Solver {
	s := &Solver{varInc: 1}
	s.grow(nVars)
	return s
}

func (s *Solver) grow(nVars int) {
	for len(s.level) < nVars {
		s.litVal = append(s.litVal, lUndef, lUndef)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, noReason)
		s.phase = append(s.phase, false)
		s.activity = append(s.activity, 0)
		s.seen = append(s.seen, false)
		s.watches = append(s.watches, nil, nil)
	}
}

// NumVars returns the variable count.
func (s *Solver) NumVars() int { return len(s.level) }

// NewVar adds a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	s.grow(len(s.level) + 1)
	return len(s.level) - 1
}

// AddClause adds a clause; it returns false if the clause makes the
// formula trivially unsatisfiable. Literals over unseen variables
// grow the solver. It backtracks to level 0 first, discarding the
// model of an earlier Sat.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	s.cancelUntil(0)
	for _, l := range lits {
		if l.Var() >= len(s.level) {
			s.grow(l.Var() + 1)
		}
	}
	// Simplify straight into the arena: drop duplicate/false
	// literals, detect tautology, and roll the arena back when the
	// clause is not stored.
	cr := len(s.arena)
	s.arena = append(s.arena, 0)
	for _, l := range lits {
		switch s.litVal[l] {
		case lTrue:
			s.arena = s.arena[:cr]
			return true // already satisfied at level 0
		case lFalse:
			continue
		}
		dup := false
		for _, o := range s.arena[cr+1:] {
			if o == l {
				dup = true
			}
			if o == l.Not() {
				s.arena = s.arena[:cr]
				return true // tautology
			}
		}
		if !dup {
			s.arena = append(s.arena, l)
		}
	}
	n := len(s.arena) - cr - 1
	switch n {
	case 0:
		s.arena = s.arena[:cr]
		s.unsat = true
		return false
	case 1:
		u := s.arena[cr+1]
		s.arena = s.arena[:cr]
		if !s.enqueue(u, noReason) {
			s.unsat = true
			return false
		}
		return s.propagate() == noReason || s.markUnsat()
	}
	s.arena[cr] = Lit(n)
	s.attach(int32(cr))
	return true
}

func (s *Solver) markUnsat() bool {
	s.unsat = true
	return false
}

// lits returns the literals of the clause at offset cr, aliasing the
// arena.
func (s *Solver) lits(cr int32) []Lit {
	return s.arena[cr+1 : cr+1+int32(s.arena[cr])]
}

// attach watches the clause at offset cr on its first two literals.
func (s *Solver) attach(cr int32) {
	c := s.lits(cr)
	s.watches[c[0].Not()] = append(s.watches[c[0].Not()], cr)
	s.watches[c[1].Not()] = append(s.watches[c[1].Not()], cr)
}

func (s *Solver) enqueue(l Lit, from int32) bool {
	switch s.litVal[l] {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	s.litVal[l] = lTrue
	s.litVal[l.Not()] = lFalse
	s.level[l.Var()] = int32(len(s.trailLim))
	s.reason[l.Var()] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; it returns the offset of the
// conflicting clause or noReason.
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		falseLit := p.Not()
		// Compact watches[p] in place: i reads, j writes, survivors
		// keep their order. No append below can reach watches[p]: a
		// replacement watch is a non-false literal c[1], filed under
		// c[1].Not(), and c[1] == ¬p is impossible because ¬p is
		// false. So ws stays the list's only view while it is walked.
		ws := s.watches[p]
		i, j := 0, 0
		for i < len(ws) {
			cr := ws[i]
			i++
			c := s.lits(cr)
			// Normalise: the watched literal being falsified is
			// p.Not(); make it c[1].
			if c[0] == falseLit {
				c[0], c[1] = c[1], falseLit
			}
			if s.litVal[c[0]] == lTrue {
				ws[j] = cr
				j++
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(c); k++ {
				if s.litVal[c[k]] != lFalse {
					c[1], c[k] = c[k], c[1]
					s.watches[c[1].Not()] = append(s.watches[c[1].Not()], cr)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflicting.
			ws[j] = cr
			j++
			if s.litVal[c[0]] == lFalse {
				// Conflict: keep the unvisited tail and report.
				j += copy(ws[j:], ws[i:])
				s.watches[p] = ws[:j]
				return cr
			}
			s.enqueue(c[0], cr)
		}
		s.watches[p] = ws[:j]
	}
	return noReason
}

// analyze performs first-UIP conflict analysis into s.learnt
// (asserting literal first) and returns the backjump level.
func (s *Solver) analyze(confl int32) int {
	s.learnt = append(s.learnt[:0], 0) // slot for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	curLevel := int32(len(s.trailLim))

	for {
		for _, q := range s.lits(confl) {
			if p >= 0 && q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == curLevel {
				counter++
			} else {
				s.learnt = append(s.learnt, q)
			}
		}
		// Pick the next literal to expand from the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt := s.learnt
	learnt[0] = p.Not()

	// Backjump level: highest level among the other literals.
	back := 0
	for i := 1; i < len(learnt); i++ {
		if int(s.level[learnt[i].Var()]) > back {
			back = int(s.level[learnt[i].Var()])
		}
	}
	// Move a literal of the backjump level into the second watch slot.
	if len(learnt) > 1 {
		mi := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[mi].Var()] {
				mi = i
			}
		}
		learnt[1], learnt[mi] = learnt[mi], learnt[1]
	}
	for i := 1; i < len(learnt); i++ {
		s.seen[learnt[i].Var()] = false
	}
	return back
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// cancelUntil undoes assignments above the given level.
func (s *Solver) cancelUntil(level int) {
	if len(s.trailLim) <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		l := s.trail[i]
		s.phase[l.Var()] = !l.Neg()
		s.litVal[l] = lUndef
		s.litVal[l.Not()] = lUndef
		s.reason[l.Var()] = noReason
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// pickBranch returns the unassigned variable with the highest
// activity, the lowest index on ties (linear scan; adequate at the
// CNF sizes we produce).
func (s *Solver) pickBranch() int {
	best, bestAct := -1, -1.0
	for v := 0; v < len(s.activity); v++ {
		if s.litVal[v<<1] == lUndef && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

// luby computes the Luby restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i >= 1<<uint(k-1) && i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// Solve runs the CDCL loop under the given assumptions. It returns
// Sat, Unsat, or Unknown when the conflict budget is exhausted. It
// backtracks to level 0 first, so each call searches afresh from the
// clauses, learnt ones included.
func (s *Solver) Solve(assumptions ...Lit) Status {
	s.cancelUntil(0)
	if s.unsat {
		return Unsat
	}
	if s.propagate() != noReason {
		s.unsat = true
		return Unsat
	}

	restart := int64(1)
	conflictsAtRestart := int64(0)
	restartLimit := luby(restart) * 64

	for {
		// (Re)assume after any restart.
		for len(s.trailLim) < len(assumptions) {
			a := assumptions[len(s.trailLim)]
			switch s.litVal[a] {
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				s.cancelUntil(0)
				return Unsat
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.enqueue(a, noReason)
			if s.propagate() != noReason {
				s.cancelUntil(0)
				return Unsat
			}
		}

		v := s.pickBranch()
		if v < 0 {
			return Sat
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(MkLit(v, !s.phase[v]), noReason)

		for {
			confl := s.propagate()
			if confl == noReason {
				break
			}
			s.conflic++
			conflictsAtRestart++
			if len(s.trailLim) <= len(assumptions) {
				s.cancelUntil(0)
				if len(assumptions) == 0 {
					s.unsat = true
				}
				return Unsat
			}
			if s.Budget > 0 && s.conflic > s.Budget {
				s.cancelUntil(0)
				return Unknown
			}
			back := s.analyze(confl)
			if back < len(assumptions) {
				back = len(assumptions)
			}
			s.cancelUntil(back)
			if len(s.learnt) == 1 {
				s.cancelUntil(0)
				if !s.enqueue(s.learnt[0], noReason) || s.propagate() != noReason {
					s.unsat = true
					return Unsat
				}
				break
			}
			cr := int32(len(s.arena))
			s.arena = append(s.arena, Lit(len(s.learnt)))
			s.arena = append(s.arena, s.learnt...)
			s.attach(cr)
			if !s.enqueue(s.learnt[0], cr) {
				s.unsat = true
				return Unsat
			}
			s.varInc *= 1.05
		}

		if conflictsAtRestart >= restartLimit {
			conflictsAtRestart = 0
			restart++
			restartLimit = luby(restart) * 64
			s.cancelUntil(0)
		}
	}
}

// Value returns the model value of variable v after Sat. The model
// is valid until the next AddClause or Solve.
func (s *Solver) Value(v int) bool { return s.litVal[v<<1] == lTrue }

// Conflicts returns the total conflicts encountered (statistics).
func (s *Solver) Conflicts() int64 { return s.conflic }
