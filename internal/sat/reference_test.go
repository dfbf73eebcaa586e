package sat

// This file keeps a verbatim copy of the solver as it was before the
// flat clause arena, in-place watch compaction and per-literal value
// table, with its identifiers renamed (Solver → refSolver, clause →
// refClause, New → newRef, luby → refLuby) and the never-used order
// field dropped. It is the search-identity oracle: on a fresh solver
// and one Solve, the production solver must reach the same status,
// the same Conflicts() and the same model. Do not edit its search; a
// change here weakens the oracle.
//
// The copy does not backtrack to level 0 before AddClause or a second
// Solve, so it is only meaningful for one Solve per solver, the way
// cec uses the solver.

// refClause is a disjunction of literals.
type refClause struct {
	lits   []Lit
	learnt bool
}

// refSolver is the reference solver. Create with newRef, add clauses,
// then call Solve once.
type refSolver struct {
	clauses []*refClause
	watches [][]*refClause // literal -> clauses watching it

	assign   []lbool
	level    []int32
	reason   []*refClause
	phase    []bool // saved phases
	activity []float64
	varInc   float64

	trail    []Lit
	trailLim []int
	qhead    int

	seen    []bool
	conflic int64

	// Budget caps the number of conflicts before Solve gives up with
	// Unknown (0 = unlimited).
	Budget int64

	unsat bool
}

// newRef returns a reference solver over nVars variables.
func newRef(nVars int) *refSolver {
	s := &refSolver{varInc: 1}
	s.grow(nVars)
	return s
}

func (s *refSolver) grow(nVars int) {
	for len(s.assign) < nVars {
		s.assign = append(s.assign, lUndef)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, nil)
		s.phase = append(s.phase, false)
		s.activity = append(s.activity, 0)
		s.seen = append(s.seen, false)
		s.watches = append(s.watches, nil, nil)
	}
}

// NumVars returns the variable count.
func (s *refSolver) NumVars() int { return len(s.assign) }

// NewVar adds a fresh variable and returns its index.
func (s *refSolver) NewVar() int {
	s.grow(len(s.assign) + 1)
	return len(s.assign) - 1
}

// AddClause adds a clause; it returns false if the clause makes the
// formula trivially unsatisfiable. Literals over unseen variables
// grow the solver.
func (s *refSolver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	for _, l := range lits {
		if l.Var() >= len(s.assign) {
			s.grow(l.Var() + 1)
		}
	}
	// Simplify: drop duplicate/false literals, detect tautology.
	var cl []Lit
	for _, l := range lits {
		switch s.valueLit(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			continue
		}
		dup := false
		for _, o := range cl {
			if o == l {
				dup = true
			}
			if o == l.Not() {
				return true // tautology
			}
		}
		if !dup {
			cl = append(cl, l)
		}
	}
	switch len(cl) {
	case 0:
		s.unsat = true
		return false
	case 1:
		if !s.enqueue(cl[0], nil) {
			s.unsat = true
			return false
		}
		return s.propagate() == nil || s.markUnsat()
	}
	c := &refClause{lits: cl}
	s.attach(c)
	s.clauses = append(s.clauses, c)
	return true
}

func (s *refSolver) markUnsat() bool {
	s.unsat = true
	return false
}

func (s *refSolver) attach(c *refClause) {
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], c)
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
}

func (s *refSolver) valueLit(l Lit) lbool {
	v := s.assign[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Neg() {
		if v == lTrue {
			return lFalse
		}
		return lTrue
	}
	return v
}

func (s *refSolver) enqueue(l Lit, from *refClause) bool {
	switch s.valueLit(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	if l.Neg() {
		s.assign[l.Var()] = lFalse
	} else {
		s.assign[l.Var()] = lTrue
	}
	s.level[l.Var()] = int32(len(s.trailLim))
	s.reason[l.Var()] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; it returns the conflicting
// clause or nil.
func (s *refSolver) propagate() *refClause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[p]
		s.watches[p] = ws[:0:0] // detach; re-add the keepers
		var kept []*refClause
		for wi := 0; wi < len(ws); wi++ {
			c := ws[wi]
			// Normalise: watched literal being falsified is p.Not();
			// make it lits[1].
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.valueLit(c.lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.valueLit(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflicting.
			kept = append(kept, c)
			if !s.enqueue(c.lits[0], c) {
				// Conflict: restore remaining watches and report.
				kept = append(kept, ws[wi+1:]...)
				s.watches[p] = append(s.watches[p], kept...)
				return c
			}
		}
		s.watches[p] = append(s.watches[p], kept...)
	}
	return nil
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first) and the backjump level.
func (s *refSolver) analyze(confl *refClause) ([]Lit, int) {
	learnt := []Lit{0} // slot for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	curLevel := len(s.trailLim)

	for {
		for _, q := range confl.lits {
			if p >= 0 && q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) == curLevel {
				counter++
			} else {
				learnt = append(learnt, q)
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
	return learnt, back
}

func (s *refSolver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// cancelUntil undoes assignments above the given level.
func (s *refSolver) cancelUntil(level int) {
	if len(s.trailLim) <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = nil
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// pickBranch returns the unassigned variable with the highest
// activity (linear scan; adequate at the CNF sizes we produce).
func (s *refSolver) pickBranch() int {
	best, bestAct := -1, -1.0
	for v := 0; v < len(s.assign); v++ {
		if s.assign[v] == lUndef && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

// luby computes the Luby restart sequence.
func refLuby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i >= 1<<uint(k-1) && i < (1<<uint(k))-1 {
			return refLuby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// Solve runs the CDCL loop under the given assumptions. It returns
// Sat, Unsat, or Unknown when the conflict budget is exhausted.
func (s *refSolver) Solve(assumptions ...Lit) Status {
	if s.unsat {
		return Unsat
	}
	if c := s.propagate(); c != nil {
		s.unsat = true
		return Unsat
	}

	restart := int64(1)
	conflictsAtRestart := int64(0)
	restartLimit := refLuby(restart) * 64

	for {
		// (Re)assume after any restart.
		for len(s.trailLim) < len(assumptions) {
			a := assumptions[len(s.trailLim)]
			switch s.valueLit(a) {
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				s.cancelUntil(0)
				return Unsat
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.enqueue(a, nil)
			if c := s.propagate(); c != nil {
				s.cancelUntil(0)
				return Unsat
			}
		}

		v := s.pickBranch()
		if v < 0 {
			return Sat
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(MkLit(v, !s.phase[v]), nil)

		for {
			confl := s.propagate()
			if confl == nil {
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
			learnt, back := s.analyze(confl)
			if back < len(assumptions) {
				back = len(assumptions)
			}
			s.cancelUntil(back)
			if len(learnt) == 1 {
				s.cancelUntil(0)
				if !s.enqueue(learnt[0], nil) || s.propagate() != nil {
					s.unsat = true
					return Unsat
				}
				break
			}
			c := &refClause{lits: learnt, learnt: true}
			s.attach(c)
			s.clauses = append(s.clauses, c)
			if !s.enqueue(learnt[0], c) {
				s.unsat = true
				return Unsat
			}
			s.varInc *= 1.05
		}

		if conflictsAtRestart >= restartLimit {
			conflictsAtRestart = 0
			restart++
			restartLimit = refLuby(restart) * 64
			s.cancelUntil(0)
		}
	}
}

// Value returns the model value of variable v after Sat.
func (s *refSolver) Value(v int) bool { return s.assign[v] == lTrue }

// Conflicts returns the total conflicts encountered (statistics).
func (s *refSolver) Conflicts() int64 { return s.conflic }
