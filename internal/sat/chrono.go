package sat

import (
	"allsatpre/internal/budget"
	"allsatpre/internal/lit"
)

// ChronoEnum enumerates the projections of a formula's models as
// pairwise-disjoint cubes without ever adding a blocking clause, in the
// style of Spallitta/Sebastiani/Biere's disjoint partial enumeration:
// after each emitted cube (and after each conflict) the search advances by
// flipping the deepest relevant decision in place — chronological
// backtracking — instead of learning a clause that excludes the region.
// The clause database therefore stays O(1) in the number of solutions;
// only ordinary first-UIP conflict clauses (implied by the formula, never
// by the enumeration history) are retained, and those are subject to the
// usual activity-based reduction.
//
// The enumeration discipline:
//
//   - Projection variables are decided strictly before auxiliary ones
//     (auxiliary decisions use the solver's VSIDS order). Because a flip
//     replaces a decision with its negation at the same level, levels
//     1..p always carry projection decisions and levels p+1..d auxiliary
//     ones — the projection-prefix invariant.
//   - When every problem clause is satisfied by the current trail, the
//     model is shrunk to an implicant: b_raw is the deepest level any
//     clause needs for a satisfying literal (tracked by a per-clause
//     occurrence index, the lifting idea applied during search). The
//     emitted cube keeps the projection literals at levels ≤ b where
//     b = min(max(b_raw, fproj), p), fproj being the deepest flipped
//     projection level: clamping up to fproj keeps cubes disjoint (a cube
//     may never free a literal whose negation separates it from an
//     already-emitted region), clamping down to p drops the auxiliary
//     suffix (one witness per projection region suffices).
//   - Advancing pops to level b, discards flipped levels, and flips the
//     deepest unflipped decision; when none remains the space is
//     exhausted.
//
// A ChronoEnum owns its solver for the duration of the enumeration: do
// not interleave Solve or AddClause calls with Next.
type ChronoEnum struct {
	s    *Solver
	proj []lit.Var

	isProj []bool // by var, sized at creation (no new vars appear)

	// Satisfaction bookkeeping over the problem clauses at creation time.
	// satBy[ci] is the trail index of the first (hence lowest-level)
	// satisfying literal of clause ci, -1 while none; satHead is the trail
	// prefix already folded in; unsatCnt counts clauses with satBy < 0.
	//
	// clauses SHARES the solver's problem-clause slice: the occurrence
	// lists hold positions into it, and arena compaction (reachable from
	// learnAttached's reduceDB) rewrites the crefs in place position-preserving
	// precisely so these indexes survive.
	clauses  []cref
	occ      [][]int32 // literal -> clause indexes
	satBy    []int32
	satHead  int
	unsatCnt int

	flipped []bool    // by decision level (flipped[l-1] for level l)
	cube    []lit.Lit // projection literals of the last emitted cube

	exhausted        bool
	stopped          bool
	conflictsAtStart uint64
}

// NewChronoEnum prepares a chronological enumeration of the projections
// of s's clause set onto proj. The solver must be at decision level 0;
// the enumerator takes ownership of it until the enumeration ends. The
// solver's MaxConflicts option and Budget bound the whole enumeration
// (Next then answers Unknown and StopReason reports the limit).
func NewChronoEnum(s *Solver, proj []lit.Var) *ChronoEnum {
	if s.decisionLevel() != 0 {
		panic("sat: NewChronoEnum above decision level 0")
	}
	maxVar := 0
	for _, v := range proj {
		if int(v)+1 > maxVar {
			maxVar = int(v) + 1
		}
	}
	s.EnsureVars(maxVar)
	e := &ChronoEnum{
		s:    s,
		proj: append([]lit.Var(nil), proj...),
	}
	e.isProj = make([]bool, s.NumVars())
	for _, v := range proj {
		e.isProj[v] = true
	}
	e.clauses = s.clauses
	e.occ = s.Occurrences()
	e.satBy = make([]int32, len(e.clauses))
	for ci := range e.satBy {
		e.satBy[ci] = -1
	}
	e.unsatCnt = len(e.clauses)
	e.conflictsAtStart = s.stats.Conflicts
	s.resetLearntCap()
	return e
}

// Next advances to the next solution cube. Sat means a cube is available
// via Cube; Unsat means the projection space is exhausted (the cubes seen
// so far are exactly the projection); Unknown means a resource limit
// tripped (StopReason tells which) and the cubes so far under-approximate
// the projection.
func (e *ChronoEnum) Next() Status {
	s := e.s
	if !s.okay || e.exhausted {
		return Unsat
	}
	if e.stopped {
		return Unknown
	}
	if s.check == nil && !s.opts.Budget.IsZero() {
		s.check = s.opts.Budget.Start()
	}
	// Immediate (non-amortized) check at every cube boundary, matching
	// Solve's entry check: enumeration between solutions can be
	// conflict-free, and the amortized polls below would let a cancelled
	// context go unnoticed for hundreds of cheap cubes otherwise.
	if s.check != nil {
		if r := s.check.Now(); r != budget.None {
			s.stopReason = r
			e.stopped = true
			return Unknown
		}
	}
	for {
		confl := s.propagate()
		if confl != crefUndef {
			s.stats.Conflicts++
			if s.decisionLevel() == 0 {
				s.okay = false
				e.exhausted = true
				return Unsat
			}
			// Amortized budget poll on the conflict path, mirroring the
			// CDCL search loop: a consecutive-conflict streak must not
			// overshoot the caps unboundedly.
			if s.stats.Conflicts&63 == 0 && s.limitExceeded(e.conflictsAtStart) {
				e.stopped = true
				return Unknown
			}
			s.learnAttached(confl)
			if !e.advance() {
				e.exhausted = true
				return Unsat
			}
			continue
		}
		e.syncSat()
		if e.unsatCnt == 0 {
			e.emit()
			return Sat
		}
		if s.limitExceeded(e.conflictsAtStart) {
			e.stopped = true
			return Unknown
		}
		next := e.pickDecision()
		if !next.IsDef() {
			// A conflict-free propagation fixpoint over a total assignment
			// satisfies every clause, so unsatCnt must have been zero.
			panic("sat: chrono fixpoint left a clause unsatisfied")
		}
		s.newDecisionLevel()
		e.flipped = append(e.flipped, false)
		s.stats.Decisions++
		s.uncheckedEnqueue(next, crefUndef)
	}
}

// Cube returns the projection literals of the cube produced by the last
// Sat answer. The slice is reused by the next Next call.
func (e *ChronoEnum) Cube() []lit.Lit { return e.cube }

// Exhausted reports whether the enumeration has covered the whole
// projection (as opposed to having been stopped by a budget).
func (e *ChronoEnum) Exhausted() bool { return e.exhausted }

// StopReason reports why Next returned Unknown (budget.None otherwise).
func (e *ChronoEnum) StopReason() budget.Reason { return e.s.stopReason }

func (e *ChronoEnum) projVar(v lit.Var) bool {
	return int(v) < len(e.isProj) && e.isProj[v]
}

// pickDecision decides the first unassigned projection variable (saved
// phase), falling back to VSIDS over the auxiliaries once the projection
// is total — the decision discipline behind the prefix invariant.
func (e *ChronoEnum) pickDecision() lit.Lit {
	s := e.s
	for _, v := range e.proj {
		if s.assign[v] == lit.Unknown {
			return lit.New(v, s.polarity[v])
		}
	}
	return s.pickBranchLit()
}

// syncSat folds newly assigned trail literals into the satisfied-clause
// index. Called only at propagation fixpoints, so the fold is linear and
// each trail position is processed once per assign/unassign cycle.
func (e *ChronoEnum) syncSat() {
	s := e.s
	for ; e.satHead < len(s.trail); e.satHead++ {
		l := s.trail[e.satHead]
		for _, ci := range e.occ[l] {
			if e.satBy[ci] < 0 {
				e.satBy[ci] = int32(e.satHead)
				e.unsatCnt--
			}
		}
	}
}

// cancelToLevel is the enumerator's backtrack: it unwinds the satisfied-
// clause index over the removed trail suffix, then delegates to the
// solver and trims the per-level flip flags. All backtracking during an
// enumeration must go through here.
func (e *ChronoEnum) cancelToLevel(level int) {
	s := e.s
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	if e.satHead > bound {
		for i := e.satHead - 1; i >= bound; i-- {
			l := s.trail[i]
			for _, ci := range e.occ[l] {
				if e.satBy[ci] == int32(i) {
					e.satBy[ci] = -1
					e.unsatCnt++
				}
			}
		}
		e.satHead = bound
	}
	s.cancelUntil(level)
	e.flipped = e.flipped[:level]
}

// advance pops flipped levels off the top and flips the deepest unflipped
// decision in place (same level, negated literal, no reason). It returns
// false when every level is flipped — the search tree is exhausted.
func (e *ChronoEnum) advance() bool {
	s := e.s
	for s.decisionLevel() > 0 && e.flipped[s.decisionLevel()-1] {
		e.cancelToLevel(s.decisionLevel() - 1)
	}
	d := s.decisionLevel()
	if d == 0 {
		return false
	}
	dec := s.trail[s.trailLim[d-1]]
	e.cancelToLevel(d - 1)
	s.newDecisionLevel()
	e.flipped = append(e.flipped, true)
	s.uncheckedEnqueue(dec.Not(), crefUndef)
	return true
}

// emit shrinks the current (all-clauses-satisfied) trail into a cube and
// advances past the region it covers. Soundness: every clause holds a
// satisfying literal at level ≤ b, so any completion of the level-≤b
// prefix — in particular any projection extending the cube completed with
// the prefix's auxiliary literals — is a model. Disjointness: the cube
// retains every flipped projection decision, and each future region
// carries the negation of the decision flipped here, so no later cube can
// intersect this one.
func (e *ChronoEnum) emit() {
	s := e.s
	d := s.decisionLevel()
	b := 0
	for ci := range e.clauses {
		if lv := s.level[s.trail[e.satBy[ci]].Var()]; lv > b {
			b = lv
		}
	}
	p, fproj := 0, 0
	for l := 1; l <= d; l++ {
		if !e.projVar(s.trail[s.trailLim[l-1]].Var()) {
			break // auxiliary suffix starts here (prefix invariant)
		}
		p = l
		if e.flipped[l-1] {
			fproj = l
		}
	}
	if b < fproj {
		b = fproj
	}
	if b > p {
		b = p
	}
	end := len(s.trail)
	if b < d {
		end = s.trailLim[b]
	}
	e.cube = e.cube[:0]
	for _, l := range s.trail[:end] {
		if e.projVar(l.Var()) {
			e.cube = append(e.cube, l)
		}
	}
	e.cancelToLevel(b)
	if !e.advance() {
		e.exhausted = true
	}
}
