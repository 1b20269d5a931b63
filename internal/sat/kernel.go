package sat

import (
	"slices"

	"allsatpre/internal/lit"
)

// The kernel surface: a search driver that makes its own decisions — the
// success-driven enumerator in internal/core, which decides projection
// variables in a static order, explores both phases and memoizes
// subproblems — runs on this solver's clause arena, propagation,
// conflict analysis, tiered learnt database and final-conflict analysis
// through the methods below. The driver owns the solver while it runs:
// no Solve calls in between. It keys its per-clause state by
// problem-clause position, which nothing in the solver ever shifts.

// Level returns the current decision level.
func (s *Solver) Level() int { return len(s.trailLim) }

// Trail returns the assigned literals in assignment order. The slice
// aliases solver state: read it, do not keep it across an assignment or
// a backtrack.
func (s *Solver) Trail() []lit.Lit { return s.trail }

// LevelStart returns the trail index of the first literal assigned at
// decision level d ≥ 1.
func (s *Solver) LevelStart(d int) int { return s.trailLim[d-1] }

// Decide opens a new decision level and assigns l true at it. l must be
// unassigned.
func (s *Solver) Decide(l lit.Lit) {
	s.newDecisionLevel()
	s.uncheckedEnqueue(l, crefUndef)
}

// Propagate runs unit propagation to a fixpoint and reports whether it
// ended without a conflict. After a conflict the solver keeps the
// conflicting clause for Learn and AnalyzeFinal until the next
// Propagate; the caller backtracks with CancelUntil.
func (s *Solver) Propagate() bool {
	s.confl = s.propagate()
	return s.confl == crefUndef
}

// Learn derives a first-UIP clause from the last conflict and stores it
// attach-only (see learnAttached). Call it before backtracking, above
// decision level 0.
func (s *Solver) Learn() { s.learnAttached(s.confl) }

// CancelUntil backtracks to the given decision level.
func (s *Solver) CancelUntil(level int) { s.cancelUntil(level) }

// AnalyzeFinal computes which assumption decisions caused a failure
// while assumptions were being asserted (every decision level above the
// root holds an assumption). p is an assumption found already false; with
// lit.UndefLit the conflict of the last Propagate is analyzed instead.
// The result, read with Conflict or ConflictBuf, lists the negations of
// the responsible assumptions (with ¬p first when p is given); an empty
// result means the formula alone is inconsistent with the root.
func (s *Solver) AnalyzeFinal(p lit.Lit) {
	if p.IsDef() {
		s.analyzeFinal(p)
		return
	}
	s.conflictOut = s.conflictOut[:0]
	for _, w := range s.ca.lits(s.confl) {
		if v := lit.Lit(w).Var(); s.level[v] > 0 {
			s.seen[v] = 1
		}
	}
	s.collectFinal()
}

// ClauseLits appends the literals of problem clause i to dst[:0]. The
// order is the arena's current watch order, not the order of addition.
func (s *Solver) ClauseLits(i int, dst []lit.Lit) []lit.Lit {
	return s.ca.litsBuf(s.clauses[i], dst)
}

// Occurrences builds, for every literal, the positions of the problem
// clauses containing it. The lists are carved out of one exactly sized
// backing array with capped capacity, so a list that later grows by
// append reallocates instead of overwriting its neighbour.
func (s *Solver) Occurrences() [][]int32 {
	occ := make([][]int32, 2*len(s.assign))
	cnt := make([]int32, len(occ))
	total := 0
	for _, c := range s.clauses {
		for _, w := range s.ca.lits(c) {
			cnt[w]++
		}
		total += s.ca.size(c)
	}
	back := make([]int32, total)
	pos := 0
	for l, n := range cnt {
		occ[l] = back[pos : pos : pos+int(n)]
		pos += int(n)
	}
	for ci, c := range s.clauses {
		for _, w := range s.ca.lits(c) {
			occ[w] = append(occ[w], int32(ci))
		}
	}
	return occ
}

// LearntLits returns the literal count of the live learnt clauses.
func (s *Solver) LearntLits() int {
	return int(s.learntWords) - 3*len(s.learnts)
}

// RetireClauses permanently removes the problem clauses at positions idx
// and every learnt clause that mentions one of vars. It serves clause
// groups retired by a unit that satisfies all of them at the root: the
// removal changes no model, and a learnt clause over a retired variable
// is either satisfied for good or mentions a variable no clause
// constrains any more. Problem clauses are tombstoned in place, so every
// other clause keeps its position. Must be called at decision level 0.
// It returns the number of learnt clauses removed.
func (s *Solver) RetireClauses(idx []int32, vars []lit.Var) (dropped int) {
	if s.decisionLevel() != 0 {
		panic("sat: RetireClauses above decision level 0")
	}
	binary := false
	for _, i := range idx {
		c := s.clauses[i]
		binary = binary || s.ca.size(c) == 2
		s.ca.setDeleted(c)
	}
	for _, v := range vars {
		s.seen[v] = 1
	}
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if slices.ContainsFunc(s.ca.lits(c), func(w uint32) bool { return s.seen[lit.Lit(w).Var()] != 0 }) {
			binary = binary || s.ca.size(c) == 2
			s.deleteLearnt(c)
			dropped++
			continue
		}
		kept = append(kept, c)
	}
	s.learnts = kept
	for _, v := range vars {
		s.seen[v] = 0
	}
	if binary {
		s.sweepBinWatches()
	}
	// A removed clause may be the reason of a root assignment, which
	// analysis never expands: forget it rather than keep a dangling cref.
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != crefUndef && s.ca.isDeleted(r) {
			s.reason[l.Var()] = crefUndef
		}
	}
	if s.ca.gcNeeded() {
		s.garbageCollect()
	}
	return dropped
}

// sweepBinWatches drops tombstoned clauses from the binary watch lists,
// which propagation reads without consulting clause headers.
func (s *Solver) sweepBinWatches() {
	for li := range s.binWatches {
		s.binWatches[li] = slices.DeleteFunc(s.binWatches[li], func(w binWatcher) bool {
			return s.ca.isDeleted(cref(w.c))
		})
	}
}
