package core

// Incremental clause groups (Eén/Sörensson-style activation literals).
//
// A persistent enumerator can serve a sequence of targets against one
// fixed circuit encoding: the caller allocates fresh variables with
// NewVar, opens a clause group with BeginGroup, adds the target clauses
// gated on a fresh activation literal act (every group clause contains
// ¬act) with AddGroupClause, enumerates under the assumption act, and
// finally retires the group with RetireGroup(¬act, vars). The unit ¬act
// permanently satisfies every group clause, so the group can be
// tombstoned in the solver's arena (positions kept) and dropped from the
// occurrence lists without changing the formula's models; learned
// clauses derived while act was assumable contain ¬act (or only circuit
// literals) and remain implied by the remaining formula, so they are
// retained unless they mention a retired variable — the solver drops
// those, since with ¬act forced they are permanently satisfied and would
// only burden the watch lists.
//
// Memo soundness across retargeting: a memo entry's signature hashes the
// exact set of (clause, falsified-literal) pairs of the unsatisfied
// clauses. Entries stored while every group clause was already satisfied
// have residuals drawn purely from the permanent circuit clauses and
// stay valid forever. Entries whose residual still contained a live
// group clause (dynUnsat > 0 at store time) are tracked in stepSigs and
// deleted at retirement: after ¬act their clause ids are permanently
// satisfied, so the signature could never be probed again and the entry
// is dead weight.

import (
	"fmt"
	"slices"

	"allsatpre/internal/cnf"
	"allsatpre/internal/lit"
)

// RetireStats reports what RetireGroup removed and kept.
type RetireStats struct {
	// OrigRetired is the number of group clauses retired: tombstoned, or
	// never stored because the root assignment already settled them.
	OrigRetired int
	// LearnedKept / LearnedDropped split the learned-clause database at
	// retirement: kept clauses mention no retired variable and survive
	// into the next step.
	LearnedKept    int
	LearnedDropped int
	// MemoInvalidated counts memo entries whose residual signature
	// embedded a live group clause and had to be deleted.
	MemoInvalidated int
	// VarsRetired is len(vars) as passed by the caller (activation +
	// selector variables of the group).
	VarsRetired int
}

// NumVars reports the enumerator's current variable count.
func (e *Enumerator) NumVars() int { return e.s.NumVars() }

// MemoSize reports the current number of success-memo entries.
func (e *Enumerator) MemoSize() int { return len(e.memo) }

// LearnedCount reports the current learned-clause count.
func (e *Enumerator) LearnedCount() int { return e.s.NumLearnts() }

// LearnedLits reports the total literal count of the live learned
// clauses — the retained-learnt footprint a persistent session carries
// across retargetings (clause counts alone hide clause length).
func (e *Enumerator) LearnedLits() int { return e.s.LearntLits() }

// NewVar allocates a fresh variable (for activation literals and
// per-step selectors). The variable is not a projection variable and
// does not enter the BDD manager's order.
func (e *Enumerator) NewVar() lit.Var {
	e.isProj = append(e.isProj, false)
	e.occ = append(e.occ, nil, nil)
	return e.s.NewVar()
}

// AddClause installs a permanent clause at the root level between
// enumeration calls. It reports false when the addition (or prior state)
// makes the formula UNSAT at the root.
func (e *Enumerator) AddClause(lits ...lit.Lit) bool {
	return e.addDynamic(lits, 0)
}

// BeginGroup opens a new clause group. Only one group may be open at a
// time; it must be closed with RetireGroup before the next BeginGroup.
func (e *Enumerator) BeginGroup() {
	if e.curGroup != 0 {
		panic("core: BeginGroup with a group already open")
	}
	e.nextGroup++
	e.curGroup = e.nextGroup
	e.groupClauses = e.groupClauses[:0]
	e.groupAdded = 0
}

// AddGroupClause installs a clause belonging to the open group. Every
// group clause must contain the negated activation literal that will
// later be passed to RetireGroup, so that the retirement unit satisfies
// it permanently.
func (e *Enumerator) AddGroupClause(lits ...lit.Lit) bool {
	if e.curGroup == 0 {
		panic("core: AddGroupClause without BeginGroup")
	}
	return e.addDynamic(lits, e.curGroup)
}

// addDynamic normalizes and installs one clause at the root. The solver
// settles it against the root assignment: a clause with a root-true
// literal is not stored, root-false literals are dropped, and a clause
// left unit is propagated at once. A stored clause therefore starts with
// every literal unassigned — unsatisfied, no falsity keys — so the
// residual signature of a later partial assignment matches what a fresh
// enumerator over the same clauses would compute.
func (e *Enumerator) addDynamic(ls []lit.Lit, group int32) bool {
	if e.s.Level() != 0 {
		panic("core: clause added above the root level")
	}
	if e.rootUnsat {
		return false
	}
	nc, taut := cnf.Clause(ls).Normalize()
	if taut {
		return true
	}
	for _, l := range nc {
		if int(l.Var()) >= e.s.NumVars() {
			panic(fmt.Sprintf("core: clause literal %v outside formula; call NewVar first", l))
		}
	}
	if group != 0 {
		e.groupAdded++
	}
	ci := int32(e.s.NumClauses())
	if !e.s.AddClause(nc...) {
		e.rootUnsat = true
		return false
	}
	if int(ci) < e.s.NumClauses() {
		e.track(ci, group)
		e.litBuf = e.s.ClauseLits(int(ci), e.litBuf)
		for _, l := range e.litBuf {
			e.occ[l] = append(e.occ[l], ci)
		}
		if group != 0 {
			e.groupClauses = append(e.groupClauses, ci)
		}
	}
	e.sync()
	return true
}

// RetireGroup closes the open group: unit is the negated activation
// literal (every group clause contains it), vars are the variables
// private to the group (activation + selectors). The unit is added as a
// permanent clause, the group's clauses leave the occurrence lists and
// are tombstoned in the solver, learned clauses mentioning a retired
// variable are dropped, and memo entries whose residual embedded a live
// group clause are invalidated. Must be called at the root with no
// enumeration in flight.
func (e *Enumerator) RetireGroup(unit lit.Lit, vars []lit.Var) RetireStats {
	var out RetireStats
	if e.curGroup == 0 {
		panic("core: RetireGroup without an open group")
	}
	if e.s.Level() != 0 {
		panic("core: RetireGroup above the root level")
	}
	e.curGroup = 0
	out.VarsRetired = len(vars)
	group := e.groupClauses
	e.groupClauses = e.groupClauses[:0]
	if !e.AddClause(unit) {
		// Root-UNSAT; nothing else can run on this enumerator.
		return out
	}
	// The unit made every group clause root-satisfied, so removal changes
	// no model and invalidates no learned clause. A group clause still
	// unsatisfied would lack the gating literal — a protocol violation;
	// it stays live rather than unsoundly deleting a constraint.
	retire := group[:0]
	for _, ci := range group {
		if e.satBy[ci] < 0 {
			continue
		}
		e.litBuf = e.s.ClauseLits(int(ci), e.litBuf)
		for _, l := range e.litBuf {
			e.occ[l] = slices.DeleteFunc(e.occ[l], func(x int32) bool { return x == ci })
		}
		retire = append(retire, ci)
	}
	out.OrigRetired = e.groupAdded - (len(group) - len(retire))
	out.LearnedDropped = e.s.RetireClauses(retire, vars)
	out.LearnedKept = e.s.NumLearnts()
	// Invalidate memo entries whose residual embedded a group clause.
	for _, s := range e.stepSigs {
		if _, ok := e.memo[s]; ok {
			delete(e.memo, s)
			out.MemoInvalidated++
		}
	}
	e.stepSigs = e.stepSigs[:0]
	return out
}
