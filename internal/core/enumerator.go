// Package core implements the paper's primary contribution: a SAT
// all-solutions enumerator specialized for preimage computation.
//
// Instead of the classical solve/block/repeat loop, the enumerator runs a
// structured DPLL search that branches only on the projection variables
// (present-state and primary-input variables of a preimage instance), in a
// fixed static order, and assembles the solution set directly as an ROBDD
// over those variables:
//
//   - The search runs on internal/sat's solver as its propagation kernel:
//     the clause arena, binary and two-watched-literal propagation, the
//     trail and backtracking are the solver's. The enumerator only makes
//     decisions; internal circuit variables are never decided, only
//     implied.
//   - When every original clause is satisfied, the remaining (unassigned)
//     projection variables are don't cares: the search returns the BDD
//     constant True, covering 2^k projections at once (cube enlargement).
//   - When both branches of a projection variable complete, the node
//     ITE(v, hi, lo) is built in the shared BDD manager, so the final
//     answer is the preimage as a canonical ROBDD — no blocking clauses
//     are ever added.
//   - Success-driven learning: every completed subproblem is memoized
//     under a canonical signature of its residual — the set of not-yet-
//     satisfied clauses restricted to their unassigned literals,
//     maintained as an incremental 128-bit Zobrist hash. When an
//     equivalent residual recurs — which is frequent in circuits with
//     reconvergent or replicated logic, and happens across sibling
//     branches whenever the decided variable has ceased to matter — the
//     stored solution sub-BDD is grafted in O(1) instead of re-searching.
//   - Conflict-driven learning is retained: a failed branch hands its
//     conflict to the solver, which derives a minimized first-UIP clause
//     and keeps it in its tiered learnt database (the same attach-only
//     path sat.ChronoEnum uses), reducing the database as it grows.
//     Learned clauses are used only for propagation and conflict
//     detection, never for the satisfaction test, so they cannot corrupt
//     the enumeration.
package core

import (
	"fmt"

	"allsatpre/internal/allsat"
	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	"allsatpre/internal/sat"
)

// Options tunes the success-driven enumerator.
type Options struct {
	// EnableMemo turns success-driven learning (subproblem memoization)
	// on. Default true via DefaultOptions.
	EnableMemo bool
	// EnableLearning turns conflict-clause learning on.
	EnableLearning bool
	// MemoLimit bounds the success-driven memo table: when the entry count
	// reaches the limit, the whole table is cleared (a clear-on-threshold
	// policy, counted in Stats.CacheClears), bounding memory on deep
	// enumerations at the price of re-deriving evicted subproblems. 0
	// selects DefaultMemoLimit; a negative value removes the bound.
	MemoLimit int
	// MaxDecisions aborts the enumeration once this many decisions have
	// been made (0 = unbounded). An aborted run returns an
	// under-approximation of the solution set, flagged in the result.
	MaxDecisions uint64
	// Budget imposes wall-clock, cancellation, decision, and BDD-node
	// limits on the enumeration. When it trips, the run aborts with the
	// portion of the solution set assembled so far — always a sound
	// under-approximation. The zero Budget is unbounded.
	Budget budget.Budget
	// OnDecision, when set, is polled once per projection decision; a
	// non-None reason aborts the enumeration like a tripped budget. The
	// parallel pool uses it to enforce a single global decision budget
	// across workers via a shared atomic counter.
	OnDecision func() budget.Reason
	// Manager, when non-nil, is used as the enumerator's solution-set
	// manager instead of constructing a fresh one. The caller must hand
	// it over empty (fresh or Reset) with its variable order equal to
	// space.Vars(); ownership passes to the enumerator until the caller
	// takes it back (e.g. a warm pool releasing it after the run).
	Manager *bdd.Manager
}

// DefaultOptions enables both learning mechanisms.
func DefaultOptions() Options {
	return Options{EnableMemo: true, EnableLearning: true}
}

// IsZero reports whether the options are the zero value, in which case
// callers substitute DefaultOptions. Field-wise because Options holds a
// function value and is not comparable.
func (o Options) IsZero() bool {
	return !o.EnableMemo && !o.EnableLearning &&
		o.MemoLimit == 0 && o.MaxDecisions == 0 && o.Budget.IsZero() &&
		o.OnDecision == nil && o.Manager == nil
}

// DefaultMemoLimit is the memo-table entry bound installed when
// Options.MemoLimit is zero. At roughly 24 bytes per entry this caps the
// table near 25 MB — far beyond what the benchmark circuits populate, so
// it only engages on pathological instances.
const DefaultMemoLimit = 1 << 20

// Enumerator is the success-driven all-solutions engine for one formula
// and projection. Create with New, run with Enumerate.
type Enumerator struct {
	opts Options

	// s is the propagation kernel: clause arena, watch lists, trail,
	// conflict analysis and the tiered learnt database. The enumerator
	// makes every decision itself and keys its per-clause state below by
	// problem-clause position in s (stable: the solver never shifts it).
	s *sat.Solver

	// Satisfied-clause bookkeeping over the problem clauses, folded in
	// from the trail lazily at propagation fixpoints (sync) and unwound
	// before every backtrack (backtrack). occ[l] lists the clauses
	// containing literal l; satBy[ci] is the trail index that satisfied
	// clause ci, -1 while none; satHead is the trail prefix folded in.
	occ      [][]int32
	satBy    []int32
	satHead  int
	unsatCnt int

	// Residual-subproblem signature (success-driven learning). The
	// residual of a search state is the set of not-yet-satisfied problem
	// clauses, each restricted to its unassigned literals; it exactly
	// determines the solution set over the remaining projection
	// variables. resid is a 128-bit Zobrist hash of that residual,
	// maintained incrementally: contrib[ci] is clause ci's current
	// contribution (base key ⊕ keys of its falsified literals), XORed
	// into resid while the clause is unsatisfied.
	resid   sig128
	contrib []sig128

	proj   []lit.Var
	isProj []bool
	space  *cube.Space

	man       *bdd.Manager
	memo      map[sig128]bdd.Ref
	memoLimit int // resolved MemoLimit; 0 = unbounded

	residScan   int  // rotating scan pointer for residualSAT
	aborted     bool // resource budget exhausted
	abortReason budget.Reason
	check       *budget.Checker // nil when the budget is unbounded

	// Incremental-clause state (see incr.go). groupOf tags each problem
	// clause with its dynamic group (0 = permanent); dynUnsat counts the
	// unsatisfied clauses of the open group, so the memo can tell which
	// entries embed the current target; stepSigs records those entries
	// for invalidation when the group retires. groupAdded counts the
	// open group's clauses, stored or not.
	groupOf      []int32
	groupClauses []int32 // stored clause positions of the open group
	groupAdded   int
	curGroup     int32 // open group id (0 = none)
	nextGroup    int32
	dynUnsat     int
	stepSigs     []sig128

	// rootUnsat latches once the formula is UNSAT at the root.
	rootUnsat bool

	// Per-call soft decision cap (EnumerateUnder): when the call exceeds
	// callMaxDec decisions, splitReq is raised and the search unwinds with
	// partial results discarded, asking the caller to split the subcube.
	callMaxDec  uint64
	callBaseDec uint64
	splitReq    bool

	litBuf []lit.Lit // clause-literal scratch
	stats  allsat.Stats
}

// New prepares an enumerator for formula f projected onto the variables of
// space (which become the BDD variable order, top to bottom), on a fresh
// solver.
func New(f *cnf.Formula, space *cube.Space, opts Options) *Enumerator {
	return NewOn(sat.NewDefault(), f, space, opts)
}

// NewOn is New on a caller-supplied solver, which must be empty (fresh or
// Reset), for instance a warm one from a runtime pool. The enumerator
// owns the solver until the caller takes it back after the last call.
func NewOn(s *sat.Solver, f *cnf.Formula, space *cube.Space, opts Options) *Enumerator {
	opts.Budget = opts.Budget.Materialize()
	man := opts.Manager
	if man == nil {
		man = bdd.NewOrdered(space.Vars())
	}
	n := f.NumVars
	e := &Enumerator{
		opts:   opts,
		s:      s,
		proj:   space.Vars(),
		isProj: make([]bool, n),
		space:  space,
		man:    man,
		memo:   make(map[sig128]bdd.Ref),
	}
	switch {
	case opts.MemoLimit > 0:
		e.memoLimit = opts.MemoLimit
	case opts.MemoLimit == 0:
		e.memoLimit = DefaultMemoLimit
	}
	for _, v := range e.proj {
		if int(v) >= n {
			panic(fmt.Sprintf("core: projection variable %v outside formula", v))
		}
		e.isProj[v] = true
	}
	e.rootUnsat = !s.LoadFormula(f)
	e.occ = s.Occurrences()
	m := s.NumClauses()
	e.satBy = make([]int32, 0, m)
	e.contrib = make([]sig128, 0, m)
	e.groupOf = make([]int32, 0, m)
	for ci := 0; ci < m; ci++ {
		e.track(int32(ci), 0)
	}
	e.sync()
	return e
}

// track registers problem clause ci, just stored by the solver, as
// unsatisfied: the solver stores a clause only when none of its literals
// is assigned at the root.
func (e *Enumerator) track(ci int32, group int32) {
	e.satBy = append(e.satBy, -1)
	e.groupOf = append(e.groupOf, group)
	base := clauseBase(ci)
	e.contrib = append(e.contrib, base)
	e.resid.xor(base)
	e.unsatCnt++
	if group != 0 {
		e.dynUnsat++
	}
}

// sync folds the trail literals assigned since the last call into the
// satisfied-clause bookkeeping and the residual signature: clauses
// containing a new literal become satisfied and leave the residual,
// clauses containing its negation fold in the falsity key. Called at
// propagation fixpoints, so each trail position is processed once per
// assign/unassign cycle and the kernel's propagation loop stays free of
// callbacks.
func (e *Enumerator) sync() {
	trail := e.s.Trail()
	for ; e.satHead < len(trail); e.satHead++ {
		l := trail[e.satHead]
		for _, ci := range e.occ[l] {
			if e.satBy[ci] < 0 {
				e.satBy[ci] = int32(e.satHead)
				e.unsatCnt--
				e.resid.xor(e.contrib[ci])
				if e.groupOf[ci] != 0 {
					e.dynUnsat--
				}
			}
		}
		nl := l.Not()
		for _, ci := range e.occ[nl] {
			k := falseKey(ci, nl)
			e.contrib[ci].xor(k)
			if e.satBy[ci] < 0 {
				e.resid.xor(k)
			}
		}
	}
}

// backtrack unwinds the bookkeeping over the folded trail suffix above
// the given decision level, in reverse order, then backtracks the solver.
// All backtracking goes through here.
func (e *Enumerator) backtrack(level int) {
	if e.s.Level() <= level {
		return
	}
	trail := e.s.Trail()
	bound := e.s.LevelStart(level + 1)
	for i := e.satHead - 1; i >= bound; i-- {
		l := trail[i]
		nl := l.Not()
		for _, ci := range e.occ[nl] {
			k := falseKey(ci, nl)
			e.contrib[ci].xor(k)
			if e.satBy[ci] < 0 {
				e.resid.xor(k)
			}
		}
		for _, ci := range e.occ[l] {
			if e.satBy[ci] == int32(i) {
				e.satBy[ci] = -1
				e.unsatCnt++
				e.resid.xor(e.contrib[ci])
				if e.groupOf[ci] != 0 {
					e.dynUnsat++
				}
			}
		}
	}
	e.satHead = min(e.satHead, bound)
	e.s.CancelUntil(level)
}

// decide opens a decision level with l and propagates; on success the
// bookkeeping is synced. On a conflict the level stays open so the
// caller can learn from it before popping.
func (e *Enumerator) decide(l lit.Lit) bool {
	e.s.Decide(l)
	if !e.s.Propagate() {
		return false
	}
	e.sync()
	return true
}

// pop undoes the topmost decision level.
func (e *Enumerator) pop() { e.backtrack(e.s.Level() - 1) }

// sig128 is a 128-bit Zobrist hash value.
type sig128 struct{ a, b uint64 }

func (s *sig128) xor(o sig128) {
	s.a ^= o.a
	s.b ^= o.b
}

// splitmix64 is the SplitMix64 finalizer, used to derive Zobrist keys
// deterministically from clause ids and literals (no key tables needed).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// clauseBase is the Zobrist key of clause ci being present (unsatisfied,
// all literals alive) in the residual.
func clauseBase(ci int32) sig128 {
	a := splitmix64(uint64(ci)*2 + 1)
	return sig128{a: a, b: splitmix64(a ^ 0xd1b54a32d192ed03)}
}

// falseKey is the Zobrist key of literal l of clause ci being falsified.
func falseKey(ci int32, l lit.Lit) sig128 {
	a := splitmix64(uint64(ci+1)<<20 ^ uint64(l)*0x9e3779b97f4a7c15)
	return sig128{a: a, b: splitmix64(a ^ 0x2545f4914f6cdd1d)}
}

// Result bundles the solution BDD with the shared manager.
type Result struct {
	// Manager owns Set; its variable order is the projection order.
	Manager *bdd.Manager
	// Set is the projection of all models as an ROBDD.
	Set bdd.Ref
	// Stats holds search counters.
	Stats allsat.Stats
	// Aborted is true when a resource limit stopped the search early; Set
	// is then an under-approximation and Reason says what tripped.
	Aborted bool
	Reason  budget.Reason
}

// Enumerate runs the search and returns the solution BDD. If the budget
// trips mid-search the returned Set covers only the subtrees completed so
// far — a sound under-approximation — with Aborted and Reason set.
func (e *Enumerator) Enumerate() *Result {
	if e.check == nil && !e.opts.Budget.IsZero() {
		e.check = e.opts.Budget.Start()
	}
	res := &Result{Manager: e.man}
	if e.rootUnsat {
		res.Set = bdd.False
		res.Stats = e.Stats()
		return res
	}
	set := e.enumerate()
	// Fold in projection literals implied at the root level.
	for _, l := range e.s.Trail() {
		if e.isProj[l.Var()] {
			set = e.man.And(set, e.man.Lit(l))
		}
	}
	res.Set = set
	res.Stats = e.Stats()
	res.Stats.BDDNodes = e.man.NumNodes()
	res.Stats.Kernel = e.man.Kernel()
	res.Aborted = e.aborted
	res.Reason = e.abortReason
	return res
}

// enumerate explores the subproblem under the current assignment (BCP
// complete, conflict-free) and returns its solution set over the
// still-unassigned projection variables.
func (e *Enumerator) enumerate() bdd.Ref {
	if e.unsatCnt == 0 {
		e.stats.Solutions++
		return bdd.True
	}
	var sig sig128
	if e.opts.EnableMemo {
		sig = e.resid
		e.stats.CacheLookups++
		if r, ok := e.memo[sig]; ok {
			e.stats.CacheHits++
			return r
		}
	}
	// Next decision: the first unassigned projection variable.
	v := lit.UndefVar
	for _, pv := range e.proj {
		if e.s.Value(pv) == lit.Unknown {
			v = pv
			break
		}
	}
	var r bdd.Ref
	if v == lit.UndefVar {
		// All projection variables assigned; decide the residual problem.
		if e.residualSAT() {
			e.stats.Solutions++
			r = bdd.True
		} else {
			r = bdd.False
		}
	} else {
		lo := e.branch(lit.Neg(v))
		hi := e.branch(lit.Pos(v))
		r = e.man.ITE(e.man.Var(v), hi, lo)
	}
	// Results computed after an abort or split request may be truncated;
	// keep them out of the memo so pre-abort entries stay exact.
	if e.opts.EnableMemo && !e.aborted && !e.splitReq {
		e.memo[sig] = r
		if e.dynUnsat > 0 {
			// The residual embeds an unsatisfied clause of the open
			// dynamic group: remember the signature so RetireGroup can
			// drop the entry (its clause ids become permanently
			// satisfied, so the signature could never be probed again).
			e.stepSigs = append(e.stepSigs, sig)
		}
		if e.memoLimit > 0 && len(e.memo) >= e.memoLimit {
			clear(e.memo)
			e.stepSigs = e.stepSigs[:0]
			e.stats.CacheClears++
		}
	}
	return r
}

// branch explores one phase of a decision variable and returns its
// solution set (with projection literals implied under the branch folded
// in).
func (e *Enumerator) branch(dec lit.Lit) bdd.Ref {
	if e.aborted || e.splitReq {
		return bdd.False
	}
	if maxDec := e.opts.Budget.MergeDecisions(e.opts.MaxDecisions); maxDec > 0 &&
		e.stats.Decisions >= maxDec {
		e.abort(budget.Decisions)
		return bdd.False
	}
	if e.callMaxDec > 0 && e.stats.Decisions-e.callBaseDec >= e.callMaxDec {
		e.splitReq = true
		return bdd.False
	}
	if n := e.opts.Budget.MaxBDDNodes; n > 0 && e.man.NumNodes() >= n {
		e.abort(budget.Nodes)
		return bdd.False
	}
	if e.check != nil {
		if r := e.check.Poll(); r != budget.None {
			e.abort(r)
			return bdd.False
		}
	}
	if f := e.opts.OnDecision; f != nil {
		if r := f(); r != budget.None {
			e.abort(r)
			return bdd.False
		}
	}
	mark := len(e.s.Trail())
	e.stats.Decisions++
	if !e.decide(dec) {
		e.stats.Conflicts++
		if e.opts.EnableLearning {
			e.s.Learn()
		}
		e.pop()
		return bdd.False
	}
	sub := e.enumerate()
	if sub != bdd.False {
		// Fold in projection literals implied by this branch (not the
		// decision itself — the caller encodes that in the ITE).
		for _, l := range e.s.Trail()[mark+1:] {
			if e.isProj[l.Var()] {
				sub = e.man.And(sub, e.man.Lit(l))
			}
		}
	}
	e.pop()
	return sub
}

// abort flags the enumeration as truncated, keeping the first reason.
func (e *Enumerator) abort(r budget.Reason) {
	if !e.aborted {
		e.aborted = true
		e.abortReason = r
	}
}

// residualSAT decides satisfiability of the residual problem once every
// projection variable is assigned. For circuit-derived CNF the residual is
// almost always already decided by propagation (unsatCnt == 0); the
// fallback is a plain DPLL over the remaining variables.
func (e *Enumerator) residualSAT() bool {
	if e.unsatCnt == 0 {
		return true
	}
	// Find an unsatisfied clause with an unassigned literal.
	n := len(e.satBy)
	for scan := 0; scan < n; scan++ {
		ci := (e.residScan + scan) % n
		if e.satBy[ci] >= 0 {
			continue
		}
		e.residScan = ci
		for _, l := range e.s.ClauseLits(ci, nil) {
			if e.s.LitValue(l) != lit.Unknown {
				continue
			}
			e.stats.Decisions++
			ok := e.decide(l) && e.residualSAT()
			e.pop()
			if ok {
				return true
			}
		}
		// Every literal of an unsatisfied clause is false or trying each
		// unassigned one failed: the residual is UNSAT here.
		return false
	}
	return true
}

// EnumerateToResult runs the engine and converts to the shared allsat
// result shape. The cover is extracted from the solution BDD with the
// Minato–Morreale ISOP algorithm, which yields an irredundant
// sum-of-products — typically far fewer cubes than raw 1-path
// enumeration, and the compact representation the downstream reachability
// loop feeds back as its next target.
func EnumerateToResult(f *cnf.Formula, space *cube.Space, opts Options) *allsat.Result {
	e := New(f, space, opts)
	r := e.Enumerate()
	out := &allsat.Result{
		Space:   space,
		Cover:   r.Manager.ISOP(r.Set, space),
		Count:   r.Manager.SatCount(r.Set),
		Stats:   r.Stats,
		Aborted: r.Aborted,
		Reason:  r.Reason,
	}
	out.Stats.Cubes = uint64(out.Cover.Len())
	return out
}
