package pool

// Session is the persistent-worker variant of Enumerate for incremental
// reachability (internal/incr): the enumerators — solver trails, learned
// clauses, memo tables, private BDD managers — and the parent merge
// manager live across any number of Run calls, so step k+1 starts from
// everything step k learned about the circuit. Between runs the caller
// retargets every enumerator through the broadcast group API (NewVar /
// BeginGroup / AddGroupClause / RetireGroup), which keeps the worker
// solvers' variable spaces in lockstep.

import (
	"context"
	"runtime"
	"sync/atomic"

	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/core"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	"allsatpre/internal/partition"
	rt "allsatpre/internal/runtime"
)

// Session owns a set of persistent enumerators and their merge manager.
// Not safe for concurrent use: one Run (or retarget) at a time.
type Session struct {
	space   *cube.Space
	es      []*core.Enumerator
	man     *bdd.Manager
	workers int
	thresh  uint64
	prefix  int
	budget  budget.Budget // materialized; Ctx is the session context
	cancel  context.CancelFunc
	// decisions enforces a session-global decision cap across workers
	// and steps (the incremental analogue of the fresh path's per-step
	// cap: a budget is a resource allowance for the whole run).
	decisions atomic.Uint64
	mergeDead bool
}

// SessionRetireStats aggregates RetireGroup over the session's workers:
// clause-group bookkeeping is identical on every worker (same clauses in
// lockstep), so OrigRetired/VarsRetired come from one worker, while the
// learned-clause and memo effects are summed across workers.
type SessionRetireStats struct {
	OrigRetired     int
	VarsRetired     int
	LearnedKept     int
	LearnedDropped  int
	MemoInvalidated int
}

// NewSession builds a session over the formula with max(1, Workers)
// persistent enumerators. With one worker the merge manager is the
// enumerator's own manager (no snapshot round-trips at all); with more,
// per-run snapshots merge into one persistent parent manager whose
// variable order is the projection order. Core.Budget is ignored; pass
// the session budget (covering all runs) in Budget.
func NewSession(f *cnf.Formula, space *cube.Space, opts Options) *Session {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if space.Size() == 0 {
		workers = 1
	}
	b := opts.Budget.Materialize()
	base := context.Background()
	if b.Ctx != nil {
		base = b.Ctx
	}
	ctx, cancel := context.WithCancel(base)
	b.Ctx = ctx

	s := &Session{
		space:   space,
		workers: workers,
		budget:  b,
		cancel:  cancel,
	}
	s.prefix, s.thresh = opts.split(space, workers)
	co := shareDecisions(opts.Core, b, &s.decisions)
	s.es = make([]*core.Enumerator, workers)
	for i := range s.es {
		s.es[i] = core.New(f, space, co)
	}
	if workers == 1 {
		s.man = s.es[0].Manager()
	} else {
		s.man = bdd.NewOrdered(space.Vars())
	}
	return s
}

// Close releases the session's context. Run must not be called after.
func (s *Session) Close() { s.cancel() }

// Workers reports the effective worker count.
func (s *Session) Workers() int { return s.workers }

// Manager returns the persistent merge manager Run results live in.
func (s *Session) Manager() *bdd.Manager { return s.man }

// NewVar allocates one fresh variable on every worker solver, keeping
// their variable spaces identical, and returns its (shared) id.
func (s *Session) NewVar() lit.Var {
	v := s.es[0].NewVar()
	for _, e := range s.es[1:] {
		if w := e.NewVar(); w != v {
			panic("pool: session enumerators disagree on variable ids")
		}
	}
	return v
}

// NumVars reports the shared solver variable count.
func (s *Session) NumVars() int { return s.es[0].NumVars() }

// AddClause adds a permanent clause on every worker; false when the
// formula became UNSAT at the root.
func (s *Session) AddClause(lits ...lit.Lit) bool {
	ok := true
	for _, e := range s.es {
		ok = e.AddClause(lits...) && ok
	}
	return ok
}

// BeginGroup opens a clause group on every worker.
func (s *Session) BeginGroup() {
	for _, e := range s.es {
		e.BeginGroup()
	}
}

// AddGroupClause adds a group clause on every worker.
func (s *Session) AddGroupClause(lits ...lit.Lit) bool {
	ok := true
	for _, e := range s.es {
		ok = e.AddGroupClause(lits...) && ok
	}
	return ok
}

// RetireGroup retires the open group on every worker.
func (s *Session) RetireGroup(unit lit.Lit, vars []lit.Var) SessionRetireStats {
	var out SessionRetireStats
	for i, e := range s.es {
		rs := e.RetireGroup(unit, vars)
		if i == 0 {
			out.OrigRetired = rs.OrigRetired
			out.VarsRetired = rs.VarsRetired
		}
		out.LearnedKept += rs.LearnedKept
		out.LearnedDropped += rs.LearnedDropped
		out.MemoInvalidated += rs.MemoInvalidated
	}
	return out
}

// LearnedCount sums the live learned clauses across workers.
func (s *Session) LearnedCount() int {
	n := 0
	for _, e := range s.es {
		n += e.LearnedCount()
	}
	return n
}

// LearnedLits sums the live learned clauses' literal counts across
// workers — the session's retained-learnt footprint.
func (s *Session) LearnedLits() int {
	n := 0
	for _, e := range s.es {
		n += e.LearnedLits()
	}
	return n
}

// MemoSize sums the memo entries across workers.
func (s *Session) MemoSize() int {
	n := 0
	for _, e := range s.es {
		n += e.MemoSize()
	}
	return n
}

// Run enumerates the solutions under the base assumptions (typically the
// current step's activation literal), reusing the persistent workers.
// The result Set lives in the session's merge manager; with >1 workers
// the merged set is bit-identical to a one-worker run over the same
// solver state. Base literals over non-projection variables (activation
// literals) do not enter the set.
func (s *Session) Run(base []lit.Lit) *Result {
	if s.workers == 1 {
		return s.runSequential(base)
	}
	return s.runParallel(base)
}

func (s *Session) runSequential(base []lit.Lit) *Result {
	e := s.es[0]
	sub := e.EnumerateUnder(base, 0)
	set := sub.Set
	if sub.Status != core.SubSAT {
		set = bdd.False
	}
	st := sub.Stats
	st.Kernel = s.man.Kernel()
	st.BDDNodes = s.man.NumNodes()
	return &Result{
		Manager: s.man,
		Set:     set,
		Stats:   st,
		Pool:    PoolStats{Workers: 1, Subcubes: 1},
		Aborted: sub.Aborted,
		Reason:  sub.Reason,
	}
}

// runParallel runs the subcubes on a private scheduler (sessions take
// no runtime), with the stash pre-filled by the persistent enumerators.
// Every abort reason here is a session-global budget condition
// (deadline, cancellation, decision/conflict/node caps), so the first
// abort ends not just this run but the session: it cancels the session
// context, and the enumerators' own abort state is sticky anyway.
func (s *Session) runParallel(base []lit.Lit) *Result {
	run, stop := (*rt.Runtime)(nil).Scheduled(s.workers)
	defer stop()
	r := newRun(s.space, s.workers, s.thresh, run, s.cancel)
	r.base = base
	r.isBase = make(map[lit.Var]bool, len(base))
	for _, l := range base {
		r.isBase[l.Var()] = true
	}
	r.persistent = true
	for _, e := range s.es {
		r.stash <- slot{e: e, decBase: e.Stats().Decisions}
	}
	r.created.Store(int32(len(s.es)))
	// A tripped merge cap latches in s.mergeDead: the parent manager is
	// over it for good, so no later run can merge either.
	return r.run(partition.Split(s.space, s.prefix), s.man, s.budget.MaxBDDNodes, &s.mergeDead)
}
