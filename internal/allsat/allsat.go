// Package allsat provides all-solutions SAT enumeration with projection:
// given a CNF formula and a set of projection variables, it computes the
// set of projected assignments extendable to a model, as a cube cover.
//
// Three engines live here:
//
//   - EnumerateBlocking — the classical all-SAT loop: solve, project the
//     model, add a blocking clause over every projection variable, repeat.
//   - EnumerateLifting — the same loop, but each model is first lifted
//     (greedily minimized into a short cube whose every completion still
//     satisfies the formula), so one blocking clause removes 2^k
//     projections at once.
//   - EnumerateDisjoint — blocking-clause-free enumeration by
//     chronological backtracking with implicant shrinking (sat.ChronoEnum):
//     pairwise-disjoint cubes and O(1) clause-database growth — one
//     in-place flip per region instead of one blocking clause per cube.
//
// The paper's contribution — the success-driven enumerator that stores
// solutions directly as an ROBDD and memoizes completed subproblems — is
// implemented in internal/core and shares this package's Result type.
package allsat

import (
	"math/big"

	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	rt "allsatpre/internal/runtime"
	"allsatpre/internal/sat"
	"allsatpre/internal/simplify"
)

// Stats aggregates enumeration counters.
type Stats struct {
	// Solutions is the number of satisfying assignments the underlying
	// solver produced (one per iteration for the blocking engines; the
	// number of 1-leaves reached for the success-driven engine).
	Solutions uint64
	// Cubes is the number of cubes emitted into the cover. The
	// success-driven engine emits none while it searches; its count is
	// that of the ISOP cover read off its BDD (in a preimage result, the
	// state cover).
	Cubes uint64
	// BlockingClauses / BlockingLits measure added blocking clauses.
	BlockingClauses, BlockingLits uint64
	// LiftedFree is the total count of projection variables freed by
	// lifting (or by early cutoff in the success-driven engine, or by
	// implicant shrinking in the disjoint engine).
	LiftedFree uint64
	// PeakLearnts is the high-water count of learnt clauses held by the
	// underlying CDCL solver (summed across parallel workers, which run
	// concurrently). Together with BlockingClauses it measures clause-
	// database growth: the disjoint engine keeps BlockingClauses at zero
	// by construction.
	PeakLearnts uint64
	// PeakLearntBytes is the high-water arena footprint of live learnt
	// clauses in bytes (summed across workers). With the tiered learnt
	// database, clause counts are incomparable across engines (core
	// clauses are permanent, locals churn), so the byte watermark is the
	// apples-to-apples memory measure alongside PeakLearnts.
	PeakLearntBytes uint64
	// ArenaBytes is the clause-arena footprint at capture time (summed
	// across workers); LearntsCore/Tier2/Local are the live per-tier
	// learnt counts at the same instant.
	ArenaBytes                              uint64
	LearntsCore, LearntsTier2, LearntsLocal uint64
	// Decisions/Propagations/Conflicts come from the underlying search.
	Decisions, Propagations, Conflicts uint64
	// CacheLookups/CacheHits/CacheClears count success-driven memo
	// activity; a clear is a wholesale memo reset at the memo bound.
	CacheLookups, CacheHits, CacheClears uint64
	// BDDNodes is the node count of the solution BDD (success-driven) or
	// of the counting BDD (blocking engines).
	BDDNodes int
	// Kernel snapshots the BDD manager's unique-table and apply-cache
	// gauges for the run (merged across managers when several are used).
	Kernel bdd.KernelStats
	// Simplify reports the preprocessing pass (Simplify.Applied is false
	// when simplification was disabled for the run).
	Simplify simplify.Stats
}

// SetLearntGauges copies a CDCL solver's learnt-database gauges — peak
// learnt count and bytes, arena size, live per-tier counts — into st.
func (st *Stats) SetLearntGauges(ss sat.Stats) {
	st.PeakLearnts = uint64(ss.PeakLearnts)
	st.PeakLearntBytes = ss.PeakLearntBytes
	st.ArenaBytes = ss.ArenaBytes
	st.LearntsCore = uint64(ss.LearntsCore)
	st.LearntsTier2 = uint64(ss.LearntsTier2)
	st.LearntsLocal = uint64(ss.LearntsLocal)
}

// Result is the outcome of an enumeration.
type Result struct {
	// Space is the projection space (one position per projection var).
	Space *cube.Space
	// Cover is the set of projected solutions as cubes. Cubes may overlap
	// (for the lifting engine; the disjoint engine's are pairwise
	// disjoint); their union is exactly the projection.
	Cover *cube.Cover
	// Count is the exact number of projected minterms.
	Count *big.Int
	// Aborted is true when a resource limit (MaxCubes, the solver's
	// conflict cap, or the Budget) stopped enumeration early; Cover is
	// then a subset of the projection — a sound under-approximation, never
	// garbage. Reason says which limit tripped.
	Aborted bool
	Reason  budget.Reason
	// Stats holds the search counters.
	Stats Stats
}

// Options tunes the enumeration engines.
type Options struct {
	// MaxCubes bounds the number of enumerated cubes (0 = unlimited).
	// The cap is exact for every worker count: a parallel run's merged
	// cover contains exactly min(MaxCubes, |full cover|) cubes — workers
	// claim cap slots atomically, so the cap is never overshot.
	MaxCubes uint64
	// SAT configures the underlying CDCL solver (zero value = defaults).
	SAT sat.Options
	// LiftOrder optionally overrides the greedy lifting order: it is the
	// list of projection-space positions to try to free, first to last.
	LiftOrder []int
	// Budget imposes wall-clock/cancellation/cube limits across the whole
	// enumeration loop (the SAT sub-budget in SAT.Budget applies per
	// solver). The zero Budget is unbounded.
	Budget budget.Budget
	// Workers > 1 fans the enumeration out over guiding-path subcubes of
	// the projection space, one scheduler job and solver per subcube (see
	// parallel.go).
	// The merged cover denotes the same solution set as the sequential
	// run for every worker count. 0 or 1 enumerates sequentially.
	Workers int
	// Simplify controls projection-safe CNF preprocessing ahead of
	// enumeration (internal/simplify): bounded elimination of auxiliary
	// variables, subsumption, self-subsuming resolution, and top-level
	// failed-literal probing, with the projection variables (plus Frozen)
	// never eliminated — so the enumerated cover is identical with or
	// without it. Auto resolves to on for the Enumerate* entry points and
	// the public iterators; pass Off when the input clause indices must
	// stay stable (e.g. proof logging).
	Simplify simplify.Mode
	// Frozen names extra variables beyond the projection space that the
	// simplifier must preserve: activation/selector literals, next-state
	// variables a caller will constrain incrementally.
	Frozen []lit.Var
	// Runtime, when non-nil, attaches the pooled execution substrate:
	// solvers and BDD managers come warm from Runtime.Pool (Reset instead
	// of reconstructed — bit-identical results, pinned by the reuse
	// equivalence suite), and parallel subcube jobs run on Runtime.Sched's
	// shared fair-share executors. Without a scheduler a parallel call
	// runs on a private one with Workers executors; without a pool every
	// solver is built fresh.
	Runtime *rt.Runtime
}

// maybeSimplify preprocesses f (on a clone — the caller's formula is
// never mutated) when opts.Simplify resolves to enabled, freezing the
// projection variables plus opts.Frozen. It flips opts.Simplify to Off so
// inner layers (parallel fallback, per-worker iterators) never re-run the
// pass on the already-simplified formula.
func maybeSimplify(f *cnf.Formula, space *cube.Space, opts *Options) (*cnf.Formula, simplify.Stats) {
	if !opts.Simplify.Enabled(true) {
		return f, simplify.Stats{}
	}
	opts.Simplify = simplify.Off
	frozen := make([]bool, f.NumVars)
	for _, v := range space.Vars() {
		if int(v) < len(frozen) {
			frozen[v] = true
		}
	}
	for _, v := range opts.Frozen {
		if int(v) < len(frozen) {
			frozen[v] = true
		}
	}
	sf := f.Clone()
	res := simplify.Run(sf, func(v lit.Var) bool { return frozen[v] }, simplify.Options{})
	return sf, res.Stats
}

// countCover computes the exact minterm count of a cover by building its
// BDD over the projection space, reporting the manager's kernel gauges.
// The counting manager comes from (and returns to) the warm pool when
// one is attached; node counts and the count itself are identical either
// way — canonicity does not depend on table capacity.
func countCover(cv *cube.Cover, p *rt.Pool) (*big.Int, int, bdd.KernelStats) {
	m := p.AcquireManager(cv.Space().Vars(), 0)
	f := m.FromCover(cv)
	count, nodes, kernel := m.SatCount(f), m.NumNodes(), m.Kernel()
	p.ReleaseManager(m)
	return count, nodes, kernel
}

// acquireLoaded obtains an iterator's solver — warm from the runtime
// pool when one is attached, fresh otherwise — and bulk-loads f into it.
func acquireLoaded(f *cnf.Formula, satOpts sat.Options, r *rt.Runtime) *sat.Solver {
	s := r.P().AcquireSolver(satOpts, uint64(f.NumVars)*64)
	s.LoadFormula(f)
	return s
}

// engineKind selects which streaming iterator drives the shared
// enumeration loop.
type engineKind int

const (
	engBlocking engineKind = iota
	engLifting
	engDisjoint
)

// cubeIterator is the streaming surface shared by the per-engine
// iterators; the sequential loop and the parallel workers drive it.
type cubeIterator interface {
	Next() (cube.Cube, bool)
	Reason() budget.Reason
	Stats() Stats
	// Close releases pooled resources (the solver) back to the runtime
	// pool; the iterator is spent afterwards. Idempotent, nil-pool-safe.
	Close()
}

func newKindIterator(f *cnf.Formula, space *cube.Space, opts Options, eng engineKind) cubeIterator {
	if eng == engDisjoint {
		return NewDisjointIterator(f, space, opts)
	}
	return NewIterator(f, space, opts, eng == engLifting)
}

// EnumerateBlocking runs the classical blocking-clause all-SAT loop,
// projecting onto the variables of space.
func EnumerateBlocking(f *cnf.Formula, space *cube.Space, opts Options) *Result {
	return enumerateEngine(f, space, opts, engBlocking)
}

// EnumerateLifting runs the blocking-clause loop with greedy cube lifting:
// each model is minimized into a cube over the projection variables before
// being blocked.
func EnumerateLifting(f *cnf.Formula, space *cube.Space, opts Options) *Result {
	return enumerateEngine(f, space, opts, engLifting)
}

// EnumerateDisjoint runs the blocking-clause-free engine: chronological
// backtracking with implicant shrinking yields pairwise-disjoint cubes
// whose union is the exact projection, while the clause database stays
// O(1) in the number of solutions (Stats.BlockingClauses is always zero).
func EnumerateDisjoint(f *cnf.Formula, space *cube.Space, opts Options) *Result {
	return enumerateEngine(f, space, opts, engDisjoint)
}

func enumerateEngine(f *cnf.Formula, space *cube.Space, opts Options, eng engineKind) *Result {
	f, sstats := maybeSimplify(f, space, &opts)
	res := enumerateSimplified(f, space, opts, eng)
	res.Stats.Simplify = sstats
	return res
}

func enumerateSimplified(f *cnf.Formula, space *cube.Space, opts Options, eng engineKind) *Result {
	if opts.Workers > 1 && space.Size() > 0 {
		return enumerateParallel(f, space, opts, eng)
	}
	// Share the enumeration budget with the solver so a deadline or
	// cancellation interrupts a long solver call, not just the loop
	// between calls. An explicit solver budget wins (inside the iterator).
	bud := opts.Budget.Materialize()
	opts.Budget = bud
	res := &Result{Space: space, Cover: cube.NewCover(space), Count: new(big.Int)}
	it := newKindIterator(f, space, opts, eng)

	maxCubes := bud.MergeCubes(opts.MaxCubes)
	var n uint64
	for {
		if maxCubes > 0 && n >= maxCubes {
			res.Aborted = true
			res.Reason = budget.Cubes
			break
		}
		c, ok := it.Next()
		if !ok {
			if r := it.Reason(); r != budget.None {
				// Budget exhausted; the cover so far is a sound
				// under-approximation.
				res.Aborted = true
				res.Reason = r
			}
			break
		}
		res.Cover.Add(c)
		n++
	}

	res.Stats = it.Stats()
	it.Close()
	var kernel bdd.KernelStats
	res.Count, res.Stats.BDDNodes, kernel = countCover(res.Cover, opts.Runtime.P())
	res.Stats.Kernel.Merge(kernel)
	return res
}

// modelLifter greedily minimizes models into cubes. It indexes, for every
// projection variable, the clauses in which each of its phases occurs, and
// maintains per-clause counts of currently-satisfying literals.
type modelLifter struct {
	f     *cnf.Formula
	space *cube.Space
	order []int
	// occ[l] lists clause indexes containing literal l.
	occ [][]int
	// satCnt[i] is the number of true literals of clause i under the
	// current (partial) assignment; scratch, rebuilt per model.
	satCnt []int
}

func newModelLifter(f *cnf.Formula, space *cube.Space, order []int) *modelLifter {
	ml := &modelLifter{
		f:      f,
		space:  space,
		occ:    make([][]int, 2*f.NumVars),
		satCnt: make([]int, len(f.Clauses)),
	}
	for ci, c := range f.Clauses {
		for _, l := range c {
			ml.occ[l] = append(ml.occ[l], ci)
		}
	}
	if order == nil {
		// Default: free positions from the last to the first, which for
		// preimage instances frees primary inputs before state bits.
		order = make([]int, space.Size())
		for i := range order {
			order[i] = space.Size() - 1 - i
		}
	}
	ml.order = append([]int(nil), order...)
	return ml
}

// lift returns a cube over the projection space, containing the model's
// projection, all of whose completions satisfy every clause of f.
func (ml *modelLifter) lift(model []bool) cube.Cube {
	// Count satisfying literals per clause under the full model.
	for i, c := range ml.f.Clauses {
		n := 0
		for _, l := range c {
			if int(l.Var()) < len(model) && model[l.Var()] != l.Sign() {
				n++
			}
		}
		ml.satCnt[i] = n
	}
	out := ml.space.FromModel(model)
	for _, pos := range ml.order {
		v := ml.space.Vars()[pos]
		if int(v) >= len(model) {
			out[pos] = lit.Unknown
			continue
		}
		// The literal of v that is true under the model.
		trueLit := lit.New(v, !model[v])
		ok := true
		for _, ci := range ml.occ[trueLit] {
			if ml.satCnt[ci] <= 1 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, ci := range ml.occ[trueLit] {
			ml.satCnt[ci]--
		}
		out[pos] = lit.Unknown
	}
	return out
}
