// Package preimage computes preimages of state sets of sequential
// circuits — the set of present states (optionally with input witnesses)
// from which one transition reaches a given target set — and iterates them
// into full backward reachability.
//
// Five interchangeable engines are provided:
//
//   - EngineSuccessDriven (default): the paper's all-solutions SAT
//     enumerator (internal/core), returning the preimage directly as an
//     ROBDD-backed cube cover.
//   - EngineBlocking: classical all-SAT with full-minterm blocking
//     clauses (the paper's SAT baseline).
//   - EngineLifting: all-SAT with greedily lifted (shortened) blocking
//     clauses.
//   - EngineDisjoint: blocking-clause-free disjoint enumeration via
//     chronological backtracking with implicant shrinking — pairwise
//     disjoint cubes, O(1) clause growth per solution.
//   - EngineBDD: symbolic relational product with partitioned transition
//     relations and early quantification (the paper's BDD baseline).
//
// All engines return covers over the canonical state space (position k =
// latch k in declaration order), so results are directly comparable.
package preimage

import (
	"context"
	"fmt"
	"math/big"
	"sync"
	"time"

	"allsatpre/internal/allsat"
	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cnf"
	"allsatpre/internal/core"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	"allsatpre/internal/pool"
	rt "allsatpre/internal/runtime"
	"allsatpre/internal/simplify"
	"allsatpre/internal/stats"
	"allsatpre/internal/trans"
)

// Engine selects the preimage computation strategy.
type Engine int

// Available engines.
const (
	EngineSuccessDriven Engine = iota
	EngineBlocking
	EngineLifting
	EngineBDD
	EngineDisjoint
)

func (e Engine) String() string {
	switch e {
	case EngineSuccessDriven:
		return "success-driven"
	case EngineBlocking:
		return "blocking"
	case EngineLifting:
		return "lifting"
	case EngineBDD:
		return "bdd"
	case EngineDisjoint:
		return "disjoint"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Options configures a preimage computation.
type Options struct {
	// Engine selects the strategy (default EngineSuccessDriven).
	Engine Engine
	// WithInputs also reports the input assignments: the SAT engines then
	// enumerate over (state, input) and InputsCover is populated.
	WithInputs bool
	// Core tunes the success-driven enumerator (zero value → defaults).
	Core core.Options
	// AllSAT tunes the blocking/lifting engines.
	AllSAT allsat.Options
	// StateFirstOrder controls the success-driven decision order /
	// BDD variable order: true (default semantics when unset is
	// state-first) decides state variables before inputs. Setting
	// InputFirstOrder flips it — used by the decision-order ablation.
	InputFirstOrder bool
	// Interleave uses an s,x-interleaved order (ablation).
	Interleave bool
	// BDDSegregatedOrder makes the BDD engine place all present-state
	// variables before all next-state variables instead of interleaving
	// the (s_k, s'_k) pairs — the ordering ablation for Table 5.
	BDDSegregatedOrder bool
	// EliminateAux applies growth-free Davis–Putnam elimination to the
	// auxiliary (non-projection) CNF variables before enumeration. The
	// projection of the model set is preserved exactly, so all engines
	// return identical covers with or without it.
	EliminateAux bool
	// Simplify controls the full projection-safe preprocessing pass
	// (internal/simplify: bounded variable elimination, subsumption,
	// self-subsuming resolution, failed-literal probing) over the
	// instance CNF before a SAT engine runs, with the projection
	// variables frozen. The enumerated cover is identical with or
	// without it — the pass preserves the projected solution set
	// exactly. Auto resolves to on for the one-shot SAT engines;
	// the BDD engine has no CNF and ignores it. Incremental sessions
	// default off (the session retargets the clause database in place);
	// pass On to opt in there, see Options.Incremental.
	Simplify simplify.Mode
	// Restrict, when non-nil, intersects the preimage with the given
	// present-state cube (one position per latch): only predecessors
	// inside the cube are enumerated. It is also the splitting mechanism
	// behind the BDD engine's Parallel path.
	Restrict cube.Cube
	// Parallel, when > 1, computes the preimage with that many workers.
	// The success-driven engine partitions the projection space into
	// guiding-path subcubes run as scheduler jobs by internal/pool,
	// whose merged BDD — and therefore ISOP cover — is
	// bit-identical to the sequential run; the blocking/lifting engines
	// fan guiding-path subcubes over per-subcube solvers
	// (allsat.Options.Workers); the BDD engine computes disjoint
	// Restrict slices of the present-state space concurrently. All
	// engines return the same solution set as the sequential run for
	// every worker count.
	Parallel int
	// FrontierSimplify lets Reach pass each backward frontier through the
	// Coudert–Madre generalized cofactor with the already-visited states
	// as don't cares, trading frontier-cover size for possibly revisiting
	// known states. The fixpoint and reported per-distance frontiers are
	// unchanged; only the target handed to the next preimage differs.
	FrontierSimplify bool
	// Incremental makes the iterated entry points (Reach, ForwardReach,
	// KStepPreimage, CheckReachable's trace extraction) keep one
	// persistent solver session and one shared BDD manager across steps
	// (internal/incr): the circuit is encoded once, each step's target is
	// gated on a fresh activation literal, and learned clauses plus the
	// success-driven memo survive retargeting. Frontiers, counts, and
	// verdicts are bit-identical to the fresh-instance path; only the
	// resource accounting differs (budgets are session-global instead of
	// per-step, see DESIGN.md §10). It applies to the success-driven
	// engine without EliminateAux/Restrict; other configurations fall
	// back to the fresh path. Single-step Compute ignores it.
	Incremental bool
	// ShareManager, when non-nil, asks the success-driven engine to also
	// export the state projection of its solution set into this manager
	// (Result.Set/HasSet), skipping the cover→BDD re-import for callers
	// that keep their own visited set — Reach's fixpoint loop. The set is
	// renamed onto the canonical state space (variable k = latch k), so
	// the manager must be ordered over those variables — typically
	// bdd.NewOrdered(StateSpace(c).Vars()).
	ShareManager *bdd.Manager
	// Budget imposes resource limits (deadline, context cancellation,
	// decision/conflict/cube caps, BDD node cap) on the whole computation,
	// shared by every engine it drives. A relative Timeout is resolved to
	// an absolute deadline once, at the outermost entry point, so nested
	// calls (Reach steps, parallel slices) spend from one allowance. When
	// the budget trips, results come back with Aborted set and a sound
	// partial answer — never an error, never silently truncated. Explicit
	// per-engine budgets (Core.Budget, AllSAT.Budget) take precedence.
	Budget budget.Budget
	// Stats, when non-nil, receives hierarchical counters for the run:
	// engine totals at the root, per-step sub-registries for the
	// reachability loops. Safe for concurrent use; snapshot or serve it
	// while the computation is in flight.
	Stats *stats.Registry
	// Runtime, when non-nil, executes the computation on the shared
	// pooled runtime: solvers and BDD managers come warm from its
	// free-list instead of being rebuilt per request, and — when it also
	// carries a scheduler — the parallel engines run their subcube jobs
	// on the server-wide executor pool under the runtime's tenant label.
	// Results are bit-identical either way; nil builds per request and
	// runs parallel jobs on a private scheduler. Incremental sessions
	// ignore it (their
	// solvers persist across steps by design).
	Runtime *rt.Runtime
}

// Result is a preimage: the set of predecessor states.
type Result struct {
	// States is the preimage as a cube cover over StateSpace.
	States *cube.Cover
	// StateSpace is the canonical state space (vars 0..L-1, latch names).
	StateSpace *cube.Space
	// Count is the exact number of preimage states.
	Count *big.Int
	// Pairs, when Options.WithInputs was set on a SAT engine, is the
	// cover over (state ++ input) of all witness pairs; nil otherwise.
	Pairs *cube.Cover
	// Stats carries search counters (SAT engines) or is zero (BDD).
	Stats allsat.Stats
	// BDDNodes is the peak node count of the engine's manager.
	BDDNodes int
	// Engine records which engine produced the result.
	Engine Engine
	// Aborted is true when a resource limit (cube cap, decision cap,
	// deadline, cancellation, BDD node cap) stopped the engine early.
	// States is then a sound under-approximation of the true preimage —
	// every reported state is a genuine predecessor, but some may be
	// missing. AbortReason says which limit tripped.
	Aborted     bool
	AbortReason budget.Reason
	// Set, valid when HasSet, is the state set as a BDD over the
	// canonical state space in the manager the caller passed via
	// Options.ShareManager — the same set States covers, without the
	// cover→BDD re-import.
	Set    bdd.Ref
	HasSet bool
}

// StateSpace builds the canonical state space of a circuit: position k is
// latch k, variable ids are 0..L-1, names are the latch signal names.
func StateSpace(c *circuit.Circuit) *cube.Space {
	vars := make([]lit.Var, len(c.Latches))
	names := make([]string, len(c.Latches))
	for i, gi := range c.Latches {
		vars[i] = lit.Var(i)
		names[i] = c.Gates[gi].Name
	}
	return cube.NewNamedSpace(vars, names)
}

// canonicalize re-expresses a cover (position-aligned to the latch order)
// over the canonical state space.
func canonicalize(space *cube.Space, cv *cube.Cover) *cube.Cover {
	out := cube.NewCover(space)
	for _, c := range cv.Cubes() {
		out.Add(c.Clone())
	}
	return out
}

// Compute returns the one-step preimage of the target set. When the
// budget in opts trips mid-computation the result carries Aborted=true
// and a States cover that under-approximates the preimage; the error
// return is reserved for malformed inputs.
func Compute(c *circuit.Circuit, target *cube.Cover, opts Options) (*Result, error) {
	opts.Budget = opts.Budget.Materialize()
	start := time.Now()
	var res *Result
	var err error
	switch {
	case opts.Engine == EngineBDD && opts.Parallel > 1 && len(c.Latches) > 0:
		res, err = computeBDDParallel(c, target, opts)
	case opts.Engine == EngineBDD:
		res, err = computeBDD(c, target, opts)
	default:
		res, err = computeSAT(c, target, opts)
	}
	if err == nil {
		recordStats(opts.Stats, res, time.Since(start))
	}
	return res, err
}

// applySimplify preprocesses f in place when opts.Simplify resolves to
// enabled, freezing the projection variables so the projected solution
// set — and therefore every engine's cover — is unchanged. Every caller
// passes an instance-local formula (trans.NewInstance clones the cached
// encoding; KStepPreimage builds a private unrolling), so mutating in
// place is safe. The decision is made once at this layer: both the local
// mode and the nested allsat mode are flipped to Off so inner layers
// never re-run (or independently enable) the pass.
func applySimplify(f *cnf.Formula, projSpace *cube.Space, opts *Options) simplify.Stats {
	enabled := opts.Simplify.Enabled(true)
	opts.Simplify = simplify.Off
	opts.AllSAT.Simplify = simplify.Off
	if !enabled {
		return simplify.Stats{}
	}
	frozen := make([]bool, f.NumVars)
	for _, v := range projSpace.Vars() {
		if int(v) < len(frozen) {
			frozen[v] = true
		}
	}
	res := simplify.Run(f, func(v lit.Var) bool { return frozen[v] }, simplify.Options{})
	return res.Stats
}

// runSATEngine dispatches one all-SAT enumeration for the selected SAT
// engine, injecting the computation budget into the engine options. The
// injection happens after the Core zero-value check so default tuning is
// preserved; an explicitly set engine budget wins over opts.Budget. The
// formula is simplified first (see applySimplify) unless the caller
// already did or opted out.
func runSATEngine(f *cnf.Formula, projSpace *cube.Space, opts Options) (*allsat.Result, error) {
	if r := opts.Budget.Start().Now(); r != budget.None {
		// Dead budget: abort before preprocessing (see computeSAT).
		return &allsat.Result{
			Space:   projSpace,
			Cover:   cube.NewCover(projSpace),
			Count:   new(big.Int),
			Aborted: true,
			Reason:  r,
		}, nil
	}
	sstats := applySimplify(f, projSpace, &opts)
	ar, err := runSATEngineSimplified(f, projSpace, opts)
	if ar != nil && sstats.Applied {
		ar.Stats.Simplify = sstats
	}
	return ar, err
}

func runSATEngineSimplified(f *cnf.Formula, projSpace *cube.Space, opts Options) (*allsat.Result, error) {
	switch opts.Engine {
	case EngineSuccessDriven:
		pr, ar := runSuccessDriven(f, projSpace, opts)
		pr.Release() // the cover/count are extracted; the manager can go back warm
		return ar, nil
	case EngineBlocking, EngineLifting, EngineDisjoint:
		as := opts.AllSAT
		if as.Budget.IsZero() {
			as.Budget = opts.Budget
		}
		if as.Runtime == nil {
			as.Runtime = opts.Runtime
		}
		if opts.Parallel > 1 && as.Workers == 0 {
			as.Workers = opts.Parallel
		}
		switch opts.Engine {
		case EngineBlocking:
			return allsat.EnumerateBlocking(f, projSpace, as), nil
		case EngineLifting:
			return allsat.EnumerateLifting(f, projSpace, as), nil
		default:
			return allsat.EnumerateDisjoint(f, projSpace, as), nil
		}
	default:
		return nil, fmt.Errorf("preimage: unknown engine %v", opts.Engine)
	}
}

// runSuccessDriven runs the success-driven engine — pooled for any worker
// count (one worker short-circuits to the plain sequential enumerator
// inside the pool) — and returns both the merged BDD (manager + set) and
// the allsat-shaped result extracted from it. The run budget is enforced
// by the pool; an explicitly set engine budget wins over opts.Budget.
func runSuccessDriven(f *cnf.Formula, projSpace *cube.Space, opts Options) (*pool.Result, *allsat.Result) {
	co := opts.Core
	if co.IsZero() {
		co = core.DefaultOptions()
	}
	bud := co.Budget
	if bud.IsZero() {
		bud = opts.Budget
	}
	co.Budget = budget.Budget{}
	workers := opts.Parallel
	if workers < 1 {
		workers = 1
	}
	pr := pool.Enumerate(f, projSpace, pool.Options{
		Workers: workers,
		Core:    co,
		Budget:  bud,
		Stats:   opts.Stats,
		Runtime: opts.Runtime,
	})
	ar := &allsat.Result{
		Space:   projSpace,
		Cover:   pr.Manager.ISOP(pr.Set, projSpace),
		Count:   pr.Manager.SatCount(pr.Set),
		Stats:   pr.Stats,
		Aborted: pr.Aborted,
		Reason:  pr.Reason,
	}
	ar.Stats.Cubes = uint64(ar.Cover.Len())
	return pr, ar
}

// recordStats publishes a result's counters into the run registry.
func recordStats(reg *stats.Registry, r *Result, elapsed time.Duration) {
	if reg == nil || r == nil {
		return
	}
	reg.Counter("decisions").Add(r.Stats.Decisions)
	reg.Counter("propagations").Add(r.Stats.Propagations)
	reg.Counter("conflicts").Add(r.Stats.Conflicts)
	reg.Counter("solutions").Add(r.Stats.Solutions)
	reg.Counter("cubes").Add(r.Stats.Cubes)
	reg.Counter("cache-lookups").Add(r.Stats.CacheLookups)
	reg.Counter("cache-hits").Add(r.Stats.CacheHits)
	reg.Counter("cache-clears").Add(r.Stats.CacheClears)
	reg.MaxGauge("bdd-nodes", int64(r.BDDNodes))
	if r.Stats.ArenaBytes > 0 || r.Stats.PeakLearnts > 0 {
		// Clause-arena residency of the CDCL solvers (summed across
		// parallel workers at capture time). The per-tier gauges snapshot
		// the tiered learnt DB: core is permanent, tier2 demotes on
		// disuse, local churns under reduction.
		reg.MaxGauge("sat.arena-bytes", int64(r.Stats.ArenaBytes))
		reg.MaxGauge("sat.peak-learnts", int64(r.Stats.PeakLearnts))
		reg.MaxGauge("sat.peak-learnt-bytes", int64(r.Stats.PeakLearntBytes))
		reg.SetGauge("sat.learnts-core", int64(r.Stats.LearntsCore))
		reg.SetGauge("sat.learnts-tier2", int64(r.Stats.LearntsTier2))
		reg.SetGauge("sat.learnts-local", int64(r.Stats.LearntsLocal))
	}
	if k := r.Stats.Kernel; k.UniqueLookups > 0 || k.CacheLookups > 0 {
		reg.Counter("kernel-unique-lookups").Add(k.UniqueLookups)
		reg.Counter("kernel-unique-probes").Add(k.UniqueProbes)
		reg.Counter("kernel-rehashes").Add(k.Rehashes)
		reg.Counter("kernel-cache-lookups").Add(k.CacheLookups)
		reg.Counter("kernel-cache-hits").Add(k.CacheHits)
		reg.Counter("kernel-cache-evictions").Add(k.CacheEvictions)
		reg.MaxGauge("kernel-unique-cap", int64(k.UniqueCap))
		reg.MaxGauge("kernel-cache-cap", int64(k.CacheCap))
		reg.MaxGauge("kernel-cache-size", int64(k.CacheSize))
		reg.SetFloatGauge("kernel-load-factor", k.LoadFactor())
		reg.SetFloatGauge("kernel-avg-probes", k.AvgProbes())
	}
	if sp := r.Stats.Simplify; sp.Applied {
		reg.Counter("simplify-runs").Inc()
		reg.Counter("simplify-vars-eliminated").Add(uint64(sp.VarsEliminated))
		reg.Counter("simplify-units-fixed").Add(uint64(sp.UnitsFixed))
		reg.Counter("simplify-clauses-subsumed").Add(uint64(sp.ClausesSubsumed))
		reg.Counter("simplify-lits-strengthened").Add(uint64(sp.LitsStrengthened))
		reg.Counter("simplify-resolvents-added").Add(uint64(sp.ResolventsAdded))
		reg.Counter("simplify-probes").Add(uint64(sp.Probes))
		reg.Counter("simplify-probe-failures").Add(uint64(sp.ProbeFailures))
		if sp.ClausesAfter < sp.ClausesBefore {
			reg.Counter("simplify-clauses-removed").Add(uint64(sp.ClausesBefore - sp.ClausesAfter))
		}
	}
	reg.AddDuration("time", elapsed)
	if r.Aborted {
		reg.Counter("aborts").Inc()
		reg.Counter("abort-" + r.AbortReason.String()).Inc()
	}
}

// computeBDDParallel splits the present-state space into disjoint slices
// on the leading latches and runs computeBDD per slice concurrently,
// each slice on its own (single-threaded) manager via Restrict. The
// slices share one budget context: the first slice to fail or abort
// cancels the rest, so an error does not leave sibling goroutines
// burning CPU to completion. Per-slice Aborted flags are merged into the
// result. The SAT engines do not come through here — they parallelize
// inside their enumerators (internal/pool, allsat.Options.Workers).
func computeBDDParallel(c *circuit.Circuit, target *cube.Cover, opts Options) (*Result, error) {
	bits := 1
	for 1<<bits < opts.Parallel && bits < len(c.Latches) && bits < 4 {
		bits++
	}
	n := 1 << bits
	stateSpace := StateSpace(c)
	results := make([]*Result, n)
	errs := make([]error, n)

	parent := opts.Budget.Ctx
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	var wg sync.WaitGroup
	for slice := 0; slice < n; slice++ {
		wg.Add(1)
		go func(slice int) {
			defer wg.Done()
			sub := opts
			sub.Parallel = 0
			sub.Stats = nil // the caller records the merged totals once
			sub.Budget.Ctx = ctx
			restrict := stateSpace.FullCube()
			if opts.Restrict != nil {
				copy(restrict, opts.Restrict)
			}
			for b := 0; b < bits; b++ {
				want := lit.TernOf(slice&(1<<b) != 0)
				if restrict[b] != lit.Unknown && restrict[b] != want {
					// Slice contradicts the caller's restriction: empty.
					results[slice] = &Result{
						States:     cube.NewCover(stateSpace),
						StateSpace: stateSpace,
						Count:      new(big.Int),
						Engine:     opts.Engine,
					}
					return
				}
				restrict[b] = want
			}
			sub.Restrict = restrict
			results[slice], errs[slice] = computeBDD(c, target, sub)
			if errs[slice] != nil || (results[slice] != nil && results[slice].Aborted) {
				cancel() // stop the sibling slices
			}
		}(slice)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Slices are disjoint: union covers, add counts, sum stats.
	out := &Result{
		States:     cube.NewCover(stateSpace),
		StateSpace: stateSpace,
		Count:      new(big.Int),
		Engine:     opts.Engine,
	}
	for _, r := range results {
		if r == nil {
			continue
		}
		for _, cb := range r.States.Cubes() {
			out.States.Add(cb)
		}
		out.Count.Add(out.Count, r.Count)
		accumulate(&out.Stats, r.Stats)
		if r.BDDNodes > out.BDDNodes {
			out.BDDNodes = r.BDDNodes
		}
		if r.Aborted {
			out.Aborted = true
			if out.AbortReason == budget.None {
				out.AbortReason = r.AbortReason
			}
		}
	}
	out.States.Reduce()
	return out, nil
}

// projectionOrder builds the decision/projection variable order for the
// SAT engines from the instance according to the ablation options.
func projectionOrder(inst *trans.Instance, opts Options) ([]lit.Var, []string) {
	return inst.OrderedProjection(opts.InputFirstOrder, opts.Interleave)
}

func computeSAT(c *circuit.Circuit, target *cube.Cover, opts Options) (*Result, error) {
	// Poll once up front: an already-expired deadline or cancelled context
	// aborts before any encoding or preprocessing effort is spent. (The
	// engines poll too, but preprocessing can solve small instances
	// outright, in zero decisions — without this check such a run would
	// look complete despite the dead budget.)
	if r := opts.Budget.Start().Now(); r != budget.None {
		stateSpace := StateSpace(c)
		return &Result{
			States:      cube.NewCover(stateSpace),
			StateSpace:  stateSpace,
			Count:       new(big.Int),
			Engine:      opts.Engine,
			Aborted:     true,
			AbortReason: r,
		}, nil
	}
	inst, err := trans.NewInstance(c, target)
	if err != nil {
		return nil, err
	}
	if opts.Restrict != nil {
		if len(opts.Restrict) != len(inst.StateVars) {
			return nil, fmt.Errorf("preimage: Restrict has %d positions, circuit has %d latches",
				len(opts.Restrict), len(inst.StateVars))
		}
		for pos, t := range opts.Restrict {
			if t == lit.Unknown {
				continue
			}
			inst.F.Add(lit.New(inst.StateVars[pos], t == lit.False))
		}
	}
	projVars, projNames := projectionOrder(inst, opts)
	projSpace := cube.NewNamedSpace(projVars, projNames)

	if opts.EliminateAux {
		isProj := make([]bool, inst.F.NumVars)
		for _, v := range projVars {
			isProj[v] = true
		}
		cnf.EliminateVars(inst.F, func(v lit.Var) bool { return !isProj[v] }, 0)
	}

	sstats := applySimplify(inst.F, projSpace, &opts)

	var res *allsat.Result
	var pr *pool.Result
	if opts.Engine == EngineSuccessDriven {
		pr, res = runSuccessDriven(inst.F, projSpace, opts)
	} else {
		res, err = runSATEngine(inst.F, projSpace, opts)
		if err != nil {
			return nil, err
		}
	}
	res.Stats.Simplify = sstats

	stateSpace := StateSpace(c)
	// Project the (ordered) projection cover onto the state positions.
	posOfLatch := make([]int, len(inst.StateVars))
	for i, v := range inst.StateVars {
		posOfLatch[i] = projSpace.PosOf(v)
	}
	states := cube.NewCover(stateSpace)
	for _, cb := range res.Cover.Cubes() {
		sc := stateSpace.FullCube()
		for i, pos := range posOfLatch {
			sc[i] = cb[pos]
		}
		states.Add(sc)
	}
	states.Reduce()

	out := &Result{
		States:      states,
		StateSpace:  stateSpace,
		Stats:       res.Stats,
		BDDNodes:    res.Stats.BDDNodes,
		Engine:      opts.Engine,
		Aborted:     res.Aborted,
		AbortReason: res.Reason,
	}
	if pr != nil {
		// The engine handed back its merged BDD: the state count and (when
		// requested) the state set come straight from it — no third
		// manager, no cover round-trip. ∃x·set counted over the state
		// variables equals the minterm count of the projected cover.
		stateSet := pr.Manager.ExistsVars(pr.Set, inst.InputVars)
		out.Count = pr.Manager.SatCountIn(stateSet, inst.StateVars)
		if opts.ShareManager != nil {
			// Rename CNF state vars to canonical positions; the relative
			// order is the latch order in both managers, so the import
			// stays on the fast structural path.
			sub := make(map[lit.Var]lit.Var, len(inst.StateVars))
			for i, v := range inst.StateVars {
				sub[v] = lit.Var(i)
			}
			snap := pr.Manager.Export(stateSet).Rename(sub)
			out.Set = opts.ShareManager.Import(snap)
			out.HasSet = true
		}
		pr.Release()
	} else {
		out.Count = countStates(states, opts.Runtime)
	}
	if opts.WithInputs {
		// Re-express the projection cover over (state ++ input) order.
		pairSpace := pairSpace(inst)
		pairs := cube.NewCover(pairSpace)
		fullVars := inst.FullSpace.Vars()
		for _, cb := range res.Cover.Cubes() {
			pc := pairSpace.FullCube()
			for i, v := range fullVars {
				pc[i] = cb[projSpace.PosOf(v)]
			}
			pairs.Add(pc)
		}
		out.Pairs = pairs
	}
	return out, nil
}

func pairSpace(inst *trans.Instance) *cube.Space {
	n := inst.FullSpace.Size()
	vars := make([]lit.Var, n)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		vars[i] = lit.Var(i)
		names[i] = inst.FullSpace.Name(i)
	}
	return cube.NewNamedSpace(vars, names)
}

// countStates counts the minterms of a state cover exactly via a BDD,
// borrowing the counting manager from the runtime pool when one is
// available (r may be nil).
func countStates(cv *cube.Cover, r *rt.Runtime) *big.Int {
	m := r.P().AcquireManager(cv.Space().Vars(), 0)
	n := m.SatCount(m.FromCover(cv))
	r.P().ReleaseManager(m)
	return n
}
