// Package pool runs the success-driven enumerator (internal/core) in
// parallel. The projection space is split into guiding-path subcubes
// (internal/partition), and each subcube is one job on a
// runtime.Scheduler. A job borrows a core.Enumerator — its own solver
// trail, learned clauses, memo table, and single-threaded BDD manager —
// and re-splits its subcube when the enumeration exceeds the work
// threshold. Per-subcube solution sets are exported as immutable BDD
// snapshots and published over a channel together with the
// search-counter deltas; the merge loop rebuilds the union in a parent
// manager. Because the subcubes are pairwise disjoint, the merge is a
// pure Or with no cancellation, and BDD canonicity makes the merged set
// — and the ISOP cover extracted from it — bit-identical to the
// sequential enumeration for every worker count.
//
// Abort protocol: the shared budget.Budget stays the single source of
// truth. Each enumerator polls its own checker; the first abort records
// the reason and cancels a context shared by all jobs, so siblings stop
// at their next poll and queued jobs are skipped. Partial per-subcube
// sets still merge, and the result reports Aborted with the first
// reason — a sound under-approximation, exactly like the sequential
// engine.
package pool

import (
	"context"
	"runtime"
	"sync/atomic"

	"allsatpre/internal/allsat"
	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/core"
	"allsatpre/internal/cube"
	"allsatpre/internal/partition"
	rt "allsatpre/internal/runtime"
	"allsatpre/internal/stats"
)

// DefaultSplitThreshold is the per-subcube decision cap before a dynamic
// re-split: coarse enough that the split bookkeeping is noise, fine
// enough that one pathological subcube cannot serialize the run.
const DefaultSplitThreshold = 4096

// Options configures a pooled enumeration.
type Options struct {
	// Workers is the worker count; <= 0 selects runtime.GOMAXPROCS(0).
	// One worker short-circuits to the plain sequential enumerator.
	Workers int
	// PrefixDepth overrides the static split depth (0 = automatic: the
	// smallest k with 2^k >= 4*Workers subcubes).
	PrefixDepth int
	// SplitThreshold overrides the dynamic re-split decision cap
	// (0 = DefaultSplitThreshold).
	SplitThreshold uint64
	// Core configures each worker's enumerator. Core.Budget is ignored;
	// pass the run budget in Budget.
	Core core.Options
	// Budget bounds the whole pooled run. MaxDecisions is enforced
	// globally via a shared atomic counter; MaxBDDNodes applies to each
	// worker's manager and to the merged parent manager individually.
	Budget budget.Budget
	// Stats, when non-nil, receives the pool.* counters and gauges.
	Stats *stats.Registry
	// Runtime, when non-nil, supplies warm solver/manager pairs from its
	// pool and — when it also carries a scheduler — runs the subcube
	// jobs on the shared server-wide executors. Without a scheduler each
	// run starts a private one sized to Workers and stops it on return.
	Runtime *rt.Runtime
}

// PoolStats aggregates the pool's own bookkeeping (the solver counters
// are in the allsat.Stats of the result).
type PoolStats struct {
	// Workers is the effective worker count.
	Workers int
	// Subcubes counts work units processed, including pruned ones.
	Subcubes uint64
	// Splits counts dynamic re-splits (each replaces one subcube by two).
	Splits uint64
	// UnsatSubcubes counts subcubes whose assumptions conflicted with the
	// formula (the assumption-aware UNSAT path, not global UNSAT).
	UnsatSubcubes uint64
	// Pruned counts subcubes skipped because a recorded failed-assumption
	// pattern subsumed them.
	Pruned uint64
	// MaxWorkerDecisions/MinWorkerDecisions expose load imbalance: the
	// decision counts of the busiest and laziest enumerators.
	MaxWorkerDecisions uint64
	MinWorkerDecisions uint64
}

// Result is the merged outcome of a pooled enumeration.
type Result struct {
	// Manager owns Set: the parent manager the per-subcube sets were
	// merged into. Its variable order is the projection order.
	Manager *bdd.Manager
	// Set is the union of the per-subcube solution sets.
	Set bdd.Ref
	// Stats sums the subcube jobs' search counters; BDDNodes totals
	// every manager (enumerators + parent) as the run's memory proxy, and
	// Kernel merges all kernel counters.
	Stats allsat.Stats
	// Pool holds the pool's own counters.
	Pool PoolStats
	// Aborted is set when any worker or the merger tripped the budget;
	// Set is then a sound under-approximation and Reason holds the first
	// cause.
	Aborted bool
	Reason  budget.Reason
	// rt is the runtime the parent manager was acquired from, so Release
	// can return it (nil for pool-less runs and Session results, where
	// Release degrades to clearing the references).
	rt *rt.Runtime
}

// Release returns the merged-set manager to the runtime pool the run
// was configured with (a no-op without one) and clears Manager/Set.
// Call it after the last use of either; not for Session results, whose
// manager persists across runs.
func (r *Result) Release() {
	if r == nil || r.Manager == nil {
		return
	}
	m := r.Manager
	r.Manager = nil
	r.Set = bdd.False
	r.rt.P().ReleaseManager(m)
}

// Enumerate runs the pooled enumeration and merges the per-subcube sets
// into a fresh parent manager. With one worker (or an empty projection
// space, where there is nothing to partition) it degrades to the plain
// sequential enumerator — the reference the determinism tests compare
// every other worker count against.
func Enumerate(f *cnf.Formula, space *cube.Space, opts Options) *Result {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts.Budget = opts.Budget.Materialize()
	if workers == 1 || space.Size() == 0 {
		return sequential(f, space, opts)
	}

	// Jobs share one cancellation context so the first abort stops the
	// siblings.
	base := context.Background()
	if opts.Budget.Ctx != nil {
		base = opts.Budget.Ctx
	}
	ctx, cancel := context.WithCancel(base)
	defer cancel()
	b := opts.Budget
	b.Ctx = ctx
	k, thresh := opts.split(space, workers)

	run, stop := opts.Runtime.Scheduled(workers)
	defer stop()
	r := newRun(space, workers, thresh, run, cancel)
	r.f = f
	r.core = shareDecisions(opts.Core, b, new(atomic.Uint64))
	mergeDead := false
	man := opts.Runtime.P().AcquireManager(space.Vars(), 0)
	res := r.run(partition.Split(space, k), man, opts.Budget.MaxBDDNodes, &mergeDead)
	res.rt = opts.Runtime
	publish(opts.Stats, res.Pool)
	return res
}

// split resolves the static split depth and the dynamic re-split
// threshold for the given worker count.
func (o Options) split(space *cube.Space, workers int) (int, uint64) {
	k := o.PrefixDepth
	if k <= 0 {
		k = partition.PrefixDepth(space, workers, 0)
	}
	thresh := o.SplitThreshold
	if thresh == 0 {
		thresh = DefaultSplitThreshold
	}
	return k, thresh
}

// shareDecisions returns the enumerator options for a parallel run under
// budget b: the run's decision cap moves into the shared counter n,
// polled through the OnDecision hook, so it holds across all workers.
func shareDecisions(co core.Options, b budget.Budget, n *atomic.Uint64) core.Options {
	maxDec := b.MergeDecisions(co.MaxDecisions)
	co.Budget = b
	co.Budget.MaxDecisions = 0
	co.MaxDecisions = 0
	if maxDec > 0 {
		co.OnDecision = func() budget.Reason {
			if n.Add(1) > maxDec {
				return budget.Decisions
			}
			return budget.None
		}
	}
	return co
}

// sequential is the one-worker degenerate case: the plain enumerator,
// with the pool bookkeeping reduced to a worker-count gauge.
func sequential(f *cnf.Formula, space *cube.Space, opts Options) *Result {
	co := opts.Core
	co.Budget = opts.Budget
	if p := opts.Runtime.P(); p != nil {
		co.Manager = p.AcquireManager(space.Vars(), 0)
	}
	e := core.New(f, space, co)
	r := e.Enumerate()
	res := &Result{
		Manager: r.Manager,
		Set:     r.Set,
		Stats:   r.Stats,
		Pool:    PoolStats{Workers: 1, Subcubes: 1},
		Aborted: r.Aborted,
		Reason:  r.Reason,
		rt:      opts.Runtime,
	}
	publish(opts.Stats, res.Pool)
	return res
}

// EnumerateToResult converts a pooled run to the shared allsat result
// shape, extracting the ISOP cover from the merged set exactly like the
// sequential core.EnumerateToResult.
func EnumerateToResult(f *cnf.Formula, space *cube.Space, opts Options) *allsat.Result {
	r := Enumerate(f, space, opts)
	out := &allsat.Result{
		Space:   space,
		Cover:   r.Manager.ISOP(r.Set, space),
		Count:   r.Manager.SatCount(r.Set),
		Stats:   r.Stats,
		Aborted: r.Aborted,
		Reason:  r.Reason,
	}
	out.Stats.Cubes = uint64(out.Cover.Len())
	r.Release()
	return out
}

// addCounters accumulates the monotone counter fields (gauge-like fields
// — BDDNodes, Kernel — are aggregated from the enumerators at the end).
func addCounters(dst *allsat.Stats, s allsat.Stats) {
	dst.Solutions += s.Solutions
	dst.Cubes += s.Cubes
	dst.BlockingClauses += s.BlockingClauses
	dst.BlockingLits += s.BlockingLits
	dst.LiftedFree += s.LiftedFree
	dst.Decisions += s.Decisions
	dst.Propagations += s.Propagations
	dst.Conflicts += s.Conflicts
	dst.CacheLookups += s.CacheLookups
	dst.CacheHits += s.CacheHits
	dst.CacheClears += s.CacheClears
}

// publish mirrors the pool counters into the stats registry under the
// pool.* keys.
func publish(reg *stats.Registry, p PoolStats) {
	if reg == nil {
		return
	}
	reg.SetGauge("pool.workers", int64(p.Workers))
	reg.Counter("pool.subcubes").Add(p.Subcubes)
	reg.Counter("pool.splits").Add(p.Splits)
	reg.Counter("pool.unsat-subcubes").Add(p.UnsatSubcubes)
	reg.Counter("pool.pruned-subcubes").Add(p.Pruned)
	reg.SetGauge("pool.max-worker-decisions", int64(p.MaxWorkerDecisions))
	reg.SetGauge("pool.min-worker-decisions", int64(p.MinWorkerDecisions))
	if p.MaxWorkerDecisions > 0 {
		reg.SetFloatGauge("pool.imbalance",
			float64(p.MaxWorkerDecisions-p.MinWorkerDecisions)/float64(p.MaxWorkerDecisions))
	}
}
