package pool

// Subcube execution. Every parallel enumeration — a one-shot Enumerate
// and each Session.Run — submits one job per guiding-path subcube to a
// runtime.Scheduler: the shared one when Options.Runtime carries it,
// else a private one sized to the worker count. Enumerators are not
// pinned to executors. A per-run stash hands them to whichever executor
// picks the next job, capped at the worker count, so a run uses at most
// that many solver/manager pairs while its jobs interleave with every
// other tenant's on shared executors.
//
// Deadlock freedom of the blocking stash receive: an executor blocks in
// acquire only when all of the run's enumerators exist and none is
// stashed — each is then held by a job that is currently running on
// some executor and returns it before finishing. If every executor were
// blocked in acquire, no holder would be running and every enumerator
// would be stashed, contradicting the block. So some holder always
// runs, and the stash receive terminates.
//
// Termination: every job ends by sending exactly one message to the
// merge loop — a split notice, sent before the two children are
// submitted, or a terminal result. The loop counts open subcubes (+1
// per split, -1 per terminal message) and returns at zero, when every
// job has released its enumerator and sent its last message.

import (
	"context"
	"sync"
	"sync/atomic"

	"allsatpre/internal/allsat"
	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/core"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	"allsatpre/internal/partition"
	rt "allsatpre/internal/runtime"
)

// mergeMsg is one job's message to the merge loop: a split notice, or
// a per-subcube result (snapshot + counter deltas).
type mergeMsg struct {
	split bool
	snap  *bdd.Snapshot
	stats allsat.Stats
}

// slot is a stashed enumerator with its decision count at the start of
// the run, so the per-enumerator load figures cover this run only.
type slot struct {
	e       *core.Enumerator
	decBase uint64
}

// schedRun is the per-run state shared by the subcube jobs.
type schedRun struct {
	f      *cnf.Formula
	space  *cube.Space
	core   core.Options
	thresh uint64
	// rt carries the scheduler the jobs run on and the pool fresh
	// enumerators take their managers from.
	rt *rt.Runtime
	// base literals are assumed before every subcube's guiding-path
	// assumptions (a Session's per-step activation literals).
	base   []lit.Lit
	isBase map[lit.Var]bool
	// persistent marks a stash pre-filled with a Session's enumerators:
	// acquire never builds one and their managers stay with the session.
	persistent bool

	// stash holds idle enumerators; its capacity is the enumerator cap
	// (the worker count). created counts how many exist.
	stash   chan slot
	created atomic.Int32
	// msgs carries every job's message to the merge loop. Four slots per
	// worker let jobs finish while the loop is inside an Or.
	msgs chan mergeMsg

	// cancel stops the siblings once the first abort is recorded.
	cancel context.CancelFunc
	abort  atomic.Int32

	// Failed-assumption patterns shared across jobs: a subcube whose
	// assumptions already failed prunes every later subcube it subsumes.
	// They are valid only under the run's base literals.
	failMu sync.Mutex
	fails  []partition.FailedPattern

	unsat  atomic.Uint64
	pruned atomic.Uint64
	done   atomic.Uint64
}

func newRun(space *cube.Space, workers int, thresh uint64, run *rt.Runtime, cancel context.CancelFunc) *schedRun {
	return &schedRun{
		space:  space,
		thresh: thresh,
		rt:     run,
		stash:  make(chan slot, workers),
		msgs:   make(chan mergeMsg, 4*workers),
		cancel: cancel,
	}
}

// run executes the subcubes and merges their sets into man. The merge
// is a pure Or over disjoint subcube sets. It honors nodeCap by
// checking after each import; once the cap trips, *mergeDead latches
// and later snapshots are dropped (sound: the set only shrinks).
func (r *schedRun) run(tasks []partition.Subcube, man *bdd.Manager, nodeCap int, mergeDead *bool) *Result {
	r.submit(tasks...)
	set := bdd.False
	var total allsat.Stats
	pst := PoolStats{Workers: cap(r.stash)}
	for open := len(tasks); open > 0; {
		m := <-r.msgs
		if m.split {
			open++
			pst.Splits++
			continue
		}
		open--
		addCounters(&total, m.stats)
		if m.snap != nil && !*mergeDead {
			set = man.Or(set, man.Import(m.snap))
			if nodeCap > 0 && man.NumNodes() >= nodeCap {
				r.recordAbort(budget.Nodes)
				*mergeDead = true
			}
		}
	}

	// Every enumerator is back in the stash: fold in its gauges, and
	// return the run's own managers to the pool (snapshots are deep
	// copies, so the merged set never references them).
	var kernel bdd.KernelStats
	nodes := 0
	pst.MinWorkerDecisions = ^uint64(0)
	for i := r.created.Load(); i > 0; i-- {
		s := <-r.stash
		m := s.e.Manager()
		kernel.Merge(m.Kernel())
		nodes += m.NumNodes()
		d := s.e.Stats().Decisions - s.decBase
		pst.MaxWorkerDecisions = max(pst.MaxWorkerDecisions, d)
		pst.MinWorkerDecisions = min(pst.MinWorkerDecisions, d)
		if !r.persistent {
			r.rt.P().ReleaseManager(m)
		}
	}
	if pst.MinWorkerDecisions == ^uint64(0) {
		pst.MinWorkerDecisions = 0
	}
	pst.Subcubes = r.done.Load()
	pst.UnsatSubcubes = r.unsat.Load()
	pst.Pruned = r.pruned.Load()

	kernel.Merge(man.Kernel())
	total.Kernel = kernel
	total.BDDNodes = nodes + man.NumNodes()
	reason := budget.Reason(r.abort.Load())
	return &Result{
		Manager: man,
		Set:     set,
		Stats:   total,
		Pool:    pst,
		Aborted: reason != budget.None,
		Reason:  reason,
	}
}

// submit queues the tasks in one step as if pushed one by one onto the
// tenant's LIFO queue: the last task is dispatched first. For a split
// (lo, hi) that runs the upper child first; on the mult preimage
// workloads this order enumerates measurably faster than the reverse.
func (r *schedRun) submit(tasks ...partition.Subcube) {
	jobs := make([]func(), len(tasks))
	for i, t := range tasks {
		jobs[len(tasks)-1-i] = func() { r.process(t) }
	}
	r.rt.S().Submit(r.rt.Tenant, jobs...)
}

// recordAbort keeps the first abort reason and cancels the siblings.
func (r *schedRun) recordAbort(reason budget.Reason) {
	if reason != budget.None && r.abort.CompareAndSwap(0, int32(reason)) {
		r.cancel()
	}
}

// addFail records a failed-assumption pattern. Base literals are
// stripped first: the base holds for the entire run, so a conflict
// "base + prefix" prunes every subcube containing the prefix.
func (r *schedRun) addFail(failed []lit.Lit) {
	kept := failed[:0]
	for _, l := range failed {
		if !r.isBase[l.Var()] {
			kept = append(kept, l)
		}
	}
	if p, ok := partition.PatternOf(r.space, kept); ok {
		r.failMu.Lock()
		r.fails = append(r.fails, p)
		r.failMu.Unlock()
	}
}

func (r *schedRun) prunedBy(s partition.Subcube) bool {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	for _, p := range r.fails {
		if p.Prunes(s) {
			return true
		}
	}
	return false
}

// acquire hands out an enumerator: a stashed one if available, a fresh
// one (with a pooled manager) while under the cap, else it blocks until
// a running job returns one — see the deadlock-freedom argument above.
func (r *schedRun) acquire() slot {
	select {
	case s := <-r.stash:
		return s
	default:
	}
	if int(r.created.Add(1)) <= cap(r.stash) {
		co := r.core
		if p := r.rt.P(); p != nil {
			co.Manager = p.AcquireManager(r.space.Vars(), 0)
		}
		return slot{e: core.New(r.f, r.space, co)}
	}
	r.created.Add(-1)
	return <-r.stash
}

// process runs one subcube job. Once the run is aborted, queued jobs
// only report in, so the merge loop's count still reaches zero.
func (r *schedRun) process(t partition.Subcube) {
	r.done.Add(1)
	if r.abort.Load() != 0 {
		r.msgs <- mergeMsg{}
		return
	}
	if r.prunedBy(t) {
		r.pruned.Add(1)
		r.msgs <- mergeMsg{}
		return
	}
	s := r.acquire()
	assumps := t.Assumptions(r.space, append([]lit.Lit(nil), r.base...))
	lo, hi, canSplit := t.Children(r.space)
	limit := r.thresh
	if !canSplit {
		limit = 0 // cannot split further: run the subcube to completion
	}
	sub := s.e.EnumerateUnder(assumps, limit)
	var msg mergeMsg
	switch sub.Status {
	case core.SubSplit:
		// The partial attempt is discarded; its children start over.
		msg.split = true
	case core.SubSAT:
		msg.stats = sub.Stats
		if sub.Set != bdd.False {
			msg.snap = s.e.Manager().Export(sub.Set)
		}
	case core.SubUnsatAssumps:
		msg.stats = sub.Stats
		r.addFail(sub.Failed)
		r.unsat.Add(1)
	case core.SubGlobalUnsat:
		// UNSAT independent of assumptions: the empty pattern subsumes
		// (and prunes) every remaining subcube.
		msg.stats = sub.Stats
		r.addFail(nil)
	}
	r.stash <- s
	if sub.Aborted {
		r.recordAbort(sub.Reason)
	}
	r.msgs <- msg
	if msg.split {
		r.submit(lo, hi)
	}
}
