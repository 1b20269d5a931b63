package allsat

import (
	"context"
	"sync"
	"sync/atomic"

	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/partition"
	rt "allsatpre/internal/runtime"
	"allsatpre/internal/simplify"
)

// Parallel returns a copy of the options with the worker count set —
// the fluent spelling of Options.Workers for call sites that start from
// a literal or a default.
func (o Options) Parallel(workers int) Options {
	o.Workers = workers
	return o
}

// restrictFormula clones the formula and pins a guiding-path subcube
// with unit clauses. Each subcube job enumerates such a restricted
// clone with its own solver; the units also pin the subcube prefix
// against lifting (a unit clause has exactly one satisfying literal, so
// the lifter can never free its variable), which keeps the per-subcube
// covers disjoint even for the lifting engine.
func restrictFormula(f *cnf.Formula, space *cube.Space, s partition.Subcube) *cnf.Formula {
	rf := f.Clone()
	for _, l := range s.Assumptions(space, nil) {
		rf.AddClause(cnf.Clause{l})
	}
	return rf
}

// enumerateParallel fans an engine's enumeration loop out over
// guiding-path subcubes: the projection space is split into disjoint
// prefix subcubes, each enumerated by one scheduler job with a fresh
// solver on a restricted clone, and the per-subcube covers are
// concatenated in subcube order — so the merged cover is deterministic
// for a fixed split depth, and as a solution set it equals the
// sequential enumeration for every worker count. The jobs run on
// Options.Runtime's scheduler, or on a private one with Workers
// executors when none is configured.
func enumerateParallel(f *cnf.Formula, space *cube.Space, opts Options, eng engineKind) *Result {
	bud := opts.Budget.Materialize()
	workers := opts.Workers
	k := partition.PrefixDepth(space, workers, 2)
	subs := partition.Split(space, k)
	if len(subs) <= 1 {
		// f is already simplified by the enumerateEngine entry point
		// (opts.Simplify is Off here), so skip straight to the loop.
		seq := opts
		seq.Workers = 0
		return enumerateSimplified(f, space, seq, eng)
	}

	// The cube cap is global: jobs claim slots from a shared counter.
	// The first abort records its reason and cancels the siblings via a
	// shared context threaded into every job's solver budget.
	maxCubes := bud.MergeCubes(opts.MaxCubes)
	var cubeCount atomic.Uint64
	base := context.Background()
	if bud.Ctx != nil {
		base = bud.Ctx
	}
	ctx, cancel := context.WithCancel(base)
	defer cancel()
	var abortReason atomic.Int32
	record := func(r budget.Reason) {
		if r != budget.None && abortReason.CompareAndSwap(0, int32(r)) {
			cancel()
		}
	}
	wopts := opts
	wopts.Workers = 0
	wopts.MaxCubes = 0
	wopts.Budget = bud
	wopts.Budget.Ctx = ctx
	wopts.Budget.MaxCubes = 0

	type subOut struct {
		cubes []cube.Cube
		stats Stats
	}
	outs := make([]subOut, len(subs))
	runSub := func(i int) {
		it := newKindIterator(restrictFormula(f, space, subs[i]), space, wopts, eng)
		var cubes []cube.Cube
		for {
			if maxCubes > 0 && cubeCount.Load() >= maxCubes {
				record(budget.Cubes)
				break
			}
			c, ok := it.Next()
			if !ok {
				record(it.Reason())
				break
			}
			// Claim the slot before keeping the cube: the shared
			// counter only ever holds kept cubes plus transient
			// over-claims that are immediately returned, so the
			// merged cover respects the cap exactly — checking
			// Load() before Add() would let two jobs pass at
			// maxCubes-1 and overshoot by up to workers-1.
			if maxCubes > 0 && cubeCount.Add(1) > maxCubes {
				cubeCount.Add(^uint64(0)) // unclaim
				record(budget.Cubes)
				break
			}
			cubes = append(cubes, c)
		}
		outs[i] = subOut{cubes: cubes, stats: it.Stats()}
		it.Close()
	}

	// One job per subcube. outs is indexed by subcube, so the merged
	// cover is identical for every dispatch order. A job whose context is
	// already done records why instead of running.
	run, stop := opts.Runtime.Scheduled(min(workers, len(subs)))
	defer stop()
	finished := make(chan struct{}, len(subs))
	submitSubcubes(run, len(subs), func(i int) {
		if r := budget.OfContext(ctx); r != budget.None {
			record(r)
		} else {
			runSub(i)
		}
		finished <- struct{}{}
	})
	for range subs {
		<-finished
	}

	res := &Result{Space: space, Cover: cube.NewCover(space)}
	for _, o := range outs {
		for _, c := range o.cubes {
			res.Cover.Add(c)
		}
		addStats(&res.Stats, o.stats)
	}
	var kernel bdd.KernelStats
	res.Count, res.Stats.BDDNodes, kernel = countCover(res.Cover, opts.Runtime.P())
	res.Stats.Kernel.Merge(kernel)
	if r := budget.Reason(abortReason.Load()); r != budget.None {
		res.Aborted = true
		res.Reason = r
	}
	return res
}

// submitSubcubes queues job(i) for every subcube index i in one batch,
// so dispatch starts at subcube 0 like the sequential enumeration.
func submitSubcubes(run *rt.Runtime, n int, job func(i int)) {
	jobs := make([]func(), n)
	for i := range jobs {
		jobs[i] = func() { job(i) }
	}
	run.Sched.Submit(run.Tenant, jobs...)
}

// addStats accumulates the per-subcube search counters.
func addStats(dst *Stats, s Stats) {
	dst.Solutions += s.Solutions
	dst.Cubes += s.Cubes
	dst.BlockingClauses += s.BlockingClauses
	dst.BlockingLits += s.BlockingLits
	dst.LiftedFree += s.LiftedFree
	dst.PeakLearnts += s.PeakLearnts
	dst.PeakLearntBytes += s.PeakLearntBytes
	dst.ArenaBytes += s.ArenaBytes
	dst.LearntsCore += s.LearntsCore
	dst.LearntsTier2 += s.LearntsTier2
	dst.LearntsLocal += s.LearntsLocal
	dst.Decisions += s.Decisions
	dst.Propagations += s.Propagations
	dst.Conflicts += s.Conflicts
}

// ParallelIterator streams solution cubes from scheduler jobs, each
// enumerating one guiding-path subcube on its own solver. The multiset
// of cubes is the union of the disjoint per-subcube covers, but the
// order in which they arrive is unspecified: it depends on scheduling,
// unlike the sequential Iterator's.
//
// Jobs hand cubes to the consumer through a buffer under mu; Next waits
// on cond. On a private scheduler the buffer is bounded and a job blocks
// while it is full. Shared executors must never block on a slow
// consumer, so there the buffer is unbounded; the request's cube and
// budget fences bound it instead (the collect-then-merge paths buffer
// the whole cover anyway).
type ParallelIterator struct {
	cancel context.CancelFunc
	reason atomic.Int32
	done   atomic.Bool

	mu      sync.Mutex
	cond    *sync.Cond
	stats   Stats
	buf     []cube.Cube
	bufHead int
	limit   int  // buffered-cube cap; 0 = unbounded
	closed  bool // every subcube job finished
	stopped bool // consumer called Stop

	// stopSched stops a private scheduler (a no-op on a shared one). The
	// consumer calls it once, on exhaustion or Stop — never a job.
	stopSched func()
	finishing sync.Once
}

// NewParallelIterator submits one job per subcube (on Options.Runtime's
// scheduler, or a private one with Workers executors) and returns the
// streaming iterator over the blocking (or, with lift, the lifting)
// engine. Callers must either drain it or call Stop to release the
// jobs.
func NewParallelIterator(f *cnf.Formula, space *cube.Space, opts Options, lift bool) *ParallelIterator {
	eng := engBlocking
	if lift {
		eng = engLifting
	}
	return newParallelIterator(f, space, opts, eng)
}

// NewParallelDisjointIterator is NewParallelIterator for the disjoint
// engine. The per-subcube covers stay pairwise disjoint: every cube pins
// its subcube's unit prefix (level-0 literals are never shrunk away).
func NewParallelDisjointIterator(f *cnf.Formula, space *cube.Space, opts Options) *ParallelIterator {
	return newParallelIterator(f, space, opts, engDisjoint)
}

func newParallelIterator(f *cnf.Formula, space *cube.Space, opts Options, eng engineKind) *ParallelIterator {
	var sstats simplify.Stats
	f, sstats = maybeSimplify(f, space, &opts)
	workers := max(opts.Workers, 1)
	bud := opts.Budget.Materialize()
	base := context.Background()
	if bud.Ctx != nil {
		base = bud.Ctx
	}
	ctx, cancel := context.WithCancel(base)
	p := &ParallelIterator{cancel: cancel}
	p.cond = sync.NewCond(&p.mu)
	p.stats.Simplify = sstats
	k := partition.PrefixDepth(space, workers, 2)
	subs := partition.Split(space, k)
	workers = min(workers, len(subs))
	wopts := opts
	wopts.Workers = 0
	wopts.Budget = bud
	wopts.Budget.Ctx = ctx

	run, stop := opts.Runtime.Scheduled(workers)
	p.stopSched = stop
	if run != opts.Runtime {
		// A private scheduler's executors serve this iterator alone, so
		// they may block: bound the buffer, and wake a job blocked on it
		// when the run is cancelled.
		p.limit = 4 * workers
		context.AfterFunc(ctx, func() {
			p.mu.Lock()
			p.mu.Unlock()
			p.cond.Broadcast()
		})
	}
	var pending atomic.Int64
	pending.Store(int64(len(subs)))
	submitSubcubes(run, len(subs), func(i int) {
		if r := budget.OfContext(ctx); r != budget.None {
			p.record(r)
		} else {
			it := newKindIterator(restrictFormula(f, space, subs[i]), space, wopts, eng)
			for {
				c, ok := it.Next()
				if !ok {
					p.record(it.Reason())
					break
				}
				if !p.push(ctx, c) {
					// Stopped or cancelled while streaming: record it, or
					// a consumer that drains the buffered cubes would read
					// the truncated enumeration as complete.
					p.record(budget.OfContext(ctx))
					break
				}
			}
			p.fold(it.Stats())
			it.Close()
		}
		if pending.Add(-1) == 0 {
			p.mu.Lock()
			p.closed = true
			p.mu.Unlock()
			p.cond.Broadcast()
		}
	})
	return p
}

// record stores the first abort reason and cancels the siblings: one
// tripped budget stops every job promptly (matching
// enumerateParallel's first-abort-cancels-all semantics) instead of
// letting the remaining jobs keep burning their own budgets.
func (p *ParallelIterator) record(r budget.Reason) {
	if r != budget.None && p.reason.CompareAndSwap(0, int32(r)) {
		p.cancel()
	}
}

func (p *ParallelIterator) fold(s Stats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	addStats(&p.stats, s)
}

// push hands a cube to the consumer, first waiting for room when the
// buffer is bounded. It reports false once the consumer stopped or the
// run was cancelled.
func (p *ParallelIterator) push(ctx context.Context, c cube.Cube) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.limit > 0 && len(p.buf)-p.bufHead >= p.limit && !p.stopped && ctx.Err() == nil {
		p.cond.Wait()
	}
	if p.stopped || ctx.Err() != nil {
		return false
	}
	p.buf = append(p.buf, c)
	p.cond.Broadcast()
	return true
}

// Next returns the next solution cube, or ok=false once every job has
// drained its subcube (or Stop/a budget cut them short).
func (p *ParallelIterator) Next() (cube.Cube, bool) {
	p.mu.Lock()
	for p.bufHead >= len(p.buf) && !p.closed && !p.stopped {
		p.cond.Wait()
	}
	if p.bufHead < len(p.buf) && !p.stopped {
		c := p.buf[p.bufHead]
		p.buf[p.bufHead] = nil
		p.bufHead++
		if p.bufHead == len(p.buf) {
			p.buf, p.bufHead = p.buf[:0], 0
		}
		p.mu.Unlock()
		p.cond.Broadcast() // room for a job blocked on a full buffer
		return c, true
	}
	p.mu.Unlock()
	p.finish()
	return nil, false
}

// Stop cancels the jobs and ends the stream; on a private scheduler it
// returns once every job has. Safe to call more than once and after
// exhaustion.
func (p *ParallelIterator) Stop() {
	p.cancel()
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.finish()
}

// finish marks the stream ended and, once, stops a private scheduler
// and releases the context.
func (p *ParallelIterator) finish() {
	p.done.Store(true)
	p.finishing.Do(func() {
		p.stopSched()
		p.cancel()
	})
}

// Close ends the iteration; the scheduler jobs release their
// per-subcube iterators — and pooled solvers — as they wind down.
// It makes ParallelIterator satisfy the same closeable-iterator surface
// as the sequential iterators.
func (p *ParallelIterator) Close() { p.Stop() }

// Exhausted reports whether the stream has ended. Safe to call
// concurrently with Next/Stop.
func (p *ParallelIterator) Exhausted() bool { return p.done.Load() }

// Reason reports why the iteration stopped early (budget.None when it
// ran to completion or is still running).
func (p *ParallelIterator) Reason() budget.Reason {
	return budget.Reason(p.reason.Load())
}

// Aborted reports whether a resource limit cut the iteration short.
func (p *ParallelIterator) Aborted() bool { return p.Reason() != budget.None }

// Stats returns the counters folded in from finished subcube iterators.
func (p *ParallelIterator) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
