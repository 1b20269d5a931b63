package sat

import "allsatpre/internal/budget"

// Reset returns the solver to the state New(opts) produces — no
// variables, no clauses, pristine statistics — while keeping every
// backing array at its high-water capacity: the clause arena, the
// problem/learnt cref lists, all per-variable slices, the VSIDS heap,
// and (critically) the per-literal watch-list arrays, whose inner
// slices are truncated in place rather than dropped so a reused solver
// re-attaches clauses without reallocating a single watch list.
//
// A Reset solver is behaviourally indistinguishable from a fresh one:
// crefs are arena offsets (capacity never shifts them), watch-list
// order is determined by the attach/propagate sequence (not capacity),
// activities restart at zero, and the RNG restarts from opts.Seed —
// so loading the same formula yields bit-identical Solve trajectories.
// The reuse equivalence suite pins this contract.
func (s *Solver) Reset(opts Options) {
	if opts.VarDecay == 0 {
		maxConflicts, bud := opts.MaxConflicts, opts.Budget
		opts = DefaultOptions()
		opts.MaxConflicts = maxConflicts
		opts.Budget = bud
	}
	opts.Budget = opts.Budget.Materialize()
	s.opts = opts

	s.ca.data = s.ca.data[:0]
	s.ca.wasted = 0
	s.clauses = s.clauses[:0]
	s.learnts = s.learnts[:0]

	// Outer watch slices shrink to zero length; the inner arrays stay
	// alive in the capacity region and are reclaimed one pair at a time
	// as NewVar re-extends (see extendWatchLists).
	s.watches = s.watches[:0]
	s.binWatches = s.binWatches[:0]

	s.assign = s.assign[:0]
	s.level = s.level[:0]
	s.reason = s.reason[:0]
	s.polarity = s.polarity[:0]
	s.activity = s.activity[:0]
	s.seen = s.seen[:0]

	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0

	s.order.reset()
	s.varInc = 1.0
	s.claInc = 1.0

	s.nCore, s.nTier2, s.nLocal = 0, 0, 0
	s.learntWords = 0

	s.okay = true
	s.rng = nil
	s.maxLearnts = 0
	s.assumptions = s.assumptions[:0]
	s.conflictOut = s.conflictOut[:0]
	s.model = s.model[:0]
	s.proof = nil

	s.analyzeStack = s.analyzeStack[:0]
	s.analyzeToClr = s.analyzeToClr[:0]
	s.learntBuf = s.learntBuf[:0]
	// Stale stamps could collide with a restarted generation counter, so
	// zero them before truncating (appends refill with zeros on regrowth).
	clear(s.lbdStamp)
	s.lbdStamp = s.lbdStamp[:0]
	s.lbdGen = 0
	s.tmpLits = s.tmpLits[:0]
	s.reduceBuf = s.reduceBuf[:0]

	s.check = nil
	s.stopReason = budget.None
	s.stats = Stats{}
}

// extendWatchLists appends two empty per-literal lists, reusing the
// inner-array capacity a Reset left parked beyond len instead of
// overwriting it with nil (which would leak the warm arrays to the GC).
func extendWatchLists[T any](ws [][]T) [][]T {
	for i := 0; i < 2; i++ {
		if n := len(ws); n < cap(ws) {
			ws = ws[:n+1]
			ws[n] = ws[n][:0]
		} else {
			ws = append(ws, nil)
		}
	}
	return ws
}

// RetainedBytes estimates the heap bytes pinned by the solver's backing
// arrays — the memory a warm-pool entry holds while idle. It is a
// size-class and trimming signal, not an exact accounting: struct
// headers and allocator rounding are approximated by the slice-header
// term per watch list.
func (s *Solver) RetainedBytes() uint64 {
	b := uint64(cap(s.ca.data))*4 +
		uint64(cap(s.clauses))*4 +
		uint64(cap(s.learnts))*4 +
		uint64(cap(s.assign))*1 +
		uint64(cap(s.level))*8 +
		uint64(cap(s.reason))*4 +
		uint64(cap(s.polarity))*1 +
		uint64(cap(s.activity))*8 +
		uint64(cap(s.seen))*1 +
		uint64(cap(s.trail))*8 +
		uint64(cap(s.trailLim))*8 +
		uint64(cap(s.analyzeStack))*8 +
		uint64(cap(s.analyzeToClr))*8 +
		uint64(cap(s.learntBuf))*8 +
		uint64(cap(s.lbdStamp))*4 +
		uint64(cap(s.tmpLits))*8 +
		uint64(cap(s.reduceBuf))*4 +
		uint64(cap(s.order.heap))*8 +
		uint64(cap(s.order.indices))*8
	// Inner watch arrays live beyond len after a Reset; count the full
	// capacity region.
	ws := s.watches[:cap(s.watches)]
	for i := range ws {
		b += uint64(cap(ws[i])) * 8
	}
	bs := s.binWatches[:cap(s.binWatches)]
	for i := range bs {
		b += uint64(cap(bs[i])) * 8
	}
	b += uint64(cap(s.watches))*24 + uint64(cap(s.binWatches))*24
	return b
}
