// Package sat implements a conflict-driven clause-learning (CDCL) SAT
// solver in the MiniSat lineage: two-watched-literal propagation, first-UIP
// conflict analysis with recursive clause minimization, VSIDS decision
// ordering with phase saving, Luby restarts, and a Glucose-style tiered
// learnt clause database. The solver is incremental: clauses may be
// added between Solve calls, and Solve accepts assumption literals.
//
// Clause storage is a flat arena (see arena.go): clauses are cref
// offsets into one []uint32 backing store, watch lists carry
// {cref, blocker} pairs, and binary clauses have dedicated watch lists
// that propagate without touching clause memory at all. Deleted clauses
// are compacted away by relocation-safe garbage collection.
//
// It is the one propagation kernel beneath every enumeration engine: the
// engines in internal/allsat, the blocking-clause preimage baseline, and
// the success-driven enumerator in internal/core, which makes its own
// decisions through the kernel surface in kernel.go.
//
// # Activation-literal protocol
//
// Incremental clients (internal/incr, the trace stepper in
// internal/preimage) manage retractable clause groups with activation
// literals in the Eén/Sörensson style: every clause of a group carries a
// fresh literal ¬act, Solve is called with act among the assumptions to
// enable the group, and the group is retired permanently by adding the
// unit clause ¬act. The solver makes this sound without any special
// support: a learned clause derived from a gated clause inherits ¬act
// (assumption-level literals are never resolved away), so after the
// retiring unit propagates, every such learned clause is satisfied and
// inert. Learned clauses that never mention a retired activation literal
// remain live across retargetings — that retention is the point of the
// protocol, and TestActivationLiteralRetire pins the contract.
package sat

import (
	"fmt"
	"math/rand"
	"slices"

	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/lit"
)

// Status is the outcome of a Solve call.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota // budget exhausted before an answer
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// Options tune the solver. The zero value is replaced by DefaultOptions.
type Options struct {
	// VarDecay is the VSIDS activity decay factor (0 < VarDecay < 1).
	VarDecay float64
	// ClauseDecay is the learnt-clause activity decay factor.
	ClauseDecay float64
	// RestartBase is the Luby restart unit in conflicts.
	RestartBase uint64
	// LearntFactor sets the initial learnt DB cap as a fraction of the
	// number of problem clauses.
	LearntFactor float64
	// LearntGrowth multiplies the learnt DB cap at each reduction.
	LearntGrowth float64
	// PhaseSaving enables progress-saving polarity selection.
	PhaseSaving bool
	// RandomFreq is the probability of a random decision (0 disables).
	RandomFreq float64
	// Seed seeds the random decision source.
	Seed int64
	// MaxConflicts bounds a single Solve call; 0 means unbounded. When
	// exceeded, Solve returns Unknown.
	MaxConflicts uint64
	// Budget imposes cross-call resource limits (deadline, cancellation,
	// cumulative conflict/decision caps). When it trips, Solve returns
	// Unknown and StopReason reports why. The zero Budget is unbounded.
	Budget budget.Budget
}

// DefaultOptions returns the standard tuning.
func DefaultOptions() Options {
	return Options{
		VarDecay:     0.95,
		ClauseDecay:  0.999,
		RestartBase:  100,
		LearntFactor: 1.0 / 3.0,
		LearntGrowth: 1.1,
		PhaseSaving:  true,
		RandomFreq:   0.0,
		Seed:         91648253,
	}
}

// Solver is an incremental CDCL SAT solver.
type Solver struct {
	opts Options

	ca      arena  // flat clause store; all crefs index into it
	clauses []cref // problem clauses
	learnts []cref // learnt clauses, all tiers

	watches    [][]watcher    // indexed by literal; clauses of length ≥ 3
	binWatches [][]binWatcher // indexed by literal; binary clauses only

	assign   []lit.Tern // by var
	level    []int      // decision level of assignment, by var
	reason   []cref     // antecedent clause, by var (crefUndef for decisions)
	polarity []bool     // saved phase: true = last value was false (sign)
	activity []float64
	seen     []byte // scratch for analyze

	trail    []lit.Lit
	trailLim []int // trail index at each decision level
	qhead    int

	order  *varHeap
	varInc float64
	claInc float64

	// Tier bookkeeping: live learnt counts per tier and the live learnt
	// footprint in arena words (PeakLearntBytes watermark feeds from it).
	nCore, nTier2, nLocal int
	learntWords           uint64

	okay        bool       // false once a top-level conflict is found
	rng         *rand.Rand // random decisions; seeded on first use
	maxLearnts  float64
	assumptions []lit.Lit
	confl       cref      // conflict of the last Propagate (kernel surface)
	conflictOut []lit.Lit // final conflict over assumptions
	model       []bool    // snapshot of the last satisfying assignment
	proof       *proofLogger

	// analyze scratch
	analyzeStack []lit.Lit
	analyzeToClr []lit.Lit
	learntBuf    []lit.Lit // analyze result buffer, reused across conflicts
	lbdStamp     []uint32  // per-level stamps for computeLBD
	lbdGen       uint32    // current computeLBD generation
	tmpLits      []lit.Lit // scratch for proof emission from the arena
	reduceBuf    []cref    // scratch for reduceDB's local-tier sort

	check      *budget.Checker // live budget checker, nil when unbounded
	stopReason budget.Reason   // why the last Solve returned Unknown

	stats Stats
}

// New creates a solver with the given options (zero value → defaults).
// Resource limits (MaxConflicts, Budget) survive the default substitution:
// they are caps, not tuning, so leaving VarDecay unset must not erase them.
func New(opts Options) *Solver {
	if opts.VarDecay == 0 {
		maxConflicts, bud := opts.MaxConflicts, opts.Budget
		opts = DefaultOptions()
		opts.MaxConflicts = maxConflicts
		opts.Budget = bud
	}
	opts.Budget = opts.Budget.Materialize()
	s := &Solver{
		opts:   opts,
		varInc: 1.0,
		claInc: 1.0,
		okay:   true,
	}
	s.order = newVarHeap(&s.activity)
	return s
}

// NewDefault creates a solver with DefaultOptions.
func NewDefault() *Solver { return New(DefaultOptions()) }

// FromFormula creates a solver preloaded with the clauses of f.
func FromFormula(f *cnf.Formula, opts Options) *Solver {
	s := New(opts)
	s.LoadFormula(f)
	return s
}

// LoadFormula bulk-loads f's clauses with up-front pre-sizing of the
// variable slices, the clause list, and the arena — the loading path
// shared by FromFormula and Reset-reused solvers from the warm pool.
// It returns false if the clause set is unsatisfiable at the top level.
func (s *Solver) LoadFormula(f *cnf.Formula) bool {
	s.EnsureVars(f.NumVars)
	s.clauses = slices.Grow(s.clauses, len(f.Clauses))
	total := 0
	for _, c := range f.Clauses {
		total += len(c) + 1
	}
	s.ca.data = slices.Grow(s.ca.data, total)
	ok := true
	for _, c := range f.Clauses {
		if !s.AddClause(c...) {
			ok = false
		}
	}
	s.resetLearntCap()
	return ok
}

// NumVars returns the number of variables known to the solver.
func (s *Solver) NumVars() int { return len(s.assign) }

// NumClauses returns the number of problem clauses currently held.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// NumLearnts returns the number of learnt clauses currently held.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// Stats returns a copy of the cumulative statistics, with the arena and
// tier gauges snapshotted at call time.
func (s *Solver) Stats() Stats {
	st := s.stats
	st.ArenaBytes = uint64(len(s.ca.data)) * 4
	st.LearntsCore = s.nCore
	st.LearntsTier2 = s.nTier2
	st.LearntsLocal = s.nLocal
	return st
}

// SetBudget replaces the solver's resource budget. Relative timeouts are
// materialized into an absolute deadline immediately, so the clock starts
// now, not at the next Solve — call this at the outermost entry point and
// let every subsequent Solve share the same allowance.
func (s *Solver) SetBudget(b budget.Budget) {
	s.opts.Budget = b.Materialize()
	s.check = nil // rebuilt on the next Solve
}

// StopReason reports why the most recent Solve returned Unknown
// (budget.None after a Sat/Unsat answer or before any Solve).
func (s *Solver) StopReason() budget.Reason { return s.stopReason }

// Okay reports whether the clause set is still possibly satisfiable; it
// becomes false permanently after a top-level conflict.
func (s *Solver) Okay() bool { return s.okay }

// NewVar allocates a fresh variable.
func (s *Solver) NewVar() lit.Var {
	v := lit.Var(len(s.assign))
	s.assign = append(s.assign, lit.Unknown)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.polarity = append(s.polarity, true) // default phase: false
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, 0)
	s.watches = extendWatchLists(s.watches)
	s.binWatches = extendWatchLists(s.binWatches)
	s.order.insert(v)
	return v
}

// EnsureVars allocates variables until at least n exist. The per-variable
// slices are grown once up front, so a bulk reservation (FromFormula,
// LoadFormula) costs one reallocation per slice instead of an amortized
// doubling chain through NewVar.
func (s *Solver) EnsureVars(n int) {
	extra := n - len(s.assign)
	if extra <= 0 {
		return
	}
	s.assign = slices.Grow(s.assign, extra)
	s.level = slices.Grow(s.level, extra)
	s.reason = slices.Grow(s.reason, extra)
	s.polarity = slices.Grow(s.polarity, extra)
	s.activity = slices.Grow(s.activity, extra)
	s.seen = slices.Grow(s.seen, extra)
	s.watches = slices.Grow(s.watches, 2*extra)
	s.binWatches = slices.Grow(s.binWatches, 2*extra)
	s.order.heap = slices.Grow(s.order.heap, extra)
	s.order.indices = slices.Grow(s.order.indices, extra)
	for len(s.assign) < n {
		s.NewVar()
	}
}

// Value returns the current ternary value of variable v.
func (s *Solver) Value(v lit.Var) lit.Tern {
	if int(v) >= len(s.assign) {
		return lit.Unknown
	}
	return s.assign[v]
}

// LitValue returns the current ternary value of literal l.
func (s *Solver) LitValue(l lit.Lit) lit.Tern {
	return s.Value(l.Var()).XorSign(l.Sign())
}

// litVal is the bounds-check-free hot-path variant of LitValue: l must
// be a defined literal of an allocated variable.
func (s *Solver) litVal(l lit.Lit) lit.Tern {
	return s.assign[l.Var()].XorSign(l.Sign())
}

// Model returns the satisfying assignment found by the most recent Sat
// answer, indexed by variable. Variables with no forced value read as
// false. The returned slice is a fresh copy on every call — it stays
// valid across later Solve calls; use ModelBuf in tight loops to avoid
// the per-call allocation.
func (s *Solver) Model() []bool {
	m := make([]bool, len(s.model))
	copy(m, s.model)
	return m
}

// ModelBuf is Model with a caller-owned buffer: the assignment is
// appended into dst[:0] and the (possibly regrown) slice returned, so an
// enumeration loop reusing the same buffer allocates at most once.
func (s *Solver) ModelBuf(dst []bool) []bool {
	return append(dst[:0], s.model...)
}

// Conflict returns, after an Unsat answer under assumptions, a subset of
// the negated assumptions that is sufficient for unsatisfiability. The
// returned slice is a fresh copy on every call; use ConflictBuf to reuse
// a buffer instead.
func (s *Solver) Conflict() []lit.Lit {
	out := make([]lit.Lit, len(s.conflictOut))
	copy(out, s.conflictOut)
	return out
}

// ConflictBuf is Conflict with a caller-owned buffer, appending into
// dst[:0] and returning the (possibly regrown) slice.
func (s *Solver) ConflictBuf(dst []lit.Lit) []lit.Lit {
	return append(dst[:0], s.conflictOut...)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a problem clause. It returns false if the clause set is
// now known unsatisfiable at the top level. Must be called at decision
// level 0 (Solve restores level 0 before returning).
func (s *Solver) AddClause(ls ...lit.Lit) bool {
	if !s.okay {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause called above decision level 0")
	}
	// Normalize: sort-free dedup & tautology check, drop false lits,
	// detect satisfied clauses.
	c := s.tmpLits[:0]
	for _, l := range ls {
		if !l.IsDef() {
			panic("sat: undefined literal in clause")
		}
		if int(l.Var()) >= len(s.assign) {
			s.EnsureVars(int(l.Var()) + 1)
		}
		switch s.LitValue(l) {
		case lit.True:
			s.tmpLits = c[:0]
			return true // already satisfied at top level
		case lit.False:
			continue // literal permanently false: drop
		}
		dup := false
		for _, x := range c {
			if x == l {
				dup = true
				break
			}
			if x == l.Not() {
				s.tmpLits = c[:0]
				return true // tautology
			}
		}
		if !dup {
			c = append(c, l)
		}
	}
	s.tmpLits = c[:0]
	switch len(c) {
	case 0:
		s.okay = false
		if s.proof != nil {
			s.proof.addClause(nil)
		}
		return false
	case 1:
		s.uncheckedEnqueue(c[0], crefUndef)
		if s.propagate() != crefUndef {
			s.okay = false
			if s.proof != nil {
				s.proof.addClause(nil)
			}
			return false
		}
		return true
	}
	cr := s.ca.alloc(c, false)
	s.clauses = append(s.clauses, cr)
	s.attach(cr)
	return true
}

// attach hooks a clause into the watch structure: binary clauses go to
// the dedicated binary lists (each entry names the implied literal, so
// firing them never reads clause memory), longer ones watch their first
// two literals.
func (s *Solver) attach(c cref) {
	ls := s.ca.lits(c)
	l0, l1 := lit.Lit(ls[0]), lit.Lit(ls[1])
	if len(ls) == 2 {
		s.binWatches[l0.Not()] = append(s.binWatches[l0.Not()], binWatcher{other: ls[1], c: uint32(c)})
		s.binWatches[l1.Not()] = append(s.binWatches[l1.Not()], binWatcher{other: ls[0], c: uint32(c)})
		return
	}
	s.watches[l0.Not()] = append(s.watches[l0.Not()], watcher{c: uint32(c), blocker: ls[1]})
	s.watches[l1.Not()] = append(s.watches[l1.Not()], watcher{c: uint32(c), blocker: ls[0]})
}

// uncheckedEnqueue assigns literal l true with the given reason clause.
func (s *Solver) uncheckedEnqueue(l lit.Lit, from cref) {
	v := l.Var()
	s.assign[v] = lit.TernOf(!l.Sign())
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	if len(s.trail) > s.stats.MaxTrail {
		s.stats.MaxTrail = len(s.trail)
	}
}

// propagate performs unit propagation over the watch lists, returning the
// conflicting clause or crefUndef. Binary clauses propagate first and
// without dereferencing the arena; long clauses use blocker literals and
// in-place watch migration.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is now true; clauses watching ¬p must be checked
		s.qhead++

		// Binary pass: every entry implies `other` outright. The lists
		// are never mutated by propagation, so a conflict returns
		// directly.
		for _, bw := range s.binWatches[p] {
			other := lit.Lit(bw.other)
			switch s.litVal(other) {
			case lit.True:
			case lit.False:
				s.qhead = len(s.trail)
				return cref(bw.c)
			default:
				s.stats.Propagations++
				s.uncheckedEnqueue(other, cref(bw.c))
			}
		}

		ws := s.watches[p]
		out := ws[:0]
		confl := crefUndef
		falseLit := uint32(p.Not())
	watchLoop:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.litVal(lit.Lit(w.blocker)) == lit.True {
				out = append(out, w)
				continue
			}
			c := cref(w.c)
			h := s.ca.data[c]
			if h&caDeleted != 0 {
				continue // drop lazily
			}
			base := c + hdrWords(h)
			ls := s.ca.data[base : base+cref(h>>caSizeShift)]
			// Ensure the false literal is at position 1.
			if ls[0] == falseLit {
				ls[0], ls[1] = ls[1], ls[0]
			}
			first := lit.Lit(ls[0])
			if ls[0] != w.blocker && s.litVal(first) == lit.True {
				out = append(out, watcher{c: w.c, blocker: ls[0]})
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(ls); k++ {
				if s.litVal(lit.Lit(ls[k])) != lit.False {
					ls[1], ls[k] = ls[k], ls[1]
					nw := lit.Lit(ls[1]).Not()
					s.watches[nw] = append(s.watches[nw], watcher{c: w.c, blocker: ls[0]})
					continue watchLoop
				}
			}
			// No new watch: clause is unit or conflicting.
			out = append(out, watcher{c: w.c, blocker: ls[0]})
			if s.litVal(first) == lit.False {
				confl = c
				s.qhead = len(s.trail)
				// Copy remaining watchers back untouched.
				for i++; i < len(ws); i++ {
					out = append(out, ws[i])
				}
				break
			}
			s.stats.Propagations++
			s.uncheckedEnqueue(first, c)
		}
		s.watches[p] = out
		if confl != crefUndef {
			return confl
		}
	}
	return crefUndef
}

// cancelUntil backtracks to the given decision level.
func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.assign[v] = lit.Unknown
		s.reason[v] = crefUndef
		if s.opts.PhaseSaving {
			s.polarity[v] = l.Sign()
		}
		s.order.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, len(s.trail))
}

// varBump increases the VSIDS activity of v.
func (s *Solver) varBump(v lit.Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.decrease(v)
}

func (s *Solver) varDecay() { s.varInc /= s.opts.VarDecay }

func (s *Solver) claBump(c cref) {
	a := s.ca.activity(c) + s.claInc
	s.ca.setActivity(c, a)
	if a > 1e20 {
		for _, lc := range s.learnts {
			s.ca.setActivity(lc, s.ca.activity(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) claDecay() { s.claInc /= s.opts.ClauseDecay }

// installLearnt allocates a learnt clause in the arena, assigns its tier
// from size and LBD, attaches it, and books the tier/footprint counters.
// New learnts start with the used bit set — they are protected for the
// reduce round they were learnt in.
func (s *Solver) installLearnt(ls []lit.Lit, lbd int) cref {
	c := s.ca.alloc(ls, true)
	s.ca.setLBD(c, lbd)
	t := tierFor(len(ls), lbd)
	s.ca.setTier(c, t)
	s.ca.setUsed(c)
	s.bumpTier(t, 1)
	s.learnts = append(s.learnts, c)
	if len(s.learnts) > s.stats.PeakLearnts {
		s.stats.PeakLearnts = len(s.learnts)
	}
	s.learntWords += uint64(s.ca.words(c))
	if b := s.learntWords * 4; b > s.stats.PeakLearntBytes {
		s.stats.PeakLearntBytes = b
	}
	s.attach(c)
	s.claBump(c)
	return c
}

// learnAttached runs first-UIP analysis on a conflict and stores the
// learnt clause attach-only: it joins the watch lists (pruning future
// descents) but is not enqueued as the asserting clause, so the caller
// keeps full control of the trail — ChronoEnum flips decisions in place,
// the success-driven enumerator explores both phases of every decision.
// The clause is implied by the formula alone (flipped decisions and
// assumptions resolve like ordinary decisions), so it can never exclude
// an unenumerated model, and deleting it is sound: the attach-only
// learnts go through the same tiered database as CDCL learnts. The tier
// rules give them exactly the protection they need: a clause that
// prunes a descent participates in the conflict analysis, which sets its
// used bit (and may promote it), and reduceDB never deletes a used or
// locked clause — so a learnt cannot be dropped in the same round it
// pruned a subtree (pinned by TestChronoAttachOnlySurvival).
func (s *Solver) learnAttached(confl cref) {
	learnt, _, lbd := s.analyze(confl)
	s.varDecay()
	s.claDecay()
	if len(learnt) < 2 {
		// Unit (or empty) consequences are rediscovered by propagation;
		// installing them mid-tree would need out-of-order enqueueing.
		return
	}
	s.installLearnt(learnt, lbd)
	s.stats.Learned++
	s.stats.LearnedLits += uint64(len(learnt))
	if s.reduceNeeded() {
		s.reduceDB()
	}
}

func (s *Solver) bumpTier(t uint32, d int) {
	switch t {
	case tierCore:
		s.nCore += d
	case tierTwo:
		s.nTier2 += d
	case tierLocal:
		s.nLocal += d
	}
}

// pickBranchLit chooses the next decision literal, or UndefLit when all
// variables are assigned.
func (s *Solver) pickBranchLit() lit.Lit {
	var v lit.Var = lit.UndefVar
	if s.opts.RandomFreq > 0 && s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.opts.Seed))
	}
	if s.opts.RandomFreq > 0 && s.rng.Float64() < s.opts.RandomFreq && !s.order.empty() {
		cand := s.order.heap[s.rng.Intn(len(s.order.heap))]
		if s.assign[cand] == lit.Unknown {
			v = cand
		}
	}
	for v == lit.UndefVar {
		if s.order.empty() {
			return lit.UndefLit
		}
		cand := s.order.removeMin()
		if s.assign[cand] == lit.Unknown {
			v = cand
		}
	}
	return lit.New(v, s.polarity[v])
}

func (s *Solver) String() string {
	return fmt.Sprintf("sat.Solver(vars=%d clauses=%d learnts=%d arenaKB=%d)",
		s.NumVars(), len(s.clauses), len(s.learnts), len(s.ca.data)*4/1024)
}
