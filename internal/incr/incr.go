// Package incr provides incremental reachability sessions: the circuit
// is Tseitin-encoded once, one persistent set of success-driven
// enumerators (internal/pool.Session) and one shared BDD manager stay
// alive across every reachability step, and each step's frontier cover
// is encoded under a fresh activation literal (trans.Step). Retiring a
// step is one unit clause plus garbage collection — learned clauses not
// mentioning the step's selector/activation variables survive into the
// next step, and the success-driven memo survives with invalidation only
// where a residual touched the retired clauses.
package incr

import (
	"errors"
	"time"

	"allsatpre/internal/allsat"
	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/core"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	"allsatpre/internal/pool"
	"allsatpre/internal/simplify"
	"allsatpre/internal/stats"
	"allsatpre/internal/trans"
)

// Options configures an incremental session.
type Options struct {
	// Workers is the enumeration worker count (pool.Session semantics:
	// <= 0 selects GOMAXPROCS, 1 runs in-place on the session manager).
	Workers int
	// Core tunes the enumerators (zero value → core defaults).
	Core core.Options
	// Budget bounds the whole session — every step spends from it. The
	// decision cap is enforced session-globally, unlike the fresh path's
	// per-step enumerators (a budget is a resource allowance, not a
	// semantic knob; see DESIGN.md §10).
	Budget budget.Budget
	// InputFirst / Interleave select the projection-order ablations,
	// matching preimage.Options.
	InputFirst bool
	Interleave bool
	// Simplify opts the base transition CNF into the projection-safe
	// preprocessing pass (internal/simplify) before the persistent
	// solvers are built. Off by default — an explicit opt-in, unlike the
	// one-shot paths: the session retargets the clause database in place,
	// so the frozen set must cover everything future steps constrain.
	// State, input, and next-state variables are frozen, which is exactly
	// that set (Retarget/RetargetInit clauses touch only next-state or
	// state variables plus fresh activation/selector variables allocated
	// after the pass, so they can never be eliminated).
	Simplify bool
	// Stats, when non-nil, receives the incr.* counters.
	Stats *stats.Registry
}

// StepResult is the outcome of one Step call.
type StepResult struct {
	// Set is this step's solution set over the projection variables, in
	// the session manager.
	Set bdd.Ref
	// Stats are this step's search-counter deltas.
	Stats allsat.Stats
	// Pool is this step's pool bookkeeping.
	Pool pool.PoolStats
	// Retire reports the retirement of the previous step's clause group
	// (zero for the first step).
	Retire pool.SessionRetireStats
	// ClausesAdded is the number of gated clauses encoding this target.
	ClausesAdded int
	// Aborted/Reason report a budget trip; Set is then a sound
	// under-approximation.
	Aborted bool
	Reason  budget.Reason
}

// ErrClosed is returned by Step after Close: a closed session's solver
// pool is cancelled and its retarget state is gone, so no further
// frontier can be advanced.
var ErrClosed = errors.New("incr: session is closed")

// Session is a persistent solver + manager serving a sequence of
// reachability steps.
//
// Concurrency contract: a Session is NOT safe for concurrent use —
// callers serialize every method, including Close. A store that owns
// sessions on behalf of multiple clients (e.g. internal/server's LRU
// session store) must hold a per-session lock across each Step and
// across the eviction Close, so an in-flight step always finishes or
// aborts before the session's resources are torn down.
type Session struct {
	inst     *trans.Instance
	ps       *pool.Session
	backward bool
	closed   bool

	projSpace *cube.Space // ordered (state, input) projection, CNF var ids
	stateVars []lit.Var   // enc.StateVars (backward) / dedup NextVars (forward)
	quantVars []lit.Var   // projection vars to ∃-quantify for StateSet

	cur        *trans.Step // open step's gated group, nil before first Step
	steps      int
	encodeTime time.Duration
	reg        *stats.Registry
}

// NewBackward opens a backward-reachability session: each Step(cover)
// enumerates the one-step preimage of the cover. The projection space is
// the ordered (state, input) space of the fresh path, so covers and
// counts are directly comparable.
func NewBackward(c *circuit.Circuit, opts Options) (*Session, error) {
	t0 := time.Now()
	inst, err := trans.NewBaseInstance(c)
	if err != nil {
		return nil, err
	}
	simplifyBase(inst, opts)
	encodeTime := time.Since(t0)
	projVars, projNames := inst.OrderedProjection(opts.InputFirst, opts.Interleave)
	s := &Session{
		inst:       inst,
		backward:   true,
		projSpace:  cube.NewNamedSpace(projVars, projNames),
		stateVars:  inst.StateVars,
		quantVars:  inst.InputVars,
		encodeTime: encodeTime,
		reg:        opts.Stats,
	}
	s.ps = newPoolSession(inst, s.projSpace, opts)
	return s, nil
}

// NewForward opens a forward-image session: each Step(cover) enumerates
// the image of the cover. The projection space is the deduplicated
// next-state variable space (several latches may share one D signal);
// StateSet is the identity — expansion back to per-latch positions is
// the caller's job (preimage.ForwardReach).
func NewForward(c *circuit.Circuit, opts Options) (*Session, error) {
	t0 := time.Now()
	inst, err := trans.NewBaseInstance(c)
	if err != nil {
		return nil, err
	}
	simplifyBase(inst, opts)
	encodeTime := time.Since(t0)
	next := dedupVars(inst.NextVars)
	s := &Session{
		inst:       inst,
		backward:   false,
		projSpace:  cube.NewSpace(next),
		stateVars:  next,
		encodeTime: encodeTime,
		reg:        opts.Stats,
	}
	s.ps = newPoolSession(inst, s.projSpace, opts)
	return s, nil
}

// simplifyBase preprocesses the session's base CNF in place (it is a
// private clone, see trans.NewBaseInstance) when the caller opted in,
// freezing every variable a future Retarget step may constrain. The
// preprocessing cost is folded into the session's encode time — it is
// paid once and amortized over every step, like the encoding itself.
func simplifyBase(inst *trans.Instance, opts Options) {
	if !opts.Simplify {
		return
	}
	frozen := make([]bool, inst.F.NumVars)
	for _, vs := range [][]lit.Var{inst.StateVars, inst.InputVars, inst.NextVars} {
		for _, v := range vs {
			if int(v) < len(frozen) {
				frozen[v] = true
			}
		}
	}
	res := simplify.Run(inst.F, func(v lit.Var) bool { return frozen[v] }, simplify.Options{})
	if opts.Stats != nil {
		res.Stats.Publish(opts.Stats, "incr.")
	}
}

func newPoolSession(inst *trans.Instance, space *cube.Space, opts Options) *pool.Session {
	co := opts.Core
	if co.IsZero() {
		co = core.DefaultOptions()
	}
	return pool.NewSession(inst.F, space, pool.Options{
		Workers: opts.Workers,
		Core:    co,
		Budget:  opts.Budget,
		Stats:   opts.Stats,
	})
}

// Close releases the session's resources: the worker pool's context is
// cancelled (stopping any budget-polling solver work), the open step's
// retarget state is dropped, and the solver/BDD state becomes
// unreachable as soon as the caller drops its Session reference. Close
// is idempotent; Step after Close returns ErrClosed. Like every other
// method it must be externally serialized (see the type comment) — it
// is the eviction hook an LRU session store calls once no step is in
// flight.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.cur = nil
	s.ps.Close()
}

// Closed reports whether Close has been called.
func (s *Session) Closed() bool { return s.closed }

// Manager is the persistent BDD manager step sets live in.
func (s *Session) Manager() *bdd.Manager { return s.ps.Manager() }

// ProjSpace is the projection space of Step sets (CNF variable ids).
func (s *Session) ProjSpace() *cube.Space { return s.projSpace }

// StateSpace is the instance's state space (CNF variable ids, latch
// names), the space frontier ISOPs are extracted over.
func (s *Session) StateSpace() *cube.Space { return s.inst.StateSpace }

// StateVars are the projection variables a state set ranges over.
func (s *Session) StateVars() []lit.Var { return s.stateVars }

// Instance exposes the underlying base instance.
func (s *Session) Instance() *trans.Instance { return s.inst }

// Workers reports the effective worker count.
func (s *Session) Workers() int { return s.ps.Workers() }

// Step retires the previous target (if any) and enumerates the current
// one. The cover must be position-aligned to the latch order; any space
// of the right width is accepted (RetargetCover semantics).
func (s *Session) Step(cover *cube.Cover) (*StepResult, error) {
	if s.closed {
		return nil, ErrClosed
	}
	out := &StepResult{}
	if s.cur != nil {
		out.Retire = s.ps.RetireGroup(s.cur.Act.Not(), s.cur.Vars)
		s.cur = nil
	}
	var st *trans.Step
	var err error
	if s.backward {
		st, err = s.inst.Retarget(cover, s.ps.NewVar)
	} else {
		st, err = s.inst.RetargetInit(cover, s.ps.NewVar)
	}
	if err != nil {
		return nil, err
	}
	s.ps.BeginGroup()
	ok := true
	for _, cl := range st.Clauses {
		ok = s.ps.AddGroupClause(cl...) && ok
	}
	s.cur = st
	out.ClausesAdded = len(st.Clauses)
	if !ok {
		// The base formula went UNSAT at the root — only possible when
		// the circuit CNF itself is inconsistent; report an empty step.
		out.Set = bdd.False
	} else {
		r := s.ps.Run([]lit.Lit{st.Act})
		out.Set = r.Set
		out.Stats = r.Stats
		out.Pool = r.Pool
		out.Aborted = r.Aborted
		out.Reason = r.Reason
	}
	s.steps++
	s.publish(out)
	return out, nil
}

// StateSet projects a Step set onto the state variables: backward
// sessions quantify out the input variables; forward sessions return the
// set unchanged (it already ranges over next-state variables only).
func (s *Session) StateSet(set bdd.Ref) bdd.Ref {
	if !s.backward {
		return set
	}
	return s.Manager().ExistsVars(set, s.quantVars)
}

// publish mirrors the per-step bookkeeping into the stats registry under
// the incr.* keys.
func (s *Session) publish(r *StepResult) {
	reg := s.reg
	if reg == nil {
		return
	}
	reg.Counter("incr.steps").Inc()
	reg.Counter("incr.clauses-added").Add(uint64(r.ClausesAdded))
	reg.Counter("incr.clauses-retired").Add(uint64(r.Retire.OrigRetired))
	reg.Counter("incr.learned-dropped").Add(uint64(r.Retire.LearnedDropped))
	reg.Counter("incr.act-vars-retired").Add(uint64(r.Retire.VarsRetired))
	reg.Counter("incr.memo-invalidated").Add(uint64(r.Retire.MemoInvalidated))
	reg.SetGauge("incr.learned-kept", int64(r.Retire.LearnedKept))
	reg.SetGauge("incr.learned-live", int64(s.ps.LearnedCount()))
	reg.SetGauge("incr.learned-live-lits", int64(s.ps.LearnedLits()))
	reg.SetGauge("incr.memo-size", int64(s.ps.MemoSize()))
	if s.steps > 1 {
		// Every step after the first reuses the one-time encoding the
		// fresh path would redo: credit its cost as time saved.
		reg.AddDuration("incr.encode-saved", s.encodeTime)
	}
}

// dedupVars drops repeated variables, keeping first occurrences (several
// latches can share one next-state signal).
func dedupVars(vars []lit.Var) []lit.Var {
	seen := make(map[lit.Var]bool, len(vars))
	out := make([]lit.Var, 0, len(vars))
	for _, v := range vars {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
