// Package allsatpre is an all-solutions SAT solver for efficient preimage
// computation on sequential circuits — a from-scratch reproduction of the
// system described in "A Novel SAT All-Solutions Solver for Efficient
// Preimage Computation" (DATE 2004).
//
// The package is the public facade over the implementation:
//
//   - Load or generate a sequential circuit (ISCAS-89 BENCH format, or the
//     built-in benchmark generators).
//   - Describe a target state set as "01X" cube patterns over the latches.
//   - Compute its one-step preimage with Preimage, or iterate to a
//     backward-reachability fixpoint with BackwardReach.
//   - Choose among five engines: the paper's success-driven all-SAT
//     enumerator (default), two blocking-clause all-SAT baselines, a
//     blocking-clause-free disjoint enumerator, and a BDD
//     relational-product baseline.
//
// Beyond one-step preimage the facade exposes the surrounding
// model-checking loop: forward images (Image, ForwardReach), k-step
// unrolled preimage (KStepPreimage), unbounded safety checking with
// counterexample traces and checkable inductive-invariant certificates
// (CheckReachable, VerifyInvariant), bounded model checking (BMC), and a
// streaming witness iterator (Witnesses). Circuits load from ISCAS-89
// BENCH or AIGER ASCII files, or from the generator suite.
//
// Projection-style all-SAT over raw DIMACS CNF is exposed through
// EnumerateDimacs for non-circuit uses.
package allsatpre

import (
	"fmt"
	"io"
	"os"

	"allsatpre/internal/aig"
	"allsatpre/internal/allsat"
	"allsatpre/internal/bmc"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cnf"
	"allsatpre/internal/core"
	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	"allsatpre/internal/lit"
	"allsatpre/internal/pool"
	"allsatpre/internal/preimage"
	"allsatpre/internal/simplify"
	"allsatpre/internal/stats"
	"allsatpre/internal/trans"
)

// Re-exported core types. The aliases make the full functionality of the
// underlying packages available through the public API.
type (
	// Circuit is a gate-level sequential netlist.
	Circuit = circuit.Circuit
	// Cover is a set of states as a disjunction of cubes.
	Cover = cube.Cover
	// Space is an ordered variable space for cubes.
	Space = cube.Space
	// Cube is one "01X" partial assignment.
	Cube = cube.Cube
	// Engine selects a preimage strategy.
	Engine = preimage.Engine
	// Options configures Preimage and BackwardReach.
	Options = preimage.Options
	// Result is a one-step preimage.
	Result = preimage.Result
	// ReachResult is a backward-reachability run.
	ReachResult = preimage.ReachResult
	// EnumStats carries all-SAT search counters.
	EnumStats = allsat.Stats
	// Trace is a concrete counterexample (states + driving inputs).
	Trace = preimage.Trace
	// CheckResult is the outcome of a reachability query.
	CheckResult = preimage.CheckResult
	// Budget imposes resource limits (wall-clock deadline or timeout,
	// context cancellation, conflict/decision/cube caps, BDD node cap) on
	// any computation that accepts it via Options.Budget. The zero Budget
	// is unbounded.
	//
	// The Aborted contract: when a budget trips, every entry point still
	// returns a structured result — Result.Aborted, ReachResult.Aborted,
	// CheckResult.Aborted, or BMCResult.Aborted is set, the matching
	// AbortReason reports which limit tripped, and the partial answer is
	// sound (an under-approximation for preimage/image/reach covers; for
	// CheckReachable a REACHABLE verdict is still trusted, but no
	// unreachability proof is claimed). Truncation is never silent and
	// never an error.
	Budget = budget.Budget
	// AbortReason identifies which resource limit ended a computation.
	AbortReason = budget.Reason
	// StatsRegistry is a hierarchical counter registry; pass one in
	// Options.Stats to observe a run (snapshot as text/JSON, or serve it
	// over HTTP while the computation is in flight).
	StatsRegistry = stats.Registry
	// SimplifyMode is the tri-state switch for the projection-safe CNF
	// preprocessing pass (Options.Simplify, BMCOptions.Simplify,
	// DimacsOptions.Simplify): bounded variable elimination of
	// non-projection variables, subsumption, self-subsuming resolution,
	// and failed-literal probing, with the projected solution set — and
	// therefore every enumerated cover — preserved exactly.
	SimplifyMode = simplify.Mode
	// SimplifyStats reports the preprocessing work of one run
	// (EnumStats.Simplify).
	SimplifyStats = simplify.Stats
)

// NewStatsRegistry creates a named stats registry for Options.Stats.
func NewStatsRegistry(name string) *StatsRegistry { return stats.NewRegistry(name) }

// Abort reasons reported by AbortReason fields.
const (
	AbortNone      = budget.None      // not aborted
	AbortCancelled = budget.Cancelled // Budget.Ctx cancelled
	AbortDeadline  = budget.Deadline  // deadline or timeout expired
	AbortConflicts = budget.Conflicts // conflict cap exhausted
	AbortDecisions = budget.Decisions // decision cap exhausted
	AbortCubes     = budget.Cubes     // cube cap exhausted
	AbortNodes     = budget.Nodes     // BDD node cap exhausted
)

// Simplify modes for SimplifyMode fields: Auto follows each entry
// point's default (on for one-shot enumeration, off for incremental
// sessions), On forces the pass, Off disables it.
const (
	SimplifyAuto = simplify.Auto
	SimplifyOn   = simplify.On
	SimplifyOff  = simplify.Off
)

// Engine constants (see the preimage package for semantics).
const (
	EngineSuccessDriven = preimage.EngineSuccessDriven
	EngineBlocking      = preimage.EngineBlocking
	EngineLifting       = preimage.EngineLifting
	EngineBDD           = preimage.EngineBDD
	EngineDisjoint      = preimage.EngineDisjoint
)

// LoadBench reads a sequential circuit from an ISCAS-89 BENCH file.
func LoadBench(path string) (*Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return circuit.ParseBench(path, f)
}

// ParseBench parses BENCH-format text.
func ParseBench(name, src string) (*Circuit, error) {
	return circuit.ParseBenchString(name, src)
}

// LoadAiger reads a sequential circuit from an AIGER ASCII (.aag) file
// and converts it to the gate-level model.
func LoadAiger(path string) (*Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := aig.ParseAiger(path, f)
	if err != nil {
		return nil, err
	}
	return g.ToCircuit().Circuit, nil
}

// Target builds a target state set for a circuit from "01X" patterns, one
// character per latch in declaration order.
func Target(c *Circuit, patterns ...string) (*Cover, error) {
	n := len(c.Latches)
	for _, p := range patterns {
		if len(p) != n {
			return nil, fmt.Errorf("allsatpre: pattern %q has %d positions, circuit has %d latches",
				p, len(p), n)
		}
		for _, r := range p {
			switch r {
			case '0', '1', 'X', 'x', '-':
			default:
				return nil, fmt.Errorf("allsatpre: pattern %q: invalid character %q (want 0, 1, X)", p, r)
			}
		}
	}
	return trans.TargetFromPatterns(n, patterns...), nil
}

// Preimage computes the one-step preimage of the target patterns. If
// opts.Budget trips mid-run the result reports Aborted with a sound
// partial cover (a subset of the true preimage) — see Budget.
func Preimage(c *Circuit, opts Options, patterns ...string) (*Result, error) {
	target, err := Target(c, patterns...)
	if err != nil {
		return nil, err
	}
	return preimage.Compute(c, target, opts)
}

// PreimageOf computes the one-step preimage of an explicit cover.
func PreimageOf(c *Circuit, target *Cover, opts Options) (*Result, error) {
	return preimage.Compute(c, target, opts)
}

// BackwardReach iterates preimages from the target patterns until a
// fixpoint or maxSteps steps (maxSteps <= 0 runs to fixpoint). A budget
// abort in any layer marks the result Aborted and suppresses the
// Fixpoint claim: a truncated layer can never prove convergence.
func BackwardReach(c *Circuit, opts Options, maxSteps int, patterns ...string) (*ReachResult, error) {
	target, err := Target(c, patterns...)
	if err != nil {
		return nil, err
	}
	return preimage.Reach(c, target, maxSteps, opts)
}

// Image computes the one-step forward image of the initial-state
// patterns (the dual of Preimage).
func Image(c *Circuit, opts Options, patterns ...string) (*Result, error) {
	init, err := Target(c, patterns...)
	if err != nil {
		return nil, err
	}
	return preimage.Image(c, init, opts)
}

// ImageOf computes the forward image of an explicit cover.
func ImageOf(c *Circuit, init *Cover, opts Options) (*Result, error) {
	return preimage.Image(c, init, opts)
}

// ForwardReach iterates images from the initial patterns until a fixpoint
// or maxSteps steps — the full reachable state set.
func ForwardReach(c *Circuit, opts Options, maxSteps int, patterns ...string) (*ReachResult, error) {
	init, err := Target(c, patterns...)
	if err != nil {
		return nil, err
	}
	return preimage.ForwardReach(c, init, maxSteps, opts)
}

// CheckReachable decides whether any state of bad is reachable from any
// state of init (backward fixpoint proof or concrete counterexample
// trace). maxSteps <= 0 runs until the answer is definitive. On a
// complete UNREACHABLE verdict the result carries an inductive invariant
// certificate; check it with VerifyInvariant. When opts.Budget trips,
// the result reports Aborted: a REACHABLE verdict found before the trip
// is still trusted, but no unreachability claim is made.
func CheckReachable(c *Circuit, init, bad *Cover, maxSteps int, opts Options) (*CheckResult, error) {
	return preimage.CheckReachable(c, init, bad, maxSteps, opts)
}

// VerifyInvariant independently checks an unreachability certificate:
// init ⊆ inv, inv ∩ bad = ∅, and Img(inv) ⊆ inv.
func VerifyInvariant(c *Circuit, init, bad, inv *Cover, opts Options) error {
	return preimage.VerifyInvariant(c, init, bad, inv, opts)
}

// KStepPreimage enumerates, in one unrolled all-SAT call, every state
// that can reach the target patterns within at most k transitions.
func KStepPreimage(c *Circuit, opts Options, k int, patterns ...string) (*Result, error) {
	target, err := Target(c, patterns...)
	if err != nil {
		return nil, err
	}
	return preimage.KStepPreimage(c, target, k, opts)
}

// BMCResult is the outcome of a bounded model checking run.
type BMCResult = bmc.Result

// BMCOptions tunes the BMC solver and bounds its resources.
type BMCOptions = bmc.Options

// BMC searches for a counterexample of length ≤ bound by time-frame
// expansion with incremental SAT. Unlike CheckReachable it cannot prove
// unreachability — only "no counterexample within the bound".
func BMC(c *Circuit, init, bad *Cover, bound int) (*BMCResult, error) {
	return bmc.Check(c, init, bad, bound)
}

// BMCOpts is BMC with solver tuning and a resource budget: when the
// budget trips, the result reports Aborted with the deepest depth
// certified counterexample-free — never an error.
func BMCOpts(c *Circuit, init, bad *Cover, bound int, opts BMCOptions) (*BMCResult, error) {
	return bmc.CheckOpts(c, init, bad, bound, opts)
}

// Witness is one (state, input) cube driving the circuit into a target.
type Witness = preimage.Witness

// WitnessIterator streams preimage witnesses lazily.
type WitnessIterator = preimage.WitnessIterator

// Witnesses prepares a streaming enumeration of (state, input) pairs
// whose one-step successor lies in the target patterns — take the first
// for a test vector, or drain it for the full witness set.
func Witnesses(c *Circuit, opts Options, patterns ...string) (*WitnessIterator, error) {
	target, err := Target(c, patterns...)
	if err != nil {
		return nil, err
	}
	return preimage.NewWitnessIterator(c, target, opts)
}

// SimulateStep evaluates one clock cycle of the circuit: given the latch
// state (declaration order) and a primary-input vector, it returns the
// outputs and the next state.
func SimulateStep(c *Circuit, state, inputs []bool) (outputs, nextState []bool, err error) {
	sim, err := circuit.NewSimulator(c)
	if err != nil {
		return nil, nil, err
	}
	if len(state) != len(c.Latches) || len(inputs) != len(c.Inputs) {
		return nil, nil, fmt.Errorf("allsatpre: SimulateStep needs %d state bits and %d inputs",
			len(c.Latches), len(c.Inputs))
	}
	outputs, nextState = sim.Step(state, inputs)
	return outputs, nextState, nil
}

// Optimize returns a behaviourally equivalent cleaned copy of the
// circuit: constants propagated, buffer chains collapsed, dead logic
// swept. The I/O and latch interface is preserved.
func Optimize(c *Circuit) (*Circuit, error) {
	opt, _, err := circuit.Optimize(c)
	return opt, err
}

// StateSpace returns the canonical state space of a circuit (one position
// per latch, named by the latch signals).
func StateSpace(c *Circuit) *Space { return preimage.StateSpace(c) }

// DimacsOptions configures EnumerateDimacsOpts.
type DimacsOptions struct {
	// Engine selects the all-SAT engine (BDD is not applicable to raw CNF).
	Engine Engine
	// Proj lists 1-based DIMACS projection variables; nil uses the file's
	// "c proj" line, or all variables.
	Proj []int
	// Preprocess applies model-preserving CNF reductions (subsumption,
	// self-subsuming resolution, unit propagation) before enumeration.
	// Unlike Simplify it never eliminates variables, so total models are
	// preserved, not just the projection.
	Preprocess bool
	// Simplify controls the projection-safe preprocessing pass
	// (internal/simplify): non-projection variables may be resolved away
	// entirely — the enumerated projected cover is unchanged, but models
	// of the simplified formula are partial with respect to the original.
	// Auto resolves to on.
	Simplify SimplifyMode
	// Budget bounds the enumeration; a tripped limit yields a partial
	// cover with Aborted set on the result (sound under-approximation).
	Budget Budget
	// MaxCubes caps the number of cubes enumerated by the blocking and
	// lifting engines (0 = unlimited); the tighter of this and
	// Budget.MaxCubes wins. The success-driven engine builds a BDD
	// rather than cubes and is bounded by the Budget instead.
	MaxCubes int
	// Workers > 1 enumerates in parallel over guiding-path subcubes: the
	// success-driven engine uses the subcube pool (internal/pool),
	// the blocking/lifting engines per-subcube solvers. The result
	// denotes the same solution set as the sequential run.
	Workers int
	// Stats, when non-nil, receives search counters for the run.
	Stats *StatsRegistry
}

// EnumerateDimacs reads a DIMACS CNF (optionally carrying a "c proj ..."
// line) and enumerates all solutions projected onto the given variables
// (1-based DIMACS numbering; nil uses the file's projection line, or all
// variables). It returns the allsat result with cover and exact count.
func EnumerateDimacs(r io.Reader, engine Engine, projDimacs []int) (*allsat.Result, error) {
	return EnumerateDimacsOpts(r, DimacsOptions{Engine: engine, Proj: projDimacs})
}

// EnumerateDimacsOpts is EnumerateDimacs with the full option set.
func EnumerateDimacsOpts(r io.Reader, o DimacsOptions) (*allsat.Result, error) {
	engine, projDimacs := o.Engine, o.Proj
	f, fileProj, err := cnf.ParseDimacs(r)
	if err != nil {
		return nil, err
	}
	if o.Preprocess {
		nVars := f.NumVars
		if pres := cnf.Preprocess(f); pres.Unsat {
			// Leave the contradiction for the enumerators to report as an
			// empty result uniformly.
			f = cnf.New(nVars)
			f.AddClause(cnf.Clause{})
		}
		f.NumVars = nVars // reductions never add variables
	}
	var proj []lit.Var
	switch {
	case projDimacs != nil:
		for _, d := range projDimacs {
			if d <= 0 || d > f.NumVars {
				return nil, fmt.Errorf("allsatpre: projection variable %d out of range", d)
			}
			proj = append(proj, lit.Var(d-1))
		}
	case len(fileProj) > 0:
		proj = fileProj
	default:
		for v := 0; v < f.NumVars; v++ {
			proj = append(proj, lit.Var(v))
		}
	}
	space := cube.NewSpace(proj)

	// Projection-safe simplification is decided here for every engine —
	// including the success-driven core/pool paths below, which have no
	// preprocessing of their own — so the allsat layer is told not to
	// repeat it.
	var sstats simplify.Stats
	if o.Simplify.Enabled(true) {
		isProj := make([]bool, f.NumVars)
		for _, v := range proj {
			isProj[v] = true
		}
		sres := simplify.Run(f, func(v lit.Var) bool { return isProj[v] }, simplify.Options{})
		sstats = sres.Stats
	}
	bud := o.Budget.Materialize()
	asOpts := allsat.Options{
		Budget:   bud,
		MaxCubes: uint64(o.MaxCubes),
		Workers:  o.Workers,
		Simplify: simplify.Off,
	}
	var res *allsat.Result
	switch engine {
	case EngineSuccessDriven:
		if o.Workers > 1 {
			res = pool.EnumerateToResult(f, space, pool.Options{
				Workers: o.Workers,
				Core:    core.DefaultOptions(),
				Budget:  bud,
				Stats:   o.Stats,
			})
			break
		}
		co := core.DefaultOptions()
		co.Budget = bud
		res = core.EnumerateToResult(f, space, co)
	case EngineBlocking:
		res = allsat.EnumerateBlocking(f, space, asOpts)
	case EngineLifting:
		res = allsat.EnumerateLifting(f, space, asOpts)
	case EngineDisjoint:
		res = allsat.EnumerateDisjoint(f, space, asOpts)
	default:
		return nil, fmt.Errorf("allsatpre: engine %v cannot enumerate raw CNF", engine)
	}
	res.Stats.Simplify = sstats
	if o.Stats != nil {
		o.Stats.Counter("decisions").Add(res.Stats.Decisions)
		o.Stats.Counter("propagations").Add(res.Stats.Propagations)
		o.Stats.Counter("conflicts").Add(res.Stats.Conflicts)
		o.Stats.Counter("solutions").Add(res.Stats.Solutions)
		o.Stats.Counter("cubes").Add(res.Stats.Cubes)
		o.Stats.MaxGauge("bdd-nodes", int64(res.Stats.BDDNodes))
		if sstats.Applied {
			o.Stats.Counter("simplify-runs").Inc()
			o.Stats.Counter("simplify-vars-eliminated").Add(uint64(sstats.VarsEliminated))
			o.Stats.Counter("simplify-clauses-subsumed").Add(uint64(sstats.ClausesSubsumed))
			o.Stats.Counter("simplify-lits-strengthened").Add(uint64(sstats.LitsStrengthened))
			o.Stats.Counter("simplify-resolvents-added").Add(uint64(sstats.ResolventsAdded))
			o.Stats.Counter("simplify-probe-failures").Add(uint64(sstats.ProbeFailures))
		}
		if res.Aborted {
			o.Stats.Counter("aborts").Inc()
			o.Stats.Counter("abort-" + res.Reason.String()).Inc()
		}
	}
	return res, nil
}

// Benchmark circuit generators (see internal/gen for parameters).
var (
	// NewCounter builds an n-bit binary counter.
	NewCounter = gen.Counter
	// NewShiftRegister builds an n-bit shift register.
	NewShiftRegister = gen.ShiftRegister
	// NewLFSR builds an n-bit Fibonacci LFSR with the given taps.
	NewLFSR = gen.LFSR
	// NewJohnson builds an n-bit Johnson counter.
	NewJohnson = gen.Johnson
	// NewGrayCounter builds an n-bit Gray-code counter.
	NewGrayCounter = gen.GrayCounter
	// NewTrafficLight builds the traffic-controller FSM.
	NewTrafficLight = gen.TrafficLight
	// NewSLike builds a seeded random reconvergent sequential circuit.
	NewSLike = gen.SLike
	// NewMultCore builds the n×n array-multiplier workload (BDD-hostile).
	NewMultCore = gen.MultCore
	// NewArbiter builds an n-client round-robin arbiter.
	NewArbiter = gen.Arbiter
	// NewFIFOCtrl builds a 2^n-entry FIFO controller skeleton.
	NewFIFOCtrl = gen.FIFOCtrl
)

// SLikeParams re-exports the random-circuit parameter struct.
type SLikeParams = gen.SLikeParams

// BenchmarkSuite returns the standard named benchmark circuits used by
// the experiments.
func BenchmarkSuite() []gen.NamedCircuit { return gen.Suite() }
