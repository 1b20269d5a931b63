package preimage

import (
	"fmt"
	"math/big"

	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	"allsatpre/internal/sat"
	"allsatpre/internal/trans"
)

// ForwardReach iterates Image from the initial set until a fixpoint or
// maxSteps image computations — the forward dual of Reach, with the same
// budget semantics: one shared allowance, no fixpoint claims from
// truncated layers.
func ForwardReach(c *circuit.Circuit, init *cube.Cover, maxSteps int, opts Options) (*ReachResult, error) {
	opts.Budget = opts.Budget.Materialize()
	if useIncremental(opts) {
		return forwardReachIncremental(c, init, maxSteps, opts)
	}
	runStats := opts.Stats
	stateSpace := StateSpace(c)
	man := bdd.NewOrdered(stateSpace.Vars())

	initC := canonicalize(stateSpace, init)
	visited := man.FromCover(initC)
	res := &ReachResult{
		StateSpace:     stateSpace,
		Frontiers:      []*cube.Cover{initC},
		FrontierCounts: []*big.Int{man.SatCount(visited)},
	}
	frontier := initC
	for step := 0; maxSteps <= 0 || step < maxSteps; step++ {
		if frontier.Len() == 0 {
			res.Fixpoint = true
			break
		}
		if runStats != nil {
			opts.Stats = runStats.Phase(fmt.Sprintf("step%02d", step))
		}
		img, err := Image(c, frontier, opts)
		if err != nil {
			return nil, err
		}
		res.Steps++
		accumulate(&res.Stats, img.Stats)
		if img.BDDNodes > res.BDDNodes {
			res.BDDNodes = img.BDDNodes
		}
		if img.Aborted {
			res.Aborted = true
			if res.AbortReason == budget.None {
				res.AbortReason = img.AbortReason
			}
		}
		imgSet := man.FromCover(img.States)
		newSet := man.Diff(imgSet, visited)
		if newSet == bdd.False {
			if !img.Aborted {
				res.Fixpoint = true
			}
			break
		}
		visited = man.Or(visited, newSet)
		frontier = man.ISOP(newSet, stateSpace)
		res.Frontiers = append(res.Frontiers, frontier)
		res.FrontierCounts = append(res.FrontierCounts, man.SatCount(newSet))
		if img.Aborted {
			break
		}
	}
	res.All = man.ISOP(visited, stateSpace)
	res.AllCount = man.SatCount(visited)
	return res, nil
}

// Trace is a concrete counterexample: a state sequence and the input
// vectors driving it, with States[i+1] = δ(States[i], Inputs[i]).
type Trace struct {
	// States has length Steps+1; States[0] ∈ init, States[len-1] ∈ bad.
	States [][]bool
	// Inputs has length Steps.
	Inputs [][]bool
}

// Steps returns the number of transitions in the trace.
func (tr *Trace) Steps() int { return len(tr.Inputs) }

// CheckResult is the outcome of a reachability query.
type CheckResult struct {
	// Reachable reports whether some bad state is reachable from init.
	Reachable bool
	// Trace is a concrete witness when Reachable (nil otherwise).
	Trace *Trace
	// Steps is the distance of the witness, or the number of preimage
	// iterations performed before the fixpoint proof.
	Steps int
	// Complete is true when the answer is definitive: either a trace was
	// found, or the backward fixpoint proves unreachability. It is false
	// when maxSteps or a resource budget cut the iteration short.
	Complete bool
	// Aborted is true when a resource budget (not the maxSteps
	// parameter) ended the search before a verdict; AbortReason says
	// which limit tripped. A REACHABLE verdict is still trusted even if
	// some layer was truncated — every state in a partial layer is a
	// genuine predecessor — but no unreachability proof is possible.
	Aborted     bool
	AbortReason budget.Reason
	// Invariant, on a complete UNREACHABLE verdict, is an inductive
	// invariant certifying it: a state cover that contains init, excludes
	// bad, and is closed under the transition relation (its image is
	// contained in it). It is the complement of the backward-reachable
	// set. Verify it independently with VerifyInvariant.
	Invariant *cube.Cover
}

// VerifyInvariant checks the three conditions making inv a proof that bad
// is unreachable from init: init ⊆ inv, inv ∩ bad = ∅, and
// Img(inv) ⊆ inv. It recomputes the image with the given engine, so the
// certificate is checked by machinery independent of how it was found.
func VerifyInvariant(c *circuit.Circuit, init, bad, inv *cube.Cover, opts Options) error {
	stateSpace := StateSpace(c)
	man := bdd.NewOrdered(stateSpace.Vars())
	invSet := man.FromCover(canonicalize(stateSpace, inv))
	initSet := man.FromCover(canonicalize(stateSpace, init))
	badSet := man.FromCover(canonicalize(stateSpace, bad))
	if man.Diff(initSet, invSet) != bdd.False {
		return fmt.Errorf("preimage: invariant does not contain init")
	}
	if man.And(invSet, badSet) != bdd.False {
		return fmt.Errorf("preimage: invariant intersects bad")
	}
	img, err := Image(c, canonicalize(stateSpace, inv), opts)
	if err != nil {
		return err
	}
	imgSet := man.FromCover(img.States)
	if man.Diff(imgSet, invSet) != bdd.False {
		return fmt.Errorf("preimage: invariant is not inductive")
	}
	return nil
}

// CheckReachable decides whether any state of bad is reachable from any
// state of init, using backward reachability from bad (the paper's
// unbounded model-checking loop) and, on success, extracting a concrete
// input trace with one SAT query per step.
func CheckReachable(c *circuit.Circuit, init, bad *cube.Cover, maxSteps int, opts Options) (*CheckResult, error) {
	opts.Budget = opts.Budget.Materialize()
	stateSpace := StateSpace(c)
	man := bdd.NewOrdered(stateSpace.Vars())
	if opts.Engine == EngineSuccessDriven {
		// Let Compute export each layer's state set straight into our
		// manager instead of round-tripping it through a cover.
		opts.ShareManager = man
	}
	initSet := man.FromCover(canonicalize(stateSpace, init))

	// Backward layers from bad until init is hit or fixpoint.
	badC := canonicalize(stateSpace, bad)
	visited := man.FromCover(badC)
	layers := []bdd.Ref{visited}
	frontier := badC

	hitLayer := -1
	if man.And(initSet, visited) != bdd.False {
		hitLayer = 0
	}
	steps := 0
	for hitLayer < 0 {
		if maxSteps > 0 && steps >= maxSteps {
			return &CheckResult{Steps: steps}, nil
		}
		pre, err := Compute(c, frontier, opts)
		if err != nil {
			return nil, err
		}
		steps++
		var preSet bdd.Ref
		if pre.HasSet {
			preSet = pre.Set
		} else {
			preSet = man.FromCover(pre.States)
		}
		newSet := man.Diff(preSet, visited)
		if newSet == bdd.False {
			if pre.Aborted {
				// A truncated layer that happens to add nothing proves
				// nothing: the missing predecessors may be exactly the
				// ones reaching init.
				return &CheckResult{
					Steps: steps, Aborted: true, AbortReason: pre.AbortReason,
				}, nil
			}
			inv := man.ISOP(man.Not(visited), stateSpace)
			return &CheckResult{Steps: steps, Complete: true, Invariant: inv}, nil
		}
		visited = man.Or(visited, newSet)
		layers = append(layers, newSet)
		frontier = man.ISOP(newSet, stateSpace)
		if man.And(initSet, newSet) != bdd.False {
			// Sound even from a truncated layer: every state in a partial
			// preimage is a genuine predecessor, so the trace exists.
			hitLayer = len(layers) - 1
		} else if pre.Aborted {
			return &CheckResult{
				Steps: steps, Aborted: true, AbortReason: pre.AbortReason,
			}, nil
		}
	}

	// Extract the trace: start at a state in init ∩ layers[hitLayer], then
	// step forward into layers[hitLayer-1], ..., layers[0].
	start := man.AnySat(man.And(initSet, layers[hitLayer]), stateSpace)
	cur := cubeToState(start)
	tr := &Trace{States: [][]bool{cur}}
	var stepper *traceStepper
	if opts.Incremental && hitLayer > 1 {
		// One persistent solver for the whole trace instead of a fresh
		// CNF + solver per layer. Any valid witness is acceptable, so the
		// (legal) model differences a warmed-up solver may produce do not
		// matter here.
		s, err := newTraceStepper(c)
		if err != nil {
			return nil, err
		}
		stepper = s
	}
	for k := hitLayer - 1; k >= 0; k-- {
		var in, next []bool
		var err error
		if stepper != nil {
			in, next, err = stepper.step(cur, man.ISOP(layers[k], stateSpace))
		} else {
			in, next, err = stepInto(c, cur, man.ISOP(layers[k], stateSpace))
		}
		if err != nil {
			return nil, fmt.Errorf("preimage: trace extraction at layer %d: %w", k, err)
		}
		tr.Inputs = append(tr.Inputs, in)
		tr.States = append(tr.States, next)
		cur = next
	}
	return &CheckResult{Reachable: true, Trace: tr, Steps: hitLayer, Complete: true}, nil
}

// cubeToState picks the concrete state of a cube (free positions → 0).
func cubeToState(cb cube.Cube) []bool {
	out := make([]bool, len(cb))
	for i, t := range cb {
		out[i] = t == lit.True
	}
	return out
}

// stepInto finds one input vector that moves the concrete state cur into
// the target set, returning the inputs and the successor state. It is a
// single incremental SAT query on the transition CNF.
func stepInto(c *circuit.Circuit, cur []bool, target *cube.Cover) (inputs, next []bool, err error) {
	inst, err := trans.NewInstance(c, target)
	if err != nil {
		return nil, nil, err
	}
	s := sat.FromFormula(inst.F, sat.DefaultOptions())
	var assume []lit.Lit
	for i, v := range inst.StateVars {
		assume = append(assume, lit.New(v, !cur[i]))
	}
	switch s.Solve(assume...) {
	case sat.Sat:
	case sat.Unsat:
		return nil, nil, fmt.Errorf("no transition from %v into the layer", cur)
	default:
		return nil, nil, fmt.Errorf("budget exhausted during trace extraction")
	}
	m := s.Model()
	inputs = make([]bool, len(inst.InputVars))
	for i, v := range inst.InputVars {
		inputs[i] = m[v]
	}
	next = make([]bool, len(inst.NextVars))
	for i, v := range inst.NextVars {
		next[i] = m[v]
	}
	return inputs, next, nil
}
