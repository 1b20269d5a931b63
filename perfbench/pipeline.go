package main

import (
	"math/big"

	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/core"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	"allsatpre/internal/pool"
	"allsatpre/internal/simplify"
	"allsatpre/internal/trans"
)

// replayed is the outcome of one traced preimage replay.
type replayed struct {
	states *cube.Cover // over the canonical state space
	count  *big.Int
	// proj is the ISOP cover over the projection: the states in latch
	// order, then the inputs in declaration order.
	proj *cube.Cover
	set  bdd.Ref // the state set in the caller's manager, when given
}

// replayPreimage computes one success-driven preimage as the sequence of
// public calls preimage.Compute makes for default options (computeSAT as
// of this commit), with a span around each call:
//
//	trans.NewInstance → OrderedProjection → simplify.Run (projection
//	frozen) → pool.Enumerate → Manager.ISOP + SatCount → state projection
//	+ Cover.Reduce → ExistsVars + SatCountIn [→ Export/Rename/Import]
//
// When share is non-nil the state set is also imported into it (the
// manager must be ordered over the canonical state variables), as Reach
// does. The caller checks the outcome against preimage.Compute/Reach.
func replayPreimage(tr *tracer, op, parent int, c *circuit.Circuit, target *cube.Cover,
	workers int, share *bdd.Manager) (*replayed, error) {
	sp := tr.begin(op, parent, "trans.encode")
	inst, err := trans.NewInstance(c, target)
	if err != nil {
		tr.end(sp)
		return nil, err
	}
	projVars, projNames := inst.OrderedProjection(false, false)
	projSpace := cube.NewNamedSpace(projVars, projNames)
	tr.end(sp)
	tr.add("trans.cnf_clauses", float64(len(inst.F.Clauses)))

	sp = tr.begin(op, parent, "simplify.run")
	frozen := make([]bool, inst.F.NumVars)
	for _, v := range projVars {
		frozen[v] = true
	}
	sres := simplify.Run(inst.F, func(v lit.Var) bool { return frozen[v] }, simplify.Options{})
	tr.end(sp)
	tr.add("simplify.vars_eliminated", float64(sres.Stats.VarsEliminated))
	tr.add("simplify.clauses_before", float64(sres.Stats.ClausesBefore))
	tr.add("simplify.clauses_after", float64(sres.Stats.ClausesAfter))

	sp = tr.begin(op, parent, "pool.enumerate")
	pr := pool.Enumerate(inst.F, projSpace, pool.Options{
		Workers: workers,
		Core:    core.DefaultOptions(),
		Budget:  budget.Budget{}.Materialize(),
	})
	tr.end(sp)
	defer pr.Release()
	tr.add("core.decisions", float64(pr.Stats.Decisions))
	tr.add("core.conflicts", float64(pr.Stats.Conflicts))
	tr.add("core.memo_lookups", float64(pr.Stats.CacheLookups))
	tr.add("core.memo_hits", float64(pr.Stats.CacheHits))
	if pr.Pool.MinWorkerDecisions > 0 {
		tr.add("pool.max_worker_decisions", float64(pr.Pool.MaxWorkerDecisions))
		tr.add("pool.min_worker_decisions", float64(pr.Pool.MinWorkerDecisions))
	}
	tr.max("bdd.peak_nodes", float64(pr.Stats.BDDNodes))

	sp = tr.begin(op, parent, "bdd.isop")
	cover := pr.Manager.ISOP(pr.Set, projSpace)
	pr.Manager.SatCount(pr.Set)
	tr.end(sp)
	tr.add("bdd.isop_cubes", float64(cover.Len()))

	sp = tr.begin(op, parent, "cube.project")
	stateSpace := cube.NewSpace(canonicalVars(len(inst.StateVars)))
	posOfLatch := make([]int, len(inst.StateVars))
	for i, v := range inst.StateVars {
		posOfLatch[i] = projSpace.PosOf(v)
	}
	states := cube.NewCover(stateSpace)
	for _, cb := range cover.Cubes() {
		sc := stateSpace.FullCube()
		for i, pos := range posOfLatch {
			sc[i] = cb[pos]
		}
		states.Add(sc)
	}
	tr.add("cube.cubes_before", float64(states.Len()))
	states.Reduce()
	tr.end(sp)
	tr.add("cube.cubes_after", float64(states.Len()))

	sp = tr.begin(op, parent, "bdd.count")
	stateSet := pr.Manager.ExistsVars(pr.Set, inst.InputVars)
	count := pr.Manager.SatCountIn(stateSet, inst.StateVars)
	tr.end(sp)

	out := &replayed{states: states, count: count, proj: cover}
	if share != nil {
		sp = tr.begin(op, parent, "bdd.import")
		sub := make(map[lit.Var]lit.Var, len(inst.StateVars))
		for i, v := range inst.StateVars {
			sub[v] = lit.Var(i)
		}
		out.set = share.Import(pr.Manager.Export(stateSet).Rename(sub))
		tr.end(sp)
	}
	return out, nil
}

// canonicalVars returns variables 0..n-1, the canonical state space.
func canonicalVars(n int) []lit.Var {
	vs := make([]lit.Var, n)
	for i := range vs {
		vs[i] = lit.Var(i)
	}
	return vs
}

// sameStates reports whether two state covers denote the same set, by
// canonical BDD comparison in a private manager.
func sameStates(n int, a, b *cube.Cover) bool {
	m := bdd.NewOrdered(canonicalVars(n))
	return m.FromCover(a) == m.FromCover(b)
}
