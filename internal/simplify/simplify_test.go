package simplify

import (
	"fmt"
	"math/rand"
	"testing"

	"allsatpre/internal/cnf"
	"allsatpre/internal/lit"
	"allsatpre/internal/stats"
)

// randomFormula builds a small random 1..4-CNF over n variables.
func randomFormula(rng *rand.Rand, n, clauses int) *cnf.Formula {
	f := cnf.New(n)
	for i := 0; i < clauses; i++ {
		width := 1 + rng.Intn(4)
		c := make(cnf.Clause, 0, width)
		for j := 0; j < width; j++ {
			v := lit.Var(rng.Intn(n))
			c = append(c, lit.New(v, rng.Intn(2) == 1))
		}
		f.AddClause(c)
	}
	return f
}

// frozenSubset picks a random frozen set of size k and returns it as a
// predicate plus the ordered variable list.
func frozenSubset(rng *rand.Rand, n, k int) (func(lit.Var) bool, []lit.Var) {
	perm := rng.Perm(n)
	set := make(map[lit.Var]bool, k)
	vars := make([]lit.Var, 0, k)
	for _, i := range perm[:k] {
		set[lit.Var(i)] = true
	}
	for v := 0; v < n; v++ {
		if set[lit.Var(v)] {
			vars = append(vars, lit.Var(v))
		}
	}
	return func(v lit.Var) bool { return set[v] }, vars
}

// TestProjectionEquivalenceRandom is the core soundness property: for a
// random formula and a random frozen set, the projection of the solution
// set onto the frozen variables is identical before and after Run.
func TestProjectionEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(8)
		f := randomFormula(rng, n, 2+rng.Intn(3*n))
		frozen, fvars := frozenSubset(rng, n, 1+rng.Intn(n))
		orig := f.Clone()
		want := orig.ProjectedModels(fvars)

		res := Run(f, frozen, Options{})
		if f.NumVars != n {
			t.Fatalf("trial %d: NumVars changed %d -> %d", trial, n, f.NumVars)
		}
		got := f.ProjectedModels(fvars)
		if res.Unsat && len(want) != 0 {
			t.Fatalf("trial %d: claimed Unsat but original has %d projected models", trial, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: projected model count %d != %d\norig: %v\nsimp: %v",
				trial, len(got), len(want), orig, f)
		}
		for m := range want {
			if !got[m] {
				t.Fatalf("trial %d: projected model %s lost", trial, m)
			}
		}

		// All variables frozen: nothing may be eliminated, so the exact
		// model set over every variable is unchanged.
		all := make([]lit.Var, n)
		for v := range all {
			all[v] = lit.Var(v)
		}
		g := orig.Clone()
		gres := Run(g, func(lit.Var) bool { return true }, Options{})
		if gres.Stats.VarsEliminated != 0 {
			t.Fatalf("trial %d: all-frozen run eliminated %d vars", trial, gres.Stats.VarsEliminated)
		}
		wantAll, gotAll := orig.ProjectedModels(all), g.ProjectedModels(all)
		if len(gotAll) != len(wantAll) {
			t.Fatalf("trial %d: all-frozen model count %d != %d\norig: %v\nsimp: %v",
				trial, len(gotAll), len(wantAll), orig, g)
		}
		for m := range wantAll {
			if !gotAll[m] {
				t.Fatalf("trial %d: all-frozen model %s lost", trial, m)
			}
		}
	}
}

// TestExtendReconstruction checks the elimination stack: every model of
// the simplified formula extends to a total model of the original.
func TestExtendReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(8)
		f := randomFormula(rng, n, 2+rng.Intn(3*n))
		frozen, _ := frozenSubset(rng, n, rng.Intn(n+1))
		orig := f.Clone()

		res := Run(f, frozen, Options{})
		if res.Unsat {
			if orig.CountModels() != 0 {
				t.Fatalf("trial %d: claimed Unsat but original satisfiable", trial)
			}
			continue
		}
		assign := make([]lit.Tern, n)
		checked := 0
		f.EnumerateModels(func(model []bool) {
			if checked >= 64 {
				return
			}
			checked++
			total := res.Extend(append([]bool(nil), model...))
			for i, b := range total {
				assign[i] = lit.TernOf(b)
			}
			if !orig.Satisfied(assign) {
				t.Fatalf("trial %d: extended model %v does not satisfy original\norig: %v\nsimp: %v\nstack: %+v",
					trial, total, orig, f, res.stack)
			}
		})
	}
}

// TestFrozenVarsSurvive pins the frozen-set contract: frozen variables
// are never eliminated and never carry reconstruction records, even when
// they are the perfect BVE candidates (definitional equivalences).
func TestFrozenVarsSurvive(t *testing.T) {
	// Chain of equivalences x0 = x1 = x2 = x3; every var occurs twice per
	// phase, so unfrozen BVE would collapse the chain entirely.
	f := cnf.New(4)
	for v := 0; v < 3; v++ {
		f.Add(lit.Neg(lit.Var(v)), lit.Pos(lit.Var(v+1)))
		f.Add(lit.Pos(lit.Var(v)), lit.Neg(lit.Var(v+1)))
	}
	frozen := func(v lit.Var) bool { return v == 0 || v == 3 }
	res := Run(f, frozen, Options{})
	for _, v := range []lit.Var{0, 3} {
		if res.Eliminated(v) {
			t.Fatalf("frozen var %v was eliminated", v)
		}
	}
	if res.Stats.VarsEliminated == 0 {
		t.Fatalf("expected the middle of the chain to be eliminated, stats: %+v", res.Stats)
	}
	// x0 and x3 must still be constrained to be equal.
	want := map[string]bool{"00": true, "11": true}
	got := f.ProjectedModels([]lit.Var{0, 3})
	if len(got) != len(want) {
		t.Fatalf("projection onto frozen vars changed: %v", got)
	}
	for m := range want {
		if !got[m] {
			t.Fatalf("frozen projection lost %s: %v", m, got)
		}
	}
}

// TestFrozenUnitsReemitted: a unit fixing a frozen variable must survive
// in the output formula so downstream enumeration engines see it.
func TestFrozenUnitsReemitted(t *testing.T) {
	f := cnf.New(3)
	f.Add(lit.Pos(0))
	f.Add(lit.Neg(0), lit.Pos(1))
	f.Add(lit.Neg(1), lit.Pos(2))
	frozen := func(v lit.Var) bool { return v == 0 }
	Run(f, frozen, Options{})
	found := false
	for _, c := range f.Clauses {
		if len(c) == 1 && c[0] == lit.Pos(0) {
			found = true
		}
	}
	if !found {
		t.Fatalf("unit on frozen var 0 not re-emitted: %v", f)
	}
	got := f.ProjectedModels([]lit.Var{0})
	if len(got) != 1 || !got["1"] {
		t.Fatalf("frozen projection wrong: %v", got)
	}
}

// TestUnsat: a contradiction must be detected and the formula rewritten
// to a single empty clause with NumVars preserved.
func TestUnsat(t *testing.T) {
	f := cnf.New(2)
	f.Add(lit.Pos(0))
	f.Add(lit.Neg(0), lit.Pos(1))
	f.Add(lit.Neg(1))
	res := Run(f, func(lit.Var) bool { return false }, Options{})
	if !res.Unsat {
		t.Fatalf("expected Unsat, stats: %+v", res.Stats)
	}
	if f.NumVars != 2 || len(f.Clauses) != 1 || len(f.Clauses[0]) != 0 {
		t.Fatalf("unsat rewrite wrong: NumVars=%d clauses=%v", f.NumVars, f.Clauses)
	}
}

// TestSubsumptionAndStrengthening exercises the occurrence-index passes
// directly.
func TestSubsumptionAndStrengthening(t *testing.T) {
	f := cnf.New(4)
	f.Add(lit.Pos(0), lit.Pos(1))                // c0
	f.Add(lit.Pos(0), lit.Pos(1), lit.Pos(2))    // subsumed by c0
	f.Add(lit.Neg(0), lit.Pos(1), lit.Pos(3))    // self-subsumed by c0 on x0 -> (x1 x3)
	frozen := func(lit.Var) bool { return true } // isolate subsumption from BVE
	res := Run(f, frozen, Options{NoProbing: true, MaxRounds: 2, MaxOccur: 1})
	if res.Stats.ClausesSubsumed == 0 {
		t.Fatalf("expected subsumption, stats: %+v", res.Stats)
	}
	if res.Stats.LitsStrengthened == 0 {
		t.Fatalf("expected self-subsuming strengthening, stats: %+v", res.Stats)
	}
	// Semantic check over all vars (all frozen => full equivalence).
	vars := []lit.Var{0, 1, 2, 3}
	orig := cnf.New(4)
	orig.Add(lit.Pos(0), lit.Pos(1))
	orig.Add(lit.Pos(0), lit.Pos(1), lit.Pos(2))
	orig.Add(lit.Neg(0), lit.Pos(1), lit.Pos(3))
	want := orig.ProjectedModels(vars)
	got := f.ProjectedModels(vars)
	if len(want) != len(got) {
		t.Fatalf("model sets differ: %d vs %d", len(want), len(got))
	}
}

// TestProbing: x2 is entailed through the chain (¬x0 ∨ x2) ∧ (x0 ∨ x1) ∧
// (¬x1 ∨ x2) — no clause pair admits self-subsuming resolution, so only
// failed-literal probing of ¬x2 (whose BCP derives ¬x0, x1, conflict)
// exposes the unit. With NoProbing as the only set field the pass must
// not probe at all.
func TestProbing(t *testing.T) {
	for _, opts := range []Options{{MaxOccur: 1}, {NoProbing: true}} {
		f := cnf.New(3)
		f.Add(lit.Neg(0), lit.Pos(2))
		f.Add(lit.Pos(0), lit.Pos(1))
		f.Add(lit.Neg(1), lit.Pos(2))
		frozen := func(lit.Var) bool { return true }
		res := Run(f, frozen, opts)
		if opts.NoProbing {
			if res.Stats.Probes != 0 || res.Stats.ProbeFailures != 0 {
				t.Fatalf("probing ran with NoProbing set, stats: %+v", res.Stats)
			}
			continue
		}
		if res.Stats.ProbeFailures == 0 {
			t.Fatalf("expected a failed literal, stats: %+v", res.Stats)
		}
		got := f.ProjectedModels([]lit.Var{2})
		if len(got) != 1 || !got["1"] {
			t.Fatalf("probing failed to fix x2: %v", got)
		}
	}
}

// TestPureLiteralElimination: a variable occurring in one phase only is
// eliminated with zero resolvents.
func TestPureLiteralElimination(t *testing.T) {
	f := cnf.New(3)
	f.Add(lit.Pos(0), lit.Pos(2))
	f.Add(lit.Pos(1), lit.Pos(2))
	frozen := func(v lit.Var) bool { return v != 2 }
	res := Run(f, frozen, Options{NoProbing: true})
	if res.Stats.VarsEliminated != 1 {
		t.Fatalf("expected pure-literal elimination of x2, stats: %+v", res.Stats)
	}
	if len(f.Clauses) != 0 {
		t.Fatalf("expected empty simplified formula, got %v", f.Clauses)
	}
	// Extend must still produce a model of the original.
	total := res.Extend(make([]bool, 3))
	assign := make([]lit.Tern, 3)
	for i, b := range total {
		assign[i] = lit.TernOf(b)
	}
	orig := cnf.New(3)
	orig.Add(lit.Pos(0), lit.Pos(2))
	orig.Add(lit.Pos(1), lit.Pos(2))
	if !orig.Satisfied(assign) {
		t.Fatalf("extended model %v does not satisfy original", total)
	}
}

// TestDeterminism: two runs over clones produce identical output clause
// lists and stats.
func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(8)
		f1 := randomFormula(rng, n, 3*n)
		f2 := f1.Clone()
		frozen, _ := frozenSubset(rng, n, 1+rng.Intn(n/2+1))
		r1 := Run(f1, frozen, Options{})
		r2 := Run(f2, frozen, Options{})
		if fmt.Sprint(f1.Clauses) != fmt.Sprint(f2.Clauses) {
			t.Fatalf("trial %d: nondeterministic output\n%v\n%v", trial, f1.Clauses, f2.Clauses)
		}
		if r1.Stats != r2.Stats {
			t.Fatalf("trial %d: nondeterministic stats\n%+v\n%+v", trial, r1.Stats, r2.Stats)
		}
	}
}

// TestModeEnabled pins the tri-state resolution.
func TestModeEnabled(t *testing.T) {
	if !Auto.Enabled(true) || Auto.Enabled(false) {
		t.Fatal("Auto must follow the default")
	}
	if !On.Enabled(false) || Off.Enabled(true) {
		t.Fatal("On/Off must override the default")
	}
	if Auto.String() != "auto" || On.String() != "on" || Off.String() != "off" {
		t.Fatal("Mode.String mismatch")
	}
}

// TestStatsPublishNames pins the counter names Stats.Publish emits: the
// preimage, DIMACS and incremental-session callers all report through it,
// and dashboards key on these names.
func TestStatsPublishNames(t *testing.T) {
	st := Stats{Applied: true, VarsEliminated: 2, UnitsFixed: 1, ClausesSubsumed: 3,
		LitsStrengthened: 4, ResolventsAdded: 5, Probes: 6, ProbeFailures: 7,
		ClausesBefore: 10, ClausesAfter: 8}
	reg := stats.NewRegistry("t")
	st.Publish(reg, "incr.")
	Stats{}.Publish(reg, "") // not applied: publishes nothing
	want := map[string]string{
		"incr.simplify-runs": "1", "incr.simplify-vars-eliminated": "2",
		"incr.simplify-units-fixed": "1", "incr.simplify-clauses-subsumed": "3",
		"incr.simplify-lits-strengthened": "4", "incr.simplify-resolvents-added": "5",
		"incr.simplify-probes": "6", "incr.simplify-probe-failures": "7",
		"incr.simplify-clauses-removed": "2",
	}
	got := map[string]string{}
	for _, kv := range reg.Snapshot().Metrics {
		got[kv.Key] = kv.Value
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("published counters\n got %v\nwant %v", got, want)
	}
}

// FuzzSimplify checks Run never panics and, with every variable frozen,
// preserves the exact model set (UNSAT only when there is no model).
func FuzzSimplify(f *testing.F) {
	f.Add("p cnf 3 3\n1 0\n-1 2 0\n-2 3 0\n")
	f.Add("p cnf 2 2\n1 0\n-1 0\n")
	f.Add("p cnf 4 2\n1 -1 0\n2 3 4 0\n")
	f.Fuzz(func(t *testing.T, src string) {
		formula, _, err := cnf.ParseDimacsString(src)
		if err != nil || formula.NumVars > 16 || len(formula.Clauses) > 24 {
			return
		}
		all := make([]lit.Var, formula.NumVars)
		for v := range all {
			all[v] = lit.Var(v)
		}
		before := formula.ProjectedModels(all)
		res := Run(formula, func(lit.Var) bool { return true }, Options{})
		if res.Unsat {
			if len(before) != 0 {
				t.Fatalf("Run claimed UNSAT with %d models", len(before))
			}
			return
		}
		after := formula.ProjectedModels(all)
		if len(after) != len(before) {
			t.Fatalf("Run changed the model count %d -> %d", len(before), len(after))
		}
		for m := range before {
			if !after[m] {
				t.Fatalf("Run lost model %s", m)
			}
		}
	})
}

// TestSubsumesHelper pins subsumes on normalized clauses, including the
// empty clause, which subsumes everything.
func TestSubsumesHelper(t *testing.T) {
	a, _ := cnf.Clause{lit.Pos(0), lit.Pos(2)}.Normalize()
	b, _ := cnf.Clause{lit.Pos(0), lit.Pos(1), lit.Pos(2)}.Normalize()
	if !subsumes(a, b) || subsumes(b, a) {
		t.Fatal("subsumes broken")
	}
	if !subsumes(cnf.Clause{}, a) {
		t.Fatal("empty clause subsumes everything")
	}
}

// TestSignatureIsSound: the signature prefilter never rejects a real
// subsumption. b extends a by a random clause, so a ⊆ b on every
// non-tautological draw.
func TestSignatureIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(912))
	for iter := 0; iter < 200; iter++ {
		a := randomFormula(rng, 80, 1).Clauses[0]
		b := append(randomFormula(rng, 80, 1).Clauses[0], a...)
		an, t1 := a.Normalize()
		bn, t2 := b.Normalize()
		if t1 || t2 {
			continue
		}
		if !subsumes(an, bn) {
			t.Fatalf("subsumes misses %v ⊆ %v", an, bn)
		}
		if signature(an)&^signature(bn) != 0 {
			t.Fatalf("signature filter rejects a real subsumption: %v ⊆ %v", an, bn)
		}
	}
}

// TestDuplicateClausesCollapse: one copy of a clause repeated with its
// literals reordered survives.
func TestDuplicateClausesCollapse(t *testing.T) {
	f := cnf.New(2)
	f.Add(lit.Pos(0), lit.Pos(1))
	f.Add(lit.Pos(1), lit.Pos(0))
	Run(f, func(lit.Var) bool { return true }, Options{})
	if len(f.Clauses) != 1 {
		t.Fatalf("%d clauses left, want 1", len(f.Clauses))
	}
}

// TestIdempotent: with every variable frozen, a second Run over the
// output finds nothing left to subsume, strengthen or fix.
func TestIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(911))
	all := func(lit.Var) bool { return true }
	for iter := 0; iter < 50; iter++ {
		f := randomFormula(rng, 6, 12)
		if Run(f, all, Options{}).Unsat {
			continue
		}
		st := Run(f, all, Options{}).Stats
		if st.ClausesSubsumed != 0 || st.LitsStrengthened != 0 || st.ClausesAfter != st.ClausesBefore {
			t.Fatalf("iter %d: second pass still found work: %+v", iter, st)
		}
	}
}
