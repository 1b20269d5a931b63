package core

import (
	"math/big"
	"math/rand"
	"testing"

	"allsatpre/internal/allsat"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	"allsatpre/internal/sat"
)

func projSpace(vars ...int) *cube.Space {
	vs := make([]lit.Var, len(vars))
	for i, v := range vars {
		vs[i] = lit.Var(v)
	}
	return cube.NewSpace(vs)
}

func randomFormula(rng *rand.Rand, nVars, nClauses, k int) *cnf.Formula {
	f := cnf.New(nVars)
	for i := 0; i < nClauses; i++ {
		c := make(cnf.Clause, 0, k)
		for len(c) < k {
			v := lit.Var(rng.Intn(nVars))
			dup := false
			for _, x := range c {
				if x.Var() == v {
					dup = true
					break
				}
			}
			if !dup {
				c = append(c, lit.New(v, rng.Intn(2) == 0))
			}
		}
		f.AddClause(c)
	}
	return f
}

func checkAgainstBruteForce(t *testing.T, iter int, f *cnf.Formula, space *cube.Space, opts Options) {
	t.Helper()
	want := f.ProjectedModels(space.Vars())
	r := EnumerateToResult(f, space, opts)
	n := space.Size()
	m := make([]bool, n)
	got := 0
	for x := 0; x < 1<<uint(n); x++ {
		for i := 0; i < n; i++ {
			m[i] = x&(1<<uint(i)) != 0
		}
		inCover := r.Cover.Contains(m)
		buf := make([]byte, n)
		for i := range m {
			if m[i] {
				buf[i] = '1'
			} else {
				buf[i] = '0'
			}
		}
		if inCover != want[string(buf)] {
			t.Fatalf("iter %d (opts %+v): projection %s: got %v, want %v\n%s",
				iter, opts, buf, inCover, want[string(buf)], cnf.DimacsString(f, space.Vars()))
		}
		if inCover {
			got++
		}
	}
	if r.Count.Cmp(big.NewInt(int64(len(want)))) != 0 {
		t.Fatalf("iter %d: count %v, want %d", iter, r.Count, len(want))
	}
	_ = got
}

func TestAgainstBruteForceAllOptionCombos(t *testing.T) {
	optCombos := []Options{
		{EnableMemo: true, EnableLearning: true},
		{EnableMemo: true, EnableLearning: false},
		{EnableMemo: false, EnableLearning: true},
		{EnableMemo: false, EnableLearning: false},
	}
	rng := rand.New(rand.NewSource(1001))
	for iter := 0; iter < 150; iter++ {
		nVars := 3 + rng.Intn(8)
		f := randomFormula(rng, nVars, 1+rng.Intn(4*nVars), 3)
		nProj := 1 + rng.Intn(nVars)
		vars := rng.Perm(nVars)[:nProj]
		space := projSpace(vars...)
		for _, opts := range optCombos {
			checkAgainstBruteForce(t, iter, f, space, opts)
		}
	}
}

func TestAgainstBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(2002))
	for iter := 0; iter < 120; iter++ {
		nVars := 4 + rng.Intn(8)
		f := randomFormula(rng, nVars, 1+rng.Intn(4*nVars), 3)
		nProj := 1 + rng.Intn(nVars-1)
		vars := rng.Perm(nVars)[:nProj]
		space := projSpace(vars...)
		rc := EnumerateToResult(f, space, DefaultOptions())
		rb := allsat.EnumerateBlocking(f.Clone(), space, allsat.Options{})
		if rc.Count.Cmp(rb.Count) != 0 {
			t.Fatalf("iter %d: success-driven %v vs blocking %v", iter, rc.Count, rb.Count)
		}
		// Covers may differ in cube structure but must denote the same set.
		if !rc.Cover.Equal(rb.Cover) {
			t.Fatalf("iter %d: cover mismatch", iter)
		}
	}
}

func TestUnsatCases(t *testing.T) {
	// Direct contradiction.
	f := cnf.New(2)
	f.Add(lit.Pos(0))
	f.Add(lit.Neg(0))
	r := EnumerateToResult(f, projSpace(0, 1), DefaultOptions())
	if r.Count.Sign() != 0 {
		t.Fatal("contradiction should have empty projection")
	}
	// Empty clause.
	g := cnf.New(2)
	g.AddClause(cnf.Clause{})
	r = EnumerateToResult(g, projSpace(0, 1), DefaultOptions())
	if r.Count.Sign() != 0 {
		t.Fatal("empty clause should have empty projection")
	}
	// UNSAT discovered only through propagation.
	h := cnf.New(3)
	h.Add(lit.Pos(0))
	h.Add(lit.Neg(0), lit.Pos(1))
	h.Add(lit.Neg(1), lit.Pos(2))
	h.Add(lit.Neg(2))
	r = EnumerateToResult(h, projSpace(0, 1, 2), DefaultOptions())
	if r.Count.Sign() != 0 {
		t.Fatal("propagated contradiction should have empty projection")
	}
}

func TestTautology(t *testing.T) {
	f := cnf.New(4)
	r := EnumerateToResult(f, projSpace(0, 1, 2, 3), DefaultOptions())
	if r.Count.Cmp(big.NewInt(16)) != 0 {
		t.Fatalf("count %v, want 16", r.Count)
	}
	if r.Cover.Len() != 1 || r.Cover.Cubes()[0].FreeVars() != 4 {
		t.Fatal("tautology should be one universal cube")
	}
	// A tautological clause is dropped, same result.
	f2 := cnf.New(4)
	f2.Add(lit.Pos(0), lit.Neg(0))
	r2 := EnumerateToResult(f2, projSpace(0, 1, 2, 3), DefaultOptions())
	if r2.Count.Cmp(big.NewInt(16)) != 0 {
		t.Fatalf("count %v, want 16", r2.Count)
	}
}

func TestRootImpliedProjectionLiteralsFolded(t *testing.T) {
	// Unit clause fixes a projection variable at the root.
	f := cnf.New(3)
	f.Add(lit.Neg(1))
	f.Add(lit.Pos(0), lit.Pos(2))
	space := projSpace(0, 1, 2)
	checkAgainstBruteForce(t, 0, f, space, DefaultOptions())
}

func TestResidualProblem(t *testing.T) {
	// Projection over x0 only; residual over x1..x3 decides SAT: the
	// residual is satisfiable only when x0 = 1.
	f := cnf.New(4)
	f.Add(lit.Pos(0), lit.Pos(1))
	f.Add(lit.Pos(0), lit.Neg(1))
	// make residual non-trivial: (x2 ∨ x3)(¬x2 ∨ x3)(x2 ∨ ¬x3) forces x2=x3=1
	f.Add(lit.Pos(2), lit.Pos(3))
	f.Add(lit.Neg(2), lit.Pos(3))
	f.Add(lit.Pos(2), lit.Neg(3))
	checkAgainstBruteForce(t, 0, f, projSpace(0), DefaultOptions())
	// And an unsatisfiable residual: projection must be empty.
	g := cnf.New(3)
	g.Add(lit.Pos(1), lit.Pos(2))
	g.Add(lit.Neg(1), lit.Pos(2))
	g.Add(lit.Pos(1), lit.Neg(2))
	g.Add(lit.Neg(1), lit.Neg(2))
	r := EnumerateToResult(g, projSpace(0), DefaultOptions())
	if r.Count.Sign() != 0 {
		t.Fatal("unsat residual should empty the projection")
	}
}

func TestMemoHitsOnReplicatedStructure(t *testing.T) {
	// Two identical disjoint cones sharing no variables: after the first
	// cone's subproblem is solved for a given assignment, the second
	// occurrence recurs... build replicated equality chains so identical
	// residuals appear under multiple prefixes.
	// f = (p0 ≡ a) ∧ (p1 ≡ a): once a is implied the state repeats.
	f := cnf.New(4) // p0, p1, a, b
	p0, p1, a, b := lit.Var(0), lit.Var(1), lit.Var(2), lit.Var(3)
	iff := func(x, y lit.Var) {
		f.Add(lit.Neg(x), lit.Pos(y))
		f.Add(lit.Pos(x), lit.Neg(y))
	}
	iff(p0, a)
	iff(p1, b)
	space := projSpace(0, 1)
	e := New(f, space, DefaultOptions())
	r := e.Enumerate()
	if got := e.man.SatCount(r.Set); got.Cmp(big.NewInt(4)) != 0 {
		t.Fatalf("count %v, want 4", got)
	}
	if r.Stats.CacheLookups == 0 {
		t.Error("expected memo lookups")
	}
	_ = p0
	_ = p1
	_ = a
	_ = b
}

func TestMemoSpeedsUpAndAgrees(t *testing.T) {
	// On formulas with repeated substructure the memo-enabled run must
	// agree with the memo-disabled run and perform no more decisions.
	rng := rand.New(rand.NewSource(3003))
	for iter := 0; iter < 40; iter++ {
		nVars := 6 + rng.Intn(6)
		f := randomFormula(rng, nVars, 2*nVars, 2) // 2-CNF has implications galore
		vars := rng.Perm(nVars)[:4]
		space := projSpace(vars...)
		rOn := EnumerateToResult(f, space, Options{EnableMemo: true, EnableLearning: true})
		rOff := EnumerateToResult(f, space, Options{EnableMemo: false, EnableLearning: true})
		if rOn.Count.Cmp(rOff.Count) != 0 {
			t.Fatalf("iter %d: memo changed the answer: %v vs %v", iter, rOn.Count, rOff.Count)
		}
	}
}

func TestMaxDecisionsAborts(t *testing.T) {
	// A tautology over many variables needs many decisions without memo
	// hits being enough... use memo-off to force work, and a tiny budget.
	f := cnf.New(12)
	rng := rand.New(rand.NewSource(42))
	g := randomFormula(rng, 12, 20, 3)
	_ = f
	full := EnumerateToResult(g, projSpace(0, 1, 2, 3, 4, 5), Options{EnableLearning: true})
	if full.Aborted {
		t.Fatal("unbounded run should not abort")
	}
	capped := EnumerateToResult(g, projSpace(0, 1, 2, 3, 4, 5),
		Options{EnableLearning: true, MaxDecisions: 3})
	if !capped.Aborted {
		t.Skip("instance too easy to exercise the budget")
	}
	// The capped result must under-approximate the full one.
	if capped.Count.Cmp(full.Count) > 0 {
		t.Fatalf("aborted count %v exceeds exact %v", capped.Count, full.Count)
	}
	// Every capped projection must be a real projection.
	n := 6
	m := make([]bool, n)
	for x := 0; x < 1<<uint(n); x++ {
		for i := 0; i < n; i++ {
			m[i] = x&(1<<uint(i)) != 0
		}
		if capped.Cover.Contains(m) && !full.Cover.Contains(m) {
			t.Fatalf("aborted cover contains non-solution %06b", x)
		}
	}
}

func TestPanicsOnProjectionOutsideFormula(t *testing.T) {
	f := cnf.New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(f, projSpace(5), DefaultOptions())
}

func TestSolutionBDDIsCanonicalPreimageShape(t *testing.T) {
	// f encodes x0 = x1 AND x2 over projection (x0,x1,x2): the solution
	// BDD must equal the directly-built BDD of the constraint.
	f := cnf.New(3)
	f.Add(lit.Neg(0), lit.Pos(1))
	f.Add(lit.Neg(0), lit.Pos(2))
	f.Add(lit.Pos(0), lit.Neg(1), lit.Neg(2))
	space := projSpace(0, 1, 2)
	e := New(f, space, DefaultOptions())
	r := e.Enumerate()
	m := r.Manager
	want := m.Xnor(m.Var(0), m.And(m.Var(1), m.Var(2)))
	if r.Set != want {
		t.Fatalf("solution BDD not canonical: ref %d vs %d", r.Set, want)
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(5005))
	f := randomFormula(rng, 10, 30, 3)
	space := projSpace(0, 1, 2, 3)
	r1 := EnumerateToResult(f, space, DefaultOptions())
	r2 := EnumerateToResult(f, space, DefaultOptions())
	if r1.Count.Cmp(r2.Count) != 0 || r1.Stats.Decisions != r2.Stats.Decisions {
		t.Fatal("enumeration should be deterministic")
	}
	k1, k2 := r1.Cover.SortedKeys(), r2.Cover.SortedKeys()
	if len(k1) != len(k2) {
		t.Fatal("cover sizes differ across runs")
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatal("covers differ across runs")
		}
	}
}

func TestMemoBoundClearsAndAgrees(t *testing.T) {
	// A punishing memo bound must only cost re-derivations, never change
	// the answer, and each wholesale clear must be counted.
	rng := rand.New(rand.NewSource(4004))
	sawClear := false
	for iter := 0; iter < 30; iter++ {
		nVars := 8 + rng.Intn(4)
		f := randomFormula(rng, nVars, 2*nVars, 2)
		vars := rng.Perm(nVars)[:5]
		space := projSpace(vars...)
		free := EnumerateToResult(f, space, Options{EnableMemo: true, EnableLearning: true})
		opts := Options{EnableMemo: true, EnableLearning: true, MemoLimit: 2}
		e := New(f, space, opts)
		r := e.Enumerate()
		if got := e.man.SatCount(r.Set); got.Cmp(free.Count) != 0 {
			t.Fatalf("iter %d: memo bound changed the answer: %v vs %v", iter, got, free.Count)
		}
		if len(e.memo) > 2 {
			t.Fatalf("iter %d: memo size %d exceeds bound 2", iter, len(e.memo))
		}
		if r.Stats.CacheClears > 0 {
			sawClear = true
		}
	}
	if !sawClear {
		t.Fatal("bound 2 never triggered a clear across 30 formulas")
	}
}

func TestMemoLimitResolution(t *testing.T) {
	f := cnf.New(2)
	space := projSpace(0, 1)
	if e := New(f, space, Options{EnableMemo: true}); e.memoLimit != DefaultMemoLimit {
		t.Fatalf("zero MemoLimit resolved to %d, want DefaultMemoLimit", e.memoLimit)
	}
	if e := New(f, space, Options{EnableMemo: true, MemoLimit: 64}); e.memoLimit != 64 {
		t.Fatalf("explicit MemoLimit resolved to %d, want 64", e.memoLimit)
	}
	if e := New(f, space, Options{EnableMemo: true, MemoLimit: -1}); e.memoLimit != 0 {
		t.Fatalf("negative MemoLimit resolved to %d, want 0 (unbounded)", e.memoLimit)
	}
}

func TestKernelStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(5005))
	f := randomFormula(rng, 10, 20, 3)
	space := projSpace(0, 1, 2, 3, 4)
	r := New(f, space, DefaultOptions()).Enumerate()
	k := r.Stats.Kernel
	if k.UniqueLookups == 0 || k.UniqueCap == 0 {
		t.Fatalf("kernel gauges empty: %+v", k)
	}
	if k.Nodes != r.Stats.BDDNodes {
		t.Fatalf("kernel node count %d != BDDNodes %d", k.Nodes, r.Stats.BDDNodes)
	}
}

// TestLearntDatabaseBounded pins the bound on the conflict clauses of a
// long enumeration. They live in the solver's tiered learnt database:
// the reducible tiers are capped at LearntFactor × problem clauses (at
// least 100), each reduction round deletes about half of the local tier
// and grows the cap by LearntGrowth. Over a run that learns L clauses
// that holds the live population near c0 + 2(LearntGrowth−1)·L; the
// bound allows twice that, plus the trail, for used-bit protection and
// the permanent core tier. An enumerator whose learnt list only appends
// holds all L.
func TestLearntDatabaseBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	f := randomFormula(rng, 80, 300, 3)
	space := projSpace(rng.Perm(80)[:24]...)
	e := New(f, space, DefaultOptions())
	r := e.Enumerate()
	so := sat.DefaultOptions()
	c0 := max(float64(len(f.Clauses))*so.LearntFactor, 100)
	learnt := float64(r.Stats.Conflicts) // at most one learnt per conflict
	bound := int(2*(c0+2*(so.LearntGrowth-1)*learnt)) + f.NumVars
	if learnt < 10*c0 {
		t.Fatalf("only %v conflicts; the run must outlast many reduction rounds", learnt)
	}
	if live := e.LearnedCount(); live > bound {
		t.Fatalf("%d live learnts after %v conflicts, bound %d", live, learnt, bound)
	}
	if peak := int(r.Stats.PeakLearnts); peak == 0 || peak > bound {
		t.Fatalf("PeakLearnts = %d, want in (0, %d]", peak, bound)
	}
}
