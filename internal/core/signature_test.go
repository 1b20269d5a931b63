package core

import (
	"math/big"
	"testing"

	"allsatpre/internal/cnf"
	"allsatpre/internal/lit"
)

func TestZobristKeysDistinct(t *testing.T) {
	// Keys for nearby clause ids / literals must all differ (spot check
	// for accidental structure in the derivation).
	seen := map[sig128]string{}
	add := func(s sig128, what string) {
		t.Helper()
		if prev, dup := seen[s]; dup {
			t.Fatalf("key collision: %s vs %s", what, prev)
		}
		seen[s] = what
	}
	for ci := int32(0); ci < 200; ci++ {
		add(clauseBase(ci), "base")
	}
	for ci := int32(0); ci < 40; ci++ {
		for l := lit.Lit(0); l < 40; l++ {
			add(falseKey(ci, l), "falseKey")
		}
	}
}

func TestResidualHashRestoredOnBacktrack(t *testing.T) {
	// Push a decision level, assign, pop: resid must return exactly.
	f := cnf.New(4)
	f.Add(lit.Pos(0), lit.Pos(1))
	f.Add(lit.Neg(0), lit.Pos(2))
	f.Add(lit.Neg(1), lit.Neg(2), lit.Pos(3))
	space := projSpace(0, 1, 2, 3)
	e := New(f, space, DefaultOptions())
	start := e.resid
	startUnsat := e.unsatCnt

	if !e.decide(lit.Pos(0)) {
		t.Fatal("unexpected conflict")
	}
	if e.resid == start {
		t.Fatal("assignment should change the residual hash")
	}
	e.pop()
	if e.resid != start || e.unsatCnt != startUnsat {
		t.Fatalf("residual not restored: unsat %d -> %d", startUnsat, e.unsatCnt)
	}

	// Two levels, partial pops.
	e.decide(lit.Neg(1))
	mid := e.resid
	e.decide(lit.Pos(2))
	e.pop()
	if e.resid != mid {
		t.Fatal("inner level not restored")
	}
	e.pop()
	if e.resid != start {
		t.Fatal("outer level not restored")
	}
}

func TestEqualResidualsSameHash(t *testing.T) {
	// Assigning irrelevant variables in different orders reaches the
	// same residual and therefore the same hash.
	f := cnf.New(4)
	f.Add(lit.Pos(2), lit.Pos(3)) // clause untouched by v0, v1
	space := projSpace(0, 1, 2, 3)

	e1 := New(f, space, DefaultOptions())
	e1.decide(lit.Pos(0))
	e1.decide(lit.Neg(1))

	e2 := New(f.Clone(), space, DefaultOptions())
	e2.decide(lit.Neg(1))
	e2.decide(lit.Pos(0))

	if e1.resid != e2.resid {
		t.Fatal("identical residuals hash differently")
	}
	// And an assignment touching the clause changes it.
	e2.decide(lit.Neg(2))
	if e1.resid == e2.resid {
		t.Fatal("different residuals hash equal")
	}
}

func TestMemoHitRateOnShiftChain(t *testing.T) {
	// A long implication chain with repeated structure should produce
	// real cache hits and agree with the memo-off answer.
	n := 14
	f := cnf.New(2 * n)
	for i := 0; i < n; i++ {
		// x_i drives y_i: y_i ≡ x_i
		f.Add(lit.Neg(lit.Var(i)), lit.Pos(lit.Var(n+i)))
		f.Add(lit.Pos(lit.Var(i)), lit.Neg(lit.Var(n+i)))
	}
	vars := make([]int, n)
	for i := range vars {
		vars[i] = i
	}
	space := projSpace(vars...)
	e := New(f, space, DefaultOptions())
	r := e.Enumerate()
	if got := e.man.SatCount(r.Set); got.Cmp(big.NewInt(1<<uint(n))) != 0 {
		t.Fatalf("count %v, want 2^%d", got, n)
	}
	if r.Stats.CacheHits == 0 {
		t.Fatal("expected memo hits on repeated residuals")
	}
	off := EnumerateToResult(f, space, Options{EnableLearning: true})
	if off.Count.Cmp(big.NewInt(1<<uint(n))) != 0 {
		t.Fatal("memo-off disagrees")
	}
}
