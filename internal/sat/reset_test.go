package sat

import (
	"math/rand"
	"testing"

	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/lit"
)

// solveTrace runs Solve on a formula-loaded solver and snapshots
// everything observable: status, model, and the full statistics record.
type solveTrace struct {
	status Status
	model  []bool
	stats  Stats
}

func traceOf(s *Solver, f *cnf.Formula) solveTrace {
	if !s.LoadFormula(f) {
		return solveTrace{status: Unsat, stats: s.Stats()}
	}
	st := s.Solve()
	return solveTrace{status: st, model: s.Model(), stats: s.Stats()}
}

func sameTrace(t *testing.T, fresh, reused solveTrace, label string) {
	t.Helper()
	if fresh.status != reused.status {
		t.Fatalf("%s: status fresh=%v reused=%v", label, fresh.status, reused.status)
	}
	if len(fresh.model) != len(reused.model) {
		t.Fatalf("%s: model length fresh=%d reused=%d", label, len(fresh.model), len(reused.model))
	}
	for i := range fresh.model {
		if fresh.model[i] != reused.model[i] {
			t.Fatalf("%s: model differs at var %d", label, i)
		}
	}
	if fresh.stats != reused.stats {
		t.Fatalf("%s: stats differ\nfresh:  %+v\nreused: %+v", label, fresh.stats, reused.stats)
	}
}

// TestResetBitIdentical pins the Reset contract at the solver level: a
// Reset-reused solver must reproduce a fresh solver's entire observable
// trajectory — status, model, and every statistics counter — on a sweep
// of random formulas around the phase transition and on the
// conflict-dense pigeonhole instances.
func TestResetBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	formulas := []*cnf.Formula{pigeonhole(4), pigeonhole(5)}
	for i := 0; i < 20; i++ {
		formulas = append(formulas, randomFormula(rng, 30, 120+i*2, 3))
	}
	reused := NewDefault()
	// Warm the reused solver on an unrelated instance first so its
	// backing arrays hold stale contents that Reset must neutralize.
	traceOf(reused, pigeonhole(5))
	for i, f := range formulas {
		fresh := NewDefault()
		want := traceOf(fresh, f)
		reused.Reset(DefaultOptions())
		got := traceOf(reused, f)
		sameTrace(t, want, got, "formula "+string(rune('A'+i)))
	}
}

// TestResetAfterAbort reuses a solver whose previous Solve was cut off
// mid-search by a budget, leaving a partial trail, learnt clauses, and a
// nonzero stop reason behind — Reset must clear all of it.
func TestResetAfterAbort(t *testing.T) {
	s := New(Options{Budget: budget.Budget{MaxConflicts: 3}})
	hard := pigeonhole(6)
	if !s.LoadFormula(hard) {
		t.Fatal("pigeonhole trivially unsat at load")
	}
	if st := s.Solve(); st != Unknown {
		t.Fatalf("expected budget abort, got %v", st)
	}
	if s.StopReason() == budget.None {
		t.Fatal("expected a stop reason after abort")
	}

	f := randomFormula(rand.New(rand.NewSource(11)), 25, 100, 3)
	want := traceOf(NewDefault(), f)
	s.Reset(DefaultOptions())
	if s.StopReason() != budget.None {
		t.Fatal("Reset left a stale stop reason")
	}
	got := traceOf(s, f)
	sameTrace(t, want, got, "after abort")
}

// TestResetRetainsCapacity is the point of Reset over New: the clause
// arena and watch-list backing arrays must survive at their high-water
// capacity.
func TestResetRetainsCapacity(t *testing.T) {
	s := NewDefault()
	traceOf(s, pigeonhole(6))
	arenaCap := cap(s.ca.data)
	watchCap := cap(s.watches)
	var innerCap int
	for _, w := range s.watches {
		innerCap += cap(w)
	}
	if arenaCap == 0 || innerCap == 0 {
		t.Fatal("expected nonzero capacities after a solve")
	}
	s.Reset(DefaultOptions())
	if cap(s.ca.data) != arenaCap {
		t.Fatalf("arena capacity dropped: %d -> %d", arenaCap, cap(s.ca.data))
	}
	if cap(s.watches) != watchCap {
		t.Fatalf("watch outer capacity dropped: %d -> %d", watchCap, cap(s.watches))
	}
	if s.NumVars() != 0 || s.NumClauses() != 0 || s.NumLearnts() != 0 {
		t.Fatalf("Reset left contents: vars=%d clauses=%d learnts=%d",
			s.NumVars(), s.NumClauses(), s.NumLearnts())
	}
	// Re-extend into the retained region: inner watch arrays must come
	// back with their old capacity, not nil.
	s.EnsureVars(watchCap / 2)
	var after int
	for _, w := range s.watches {
		after += cap(w)
	}
	if after != innerCap {
		t.Fatalf("inner watch capacity not retained: %d -> %d", innerCap, after)
	}
	if s.RetainedBytes() == 0 {
		t.Fatal("RetainedBytes reported zero for a warm solver")
	}
}

// TestResetOptionsNormalization mirrors New's zero-value handling:
// resource caps survive the default substitution.
func TestResetOptionsNormalization(t *testing.T) {
	s := NewDefault()
	s.Reset(Options{MaxConflicts: 7, Budget: budget.Budget{MaxDecisions: 9}})
	if s.opts.VarDecay != DefaultOptions().VarDecay {
		t.Fatalf("defaults not substituted: VarDecay=%v", s.opts.VarDecay)
	}
	if s.opts.MaxConflicts != 7 || s.opts.Budget.MaxDecisions != 9 {
		t.Fatalf("resource caps erased: %+v", s.opts)
	}
}

func TestExtendWatchListsReuse(t *testing.T) {
	ws := make([][]watcher, 0, 4)
	ws = extendWatchLists(ws)
	ws = extendWatchLists(ws)
	ws[2] = append(ws[2], watcher{c: 1}, watcher{c: 2})
	kept := cap(ws[2])
	ws = ws[:0]
	ws = extendWatchLists(ws)
	ws = extendWatchLists(ws)
	if len(ws[2]) != 0 || cap(ws[2]) != kept {
		t.Fatalf("inner slice not truncated in place: len=%d cap=%d want cap %d",
			len(ws[2]), cap(ws[2]), kept)
	}
	_ = lit.UndefLit
}
