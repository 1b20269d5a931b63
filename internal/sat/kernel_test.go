package sat

import (
	"math/rand"
	"testing"

	"allsatpre/internal/lit"
)

// TestRetireClausesInPlace retires an activation-gated clause group the
// way the success-driven enumerator does and checks the solver side of
// the contract: every problem clause keeps its position (before and
// after compaction), the group and every learnt over the retired
// variable are gone from the watch lists and the learnt list, and the
// remaining formula still decides the same.
func TestRetireClausesInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 30; trial++ {
		nVars := 6 + rng.Intn(6)
		f := randomCNF(rng, nVars, 2*nVars, 3)
		s := FromFormula(f, Options{})
		if !s.Okay() {
			continue
		}
		act := s.NewVar()
		var group []int32
		for i := 0; i < 4; i++ {
			c := []lit.Lit{lit.Neg(act)}
			for j := 0; j < 1+rng.Intn(3); j++ {
				c = append(c, lit.New(lit.Var(rng.Intn(nVars)), rng.Intn(2) == 0))
			}
			before := s.NumClauses()
			s.AddClause(c...)
			if s.NumClauses() > before {
				group = append(group, int32(before))
			}
		}
		// Learnts with and without the activation literal, as
		// conflict analysis under the assumption act would produce.
		s.installLearnt([]lit.Lit{lit.Neg(act), lit.Pos(0)}, 2)
		s.installLearnt([]lit.Lit{lit.Neg(act), lit.Pos(1), lit.Neg(2)}, 3)
		s.installLearnt([]lit.Lit{lit.Pos(3), lit.Neg(4), lit.Pos(5)}, 3)
		n := s.NumClauses()

		if !s.AddClause(lit.Neg(act)) {
			t.Fatalf("trial %d: retiring unit made the formula UNSAT", trial)
		}
		if dropped := s.RetireClauses(group, []lit.Var{act}); dropped != 2 {
			t.Fatalf("trial %d: dropped %d learnts, want 2", trial, dropped)
		}
		if len(s.learnts) != 1 || s.ca.lit(s.learnts[0], 0) != lit.Pos(3) {
			t.Fatalf("trial %d: %d learnts kept, want only the one without act", trial, len(s.learnts))
		}
		retired := map[int32]bool{}
		for _, i := range group {
			retired[i] = true
		}
		check := func(stage string) {
			if len(s.clauses) != n {
				t.Fatalf("trial %d %s: %d problem clauses, want %d", trial, stage, len(s.clauses), n)
			}
			for i, c := range s.clauses {
				if s.ca.isDeleted(c) != retired[int32(i)] {
					t.Fatalf("trial %d %s: clause %d deleted=%v, retired=%v",
						trial, stage, i, s.ca.isDeleted(c), retired[int32(i)])
				}
			}
			checkArenaInvariants(t, s)
		}
		check("retired")
		s.garbageCollect()
		check("compacted")
		if got, want := s.Solve(), FromFormula(f, Options{}).Solve(); got != want {
			t.Fatalf("trial %d: %v after retirement, %v without the group", trial, got, want)
		}
	}
}
