package cnf

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"allsatpre/internal/lit"
)

func mk(lits ...int) Clause {
	c := make(Clause, len(lits))
	for i, d := range lits {
		c[i] = lit.FromDimacs(d)
	}
	return c
}

func TestClauseNormalize(t *testing.T) {
	c, taut := mk(3, -1, 3, 2).Normalize()
	if taut {
		t.Fatal("unexpected tautology")
	}
	if len(c) != 3 {
		t.Fatalf("want 3 literals after dedup, got %v", c)
	}
	if _, taut := mk(1, -1, 2).Normalize(); !taut {
		t.Fatal("expected tautology")
	}
	if c, taut := mk().Normalize(); taut || len(c) != 0 {
		t.Fatal("empty clause should normalize to empty, non-tautology")
	}
}

func TestClauseEval(t *testing.T) {
	c := mk(1, -2)
	assign := make([]lit.Tern, 2)
	if c.Eval(assign) != lit.Unknown {
		t.Error("all-X clause should be Unknown")
	}
	assign[0] = lit.True
	if c.Eval(assign) != lit.True {
		t.Error("satisfied clause should be True")
	}
	assign[0] = lit.False
	assign[1] = lit.True
	if c.Eval(assign) != lit.False {
		t.Error("falsified clause should be False")
	}
	assign[1] = lit.Unknown
	if c.Eval(assign) != lit.Unknown {
		t.Error("partially falsified clause should be Unknown")
	}
}

func TestClauseEvalOutOfRangeVars(t *testing.T) {
	// Variables beyond the assignment slice behave as Unknown.
	c := mk(5)
	if got := c.Eval(nil); got != lit.Unknown {
		t.Errorf("got %v, want X", got)
	}
}

func TestClauseHasAndString(t *testing.T) {
	c := mk(1, -3)
	if !c.Has(lit.Pos(0)) || !c.Has(lit.Neg(2)) || c.Has(lit.Pos(2)) {
		t.Error("Has mismatch")
	}
	if c.String() != "(1 -3)" {
		t.Errorf("String = %q", c.String())
	}
}

func TestFormulaAddGrowsVars(t *testing.T) {
	f := New(0)
	f.Add(lit.Pos(4))
	if f.NumVars != 5 {
		t.Errorf("NumVars = %d, want 5", f.NumVars)
	}
	v := f.NewVar()
	if v != 5 || f.NumVars != 6 {
		t.Errorf("NewVar = %v NumVars=%d", v, f.NumVars)
	}
	f.AddClause(mk(10))
	if f.NumVars != 10 {
		t.Errorf("NumVars = %d, want 10", f.NumVars)
	}
}

func TestFormulaCloneIndependence(t *testing.T) {
	f := New(2)
	f.Add(lit.Pos(0), lit.Pos(1))
	g := f.Clone()
	g.Clauses[0][0] = lit.Neg(0)
	if f.Clauses[0][0] != lit.Pos(0) {
		t.Error("Clone is shallow")
	}
}

func TestFormulaEvalAndCounting(t *testing.T) {
	// (a ∨ b) ∧ (¬a ∨ c): 4 models over 3 vars? Enumerate by hand:
	// a=0: need b=1, c free -> 2 models; a=1: need c=1, b free -> 2 models.
	f := New(3)
	f.Add(lit.Pos(0), lit.Pos(1))
	f.Add(lit.Neg(0), lit.Pos(2))
	if got := f.CountModels(); got != 4 {
		t.Errorf("CountModels = %d, want 4", got)
	}
	proj := f.ProjectedModels([]lit.Var{0})
	if len(proj) != 2 {
		t.Errorf("projection onto a should have 2 entries, got %v", proj)
	}
	if f.MaxClauseLen() != 2 || f.NumLits() != 4 {
		t.Error("MaxClauseLen/NumLits mismatch")
	}
	if !strings.Contains(f.String(), "clauses=2") {
		t.Errorf("String = %q", f.String())
	}
}

func TestEnumerateModelsPanicsOnLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for >24 vars")
		}
	}()
	f := New(25)
	f.EnumerateModels(func([]bool) {})
}

func TestDimacsRoundTrip(t *testing.T) {
	f := New(4)
	f.Add(lit.Pos(0), lit.Neg(1))
	f.Add(lit.Pos(2), lit.Pos(3), lit.Neg(0))
	proj := []lit.Var{0, 2}
	s := DimacsString(f, proj)
	g, p2, err := ParseDimacsString(s)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVars != f.NumVars || len(g.Clauses) != len(f.Clauses) {
		t.Fatalf("round trip mismatch: %v vs %v", g, f)
	}
	if len(p2) != 2 || p2[0] != 0 || p2[1] != 2 {
		t.Fatalf("projection round trip mismatch: %v", p2)
	}
	for i := range f.Clauses {
		if len(f.Clauses[i]) != len(g.Clauses[i]) {
			t.Fatalf("clause %d mismatch", i)
		}
		for j := range f.Clauses[i] {
			if f.Clauses[i][j] != g.Clauses[i][j] {
				t.Fatalf("clause %d literal %d mismatch", i, j)
			}
		}
	}
}

func TestParseDimacsErrors(t *testing.T) {
	cases := []string{
		"p cnf x 3\n1 0\n",
		"p dnf 2 1\n1 0\n",
		"p cnf 2 5\n1 0\n",       // clause count mismatch
		"1 2 z 0\n",              // bad literal
		"c proj 0\np cnf 1 0\n",  // bad projection var
		"c proj 9\np cnf 2 0\n",  // projection out of range
		"c proj -2\np cnf 3 0\n", // negative projection var
	}
	for _, s := range cases {
		if _, _, err := ParseDimacsString(s); err == nil {
			t.Errorf("expected error for %q", s)
		}
	}
}

func TestParseDimacsTolerant(t *testing.T) {
	// No header, clause split over lines, trailing clause without 0.
	f, _, err := ParseDimacsString("c hello\n1 2\n-3 0\n-1 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Clauses) != 2 {
		t.Fatalf("want 2 clauses, got %d", len(f.Clauses))
	}
	if f.NumVars != 3 {
		t.Fatalf("want 3 vars, got %d", f.NumVars)
	}
}

func TestParseDimacsHeaderGrowsVars(t *testing.T) {
	f, _, err := ParseDimacsString("p cnf 10 1\n1 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumVars != 10 {
		t.Fatalf("want 10 vars from header, got %d", f.NumVars)
	}
}

func TestNormalizeQuick(t *testing.T) {
	// Normalized clause evaluates identically to the original under any
	// total assignment.
	f := func(raw []int8, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		c := make(Clause, 0, len(raw))
		for _, d := range raw {
			v := lit.Var(int(d&7) + 1)
			c = append(c, lit.New(v, d < 0))
		}
		nc, taut := c.Normalize()
		rng := rand.New(rand.NewSource(seed))
		assign := make([]lit.Tern, 10)
		for i := range assign {
			assign[i] = lit.TernOf(rng.Intn(2) == 0)
		}
		if taut {
			return c.Eval(assign) == lit.True
		}
		return c.Eval(assign) == nc.Eval(assign)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
