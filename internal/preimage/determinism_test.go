package preimage

import (
	"fmt"
	"testing"

	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	"allsatpre/internal/trans"
)

// determinismSuite is the seed-circuit subset the worker-count
// determinism tests sweep (the larger Suite members are exercised by the
// benchmarks; here runtime matters because every circuit runs at four
// worker counts).
func determinismSuite() []gen.NamedCircuit {
	return []gen.NamedCircuit{
		{Name: "counter8", Circuit: gen.Counter(8, true, false)},
		{Name: "shift8", Circuit: gen.ShiftRegister(8)},
		{Name: "lfsr8", Circuit: gen.LFSR(8, 0, 3, 4, 5)},
		{Name: "gray6", Circuit: gen.GrayCounter(6)},
		{Name: "traffic", Circuit: gen.TrafficLight()},
		{Name: "slike1", Circuit: gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60})},
		{Name: "slike2", Circuit: gen.SLike(gen.SLikeParams{Seed: 2, Inputs: 8, Latches: 8, Gates: 120})},
	}
}

// TestDeterministicCoverAcrossWorkers is the parallel-enumeration
// determinism contract: for every seed circuit the merged success-driven
// preimage cover must be bit-identical — same sorted cube list, same
// model count, same canonical BDD — across workers ∈ {1, 2, 4, 8} and
// equal to the sequential enumerator's cover.
// wideTarget builds a mostly-free target pattern (two fixed bits) so the
// preimage is non-trivial on every suite circuit — fully fixed patterns
// propagate to empty or tiny preimages on the slike instances, which
// would let the sweep pass vacuously.
func wideTarget(nL int) *cube.Cover {
	pat := make([]byte, nL)
	for i := range pat {
		pat[i] = 'X'
	}
	pat[1] = '1'
	if nL > 4 {
		pat[4] = '0'
	}
	return trans.TargetFromPatterns(nL, string(pat))
}

func TestDeterministicCoverAcrossWorkers(t *testing.T) {
	for _, nc := range determinismSuite() {
		target := wideTarget(len(nc.Circuit.Latches))

		seq, err := Compute(nc.Circuit, target, Options{})
		if err != nil {
			t.Fatal(err)
		}
		seqKeys := seq.States.SortedKeys()
		m := bdd.NewOrdered(seq.StateSpace.Vars())
		seqSet := m.FromCover(seq.States)

		for _, workers := range []int{1, 2, 4, 8} {
			par, err := Compute(nc.Circuit, target, Options{Parallel: workers})
			if err != nil {
				t.Fatal(err)
			}
			if par.Aborted {
				t.Fatalf("%s/p%d: spurious abort (%v)", nc.Name, workers, par.AbortReason)
			}
			if par.Count.Cmp(seq.Count) != 0 {
				t.Fatalf("%s/p%d: count %v, want %v", nc.Name, workers, par.Count, seq.Count)
			}
			if m.FromCover(par.States) != seqSet {
				t.Fatalf("%s/p%d: canonical state set differs", nc.Name, workers)
			}
			keys := par.States.SortedKeys()
			if len(keys) != len(seqKeys) {
				t.Fatalf("%s/p%d: %d cubes, want %d", nc.Name, workers, len(keys), len(seqKeys))
			}
			for i := range keys {
				if keys[i] != seqKeys[i] {
					t.Fatalf("%s/p%d: cube %d = %s, want %s",
						nc.Name, workers, i, keys[i], seqKeys[i])
				}
			}
		}
	}
}

// TestAbortSoundnessAcrossWorkers injects a mid-run decision budget at
// every worker count: the run must report the abort with its reason, the
// partial cover must stay a subset of the true preimage, and Count must
// be exactly the number of states that cover denotes, aborted or not. (Exact
// cube-level determinism is not promised under abort — which subcubes
// completed is scheduling-dependent — soundness and abort reporting
// are.)
func TestAbortSoundnessAcrossWorkers(t *testing.T) {
	c := gen.SLike(gen.SLikeParams{Seed: 2, Inputs: 8, Latches: 8, Gates: 120})
	// ~2k decisions sequentially, so a 10-decision budget trips mid-run.
	target := trans.TargetFromPatterns(8, "X1XXXXXX")

	full, err := Compute(c, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := bdd.NewOrdered(full.StateSpace.Vars())
	fullSet := m.FromCover(full.States)

	sawAbort := false
	for _, workers := range []int{1, 2, 4, 8} {
		par, err := Compute(c, target, Options{
			Parallel: workers,
			Budget:   budget.Budget{MaxDecisions: 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		if par.Aborted {
			sawAbort = true
			if par.AbortReason != budget.Decisions {
				t.Fatalf("p%d: abort reason %v, want decisions", workers, par.AbortReason)
			}
		}
		parSet := m.FromCover(par.States)
		if extra := m.Diff(parSet, fullSet); extra != bdd.False {
			t.Fatalf("p%d: aborted cover is not a subset of the full preimage", workers)
		}
		if n := m.SatCount(parSet); par.Count.Cmp(n) != 0 {
			t.Fatalf("p%d: count %v, cover has %v states (aborted=%v)", workers, par.Count, n, par.Aborted)
		}
	}
	if !sawAbort {
		t.Fatal("a 10-decision budget never aborted the 8-latch instance")
	}
}

// TestDeterministicStateCoverIsStateISOP pins the success-driven cover
// shape: States is the ISOP of the quantified state set ∃inputs·set, so it
// is positionally equal to the ISOP of the BDD engine's state set in a
// manager ordered by the canonical state space — at every worker count
// and under the decision-order ablations. Stats.Cubes counts that cover,
// and the WithInputs pairs denote the blocking engine's pair set.
func TestDeterministicStateCoverIsStateISOP(t *testing.T) {
	ablations := []struct {
		name                   string
		inputFirst, interleave bool
	}{
		{"state-first", false, false},
		{"input-first", true, false},
		{"interleave", false, true},
	}
	for _, nc := range determinismSuite() {
		target := wideTarget(len(nc.Circuit.Latches))
		ref, err := Compute(nc.Circuit, target, Options{Engine: EngineBDD})
		if err != nil {
			t.Fatal(err)
		}
		m := bdd.NewOrdered(ref.StateSpace.Vars())
		want := m.ISOP(m.FromCover(ref.States), ref.StateSpace).Cubes()
		blk, err := Compute(nc.Circuit, target, Options{Engine: EngineBlocking, WithInputs: true})
		if err != nil {
			t.Fatal(err)
		}
		pm := bdd.NewOrdered(blk.Pairs.Space().Vars())
		wantPairs := pm.FromCover(blk.Pairs)

		for _, ab := range ablations {
			for _, workers := range []int{1, 2, 4, 8} {
				for _, withInputs := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/p%d/inputs=%v", nc.Name, ab.name, workers, withInputs)
					got, err := Compute(nc.Circuit, target, Options{
						Parallel:        workers,
						InputFirstOrder: ab.inputFirst,
						Interleave:      ab.interleave,
						WithInputs:      withInputs,
					})
					if err != nil {
						t.Fatal(err)
					}
					if got.Aborted {
						t.Fatalf("%s: spurious abort (%v)", name, got.AbortReason)
					}
					cubes := got.States.Cubes()
					if len(cubes) != len(want) {
						t.Fatalf("%s: %d cubes, want %d", name, len(cubes), len(want))
					}
					for i := range cubes {
						if cubes[i].Key() != want[i].Key() {
							t.Fatalf("%s: cube %d = %s, want %s", name, i, cubes[i], want[i])
						}
					}
					if got.Count.Cmp(ref.Count) != 0 {
						t.Fatalf("%s: count %v, want %v", name, got.Count, ref.Count)
					}
					if got.Stats.Cubes != uint64(got.States.Len()) {
						t.Fatalf("%s: Stats.Cubes = %d, States has %d cubes", name, got.Stats.Cubes, got.States.Len())
					}
					switch {
					case !withInputs && got.Pairs != nil:
						t.Fatalf("%s: Pairs set without WithInputs", name)
					case withInputs && pm.FromCover(got.Pairs) != wantPairs:
						t.Fatalf("%s: pair set differs from the blocking engine's", name)
					}
				}
			}
		}
	}
}

// TestDeterministicCoverBlockingEngines extends the sweep to the
// blocking/lifting engines: their covers are representation-dependent in
// parallel (per-subcube solvers lift differently), so the contract is
// set-level — identical canonical BDD and count at every worker count.
func TestDeterministicCoverBlockingEngines(t *testing.T) {
	for _, nc := range []gen.NamedCircuit{
		{Name: "gray6", Circuit: gen.GrayCounter(6)},
		{Name: "slike1", Circuit: gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60})},
	} {
		target := wideTarget(len(nc.Circuit.Latches))
		for _, eng := range []Engine{EngineBlocking, EngineLifting} {
			seq, err := Compute(nc.Circuit, target, Options{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			m := bdd.NewOrdered(seq.StateSpace.Vars())
			seqSet := m.FromCover(seq.States)
			for _, workers := range []int{2, 4, 8} {
				par, err := Compute(nc.Circuit, target, Options{Engine: eng, Parallel: workers})
				if err != nil {
					t.Fatal(err)
				}
				if par.Count.Cmp(seq.Count) != 0 || m.FromCover(par.States) != seqSet {
					t.Fatalf("%s/%v/p%d: parallel state set differs", nc.Name, eng, workers)
				}
			}
		}
	}
}

// TestDeterministicCoverDisjointEngine checks the blocking-clause-free
// engine end to end: on each suite circuit its preimage must denote the
// same state set (canonical BDD and count) as the success-driven
// reference — and as the blocking baseline on one circuit — at every
// worker count, while adding zero blocking clauses.
func TestDeterministicCoverDisjointEngine(t *testing.T) {
	for _, nc := range []gen.NamedCircuit{
		{Name: "gray6", Circuit: gen.GrayCounter(6)},
		{Name: "counter8", Circuit: gen.Counter(8, true, false)},
		{Name: "slike1", Circuit: gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60})},
	} {
		target := wideTarget(len(nc.Circuit.Latches))
		ref, err := Compute(nc.Circuit, target, Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := bdd.NewOrdered(ref.StateSpace.Vars())
		refSet := m.FromCover(ref.States)

		for _, workers := range []int{1, 2, 4, 8} {
			dis, err := Compute(nc.Circuit, target, Options{Engine: EngineDisjoint, Parallel: workers})
			if err != nil {
				t.Fatal(err)
			}
			if dis.Aborted {
				t.Fatalf("%s/p%d: spurious abort (%v)", nc.Name, workers, dis.AbortReason)
			}
			if dis.Count.Cmp(ref.Count) != 0 {
				t.Fatalf("%s/p%d: count %v, want %v", nc.Name, workers, dis.Count, ref.Count)
			}
			if m.FromCover(dis.States) != refSet {
				t.Fatalf("%s/p%d: disjoint state set differs from success-driven", nc.Name, workers)
			}
			if dis.Stats.BlockingClauses != 0 {
				t.Fatalf("%s/p%d: %d blocking clauses added by the blocking-free engine",
					nc.Name, workers, dis.Stats.BlockingClauses)
			}
		}
	}

	// Cross-check against the blocking baseline on one circuit.
	c := gen.GrayCounter(6)
	target := wideTarget(6)
	blk, err := Compute(c, target, Options{Engine: EngineBlocking})
	if err != nil {
		t.Fatal(err)
	}
	dis, err := Compute(c, target, Options{Engine: EngineDisjoint})
	if err != nil {
		t.Fatal(err)
	}
	m := bdd.NewOrdered(blk.StateSpace.Vars())
	if dis.Count.Cmp(blk.Count) != 0 || m.FromCover(dis.States) != m.FromCover(blk.States) {
		t.Fatal("disjoint state set differs from blocking baseline")
	}
}

// TestDeterministicCoverBDDEngine covers the fourth engine: the sliced
// parallel BDD path must agree with the monolithic relational product.
func TestDeterministicCoverBDDEngine(t *testing.T) {
	c := gen.Counter(6, true, false)
	target := trans.TargetFromPatterns(6, "01X01X")
	seq, err := Compute(c, target, Options{Engine: EngineBDD})
	if err != nil {
		t.Fatal(err)
	}
	m := bdd.NewOrdered(seq.StateSpace.Vars())
	seqSet := m.FromCover(seq.States)
	for _, workers := range []int{2, 4, 8} {
		par, err := Compute(c, target, Options{Engine: EngineBDD, Parallel: workers})
		if err != nil {
			t.Fatal(err)
		}
		if par.Count.Cmp(seq.Count) != 0 || m.FromCover(par.States) != seqSet {
			t.Fatalf("bdd/p%d: parallel state set differs", workers)
		}
	}
}
