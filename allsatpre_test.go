package allsatpre

import (
	"math/big"
	"os"
	"strings"
	"testing"
)

func TestLoadBenchAndPreimage(t *testing.T) {
	c, err := LoadBench("testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Latches) != 3 {
		t.Fatalf("s27 should have 3 latches")
	}
	r, err := Preimage(c, Options{}, "111")
	if err != nil {
		t.Fatal(err)
	}
	if r.Count == nil || r.StateSpace.Size() != 3 {
		t.Fatal("result shape")
	}
	// Cross-engine agreement through the facade.
	for _, eng := range []Engine{EngineBlocking, EngineLifting, EngineBDD} {
		r2, err := Preimage(c, Options{Engine: eng}, "111")
		if err != nil {
			t.Fatal(err)
		}
		if r.Count.Cmp(r2.Count) != 0 {
			t.Fatalf("engine %v disagrees: %v vs %v", eng, r2.Count, r.Count)
		}
	}
}

func TestLoadBenchMissingFile(t *testing.T) {
	if _, err := LoadBench("testdata/nope.bench"); err == nil {
		t.Fatal("expected error")
	}
}

func TestLoadAiger(t *testing.T) {
	c, err := LoadAiger("testdata/johnson4.aag")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Latches) != 4 || len(c.Inputs) != 0 {
		t.Fatalf("johnson4.aag shape: %v", c.Stats())
	}
	// Behaves like a Johnson counter: preimage of 1000 is {0000}.
	r, err := Preimage(c, Options{}, "1000")
	if err != nil {
		t.Fatal(err)
	}
	if r.Count.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("preimage count %v, want 1", r.Count)
	}
	if r.States.Cubes()[0].String() != "0000" {
		t.Fatalf("preimage %s, want 0000", r.States.Cubes()[0])
	}
	if _, err := LoadAiger("testdata/nope.aag"); err == nil {
		t.Fatal("expected missing-file error")
	}
	if _, err := LoadAiger("testdata/s27.bench"); err == nil {
		t.Fatal("expected parse error for BENCH content")
	}
}

func TestParseBench(t *testing.T) {
	c, err := ParseBench("mini", "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Latches) != 1 {
		t.Fatal("latch count")
	}
	if _, err := ParseBench("bad", "garbage("); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestTargetValidation(t *testing.T) {
	c := NewCounter(4, true, false)
	if _, err := Target(c, "11"); err == nil {
		t.Fatal("expected width error")
	}
	cv, err := Target(c, "1XX0", "0011")
	if err != nil || cv.Len() != 2 {
		t.Fatal("Target failed")
	}
	if _, err := Preimage(c, Options{}, "1"); err == nil {
		t.Fatal("Preimage should propagate width error")
	}
	if _, err := BackwardReach(c, Options{}, 1, "1"); err == nil {
		t.Fatal("BackwardReach should propagate width error")
	}
}

func TestFacadeBackwardReach(t *testing.T) {
	c := NewCounter(3, true, false)
	r, err := BackwardReach(c, Options{}, -1, "101")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Fixpoint || r.AllCount.Cmp(big.NewInt(8)) != 0 {
		t.Fatalf("reach: fixpoint=%v all=%v", r.Fixpoint, r.AllCount)
	}
}

func TestPreimageOf(t *testing.T) {
	c := NewShiftRegister(4)
	target, _ := Target(c, "1XXX")
	r, err := PreimageOf(c, target, Options{Engine: EngineBDD})
	if err != nil {
		t.Fatal(err)
	}
	// s0' = sin, so every state can reach s0'=1: preimage is all 16.
	if r.Count.Cmp(big.NewInt(16)) != 0 {
		t.Fatalf("count %v, want 16", r.Count)
	}
}

func TestEnumerateDimacs(t *testing.T) {
	src := "c proj 1 2\np cnf 3 2\n1 2 0\n-1 3 0\n"
	for _, eng := range []Engine{EngineSuccessDriven, EngineBlocking, EngineLifting} {
		r, err := EnumerateDimacs(strings.NewReader(src), eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Projections of models onto (x1,x2): 01, 10, 11 → 3.
		if r.Count.Cmp(big.NewInt(3)) != 0 {
			t.Fatalf("engine %v: count %v, want 3", eng, r.Count)
		}
	}
	// Explicit projection overrides the file.
	r, err := EnumerateDimacs(strings.NewReader(src), EngineSuccessDriven, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Count.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("count %v, want 2", r.Count)
	}
	// No projection info: all variables.
	r, err = EnumerateDimacs(strings.NewReader("p cnf 2 1\n1 0\n"), EngineSuccessDriven, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("count %v, want 2", r.Count)
	}
}

func TestEnumerateDimacsPreprocess(t *testing.T) {
	// Subsumed clause plus implied unit: simplification must not change
	// the projected solution set.
	src := "c proj 1 2 3\np cnf 4 4\n1 2 0\n1 2 3 0\n4 0\n-4 1 0\n"
	plain, err := EnumerateDimacsOpts(strings.NewReader(src), DimacsOptions{
		Engine: EngineSuccessDriven, Simplify: SimplifyOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	simp, err := EnumerateDimacsOpts(strings.NewReader(src), DimacsOptions{
		Engine: EngineSuccessDriven, Simplify: SimplifyOn,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Count.Cmp(simp.Count) != 0 {
		t.Fatalf("simplification changed the count: %v vs %v", plain.Count, simp.Count)
	}
	if !simp.Stats.Simplify.Applied || plain.Stats.Simplify.Applied {
		t.Fatalf("Simplify mode not honoured: off applied=%v, on applied=%v",
			plain.Stats.Simplify.Applied, simp.Stats.Simplify.Applied)
	}
	// A contradictory formula simplifies to an empty result.
	unsat := "p cnf 1 2\n1 0\n-1 0\n"
	for _, mode := range []SimplifyMode{SimplifyOff, SimplifyOn} {
		r, err := EnumerateDimacsOpts(strings.NewReader(unsat), DimacsOptions{
			Engine: EngineBlocking, Simplify: mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Count.Sign() != 0 {
			t.Fatalf("simplify %v: UNSAT formula should have an empty projection", mode)
		}
	}
}

func TestDimacsFixturesGolden(t *testing.T) {
	cases := []struct {
		file  string
		count int64
	}{
		{"testdata/parity5.cnf", 16}, // odd-parity assignments of 5 bits
		{"testdata/mux4.cnf", 8},     // every (sel, out) pair is realizable
	}
	for _, tc := range cases {
		data, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []Engine{EngineSuccessDriven, EngineBlocking, EngineLifting} {
			r, err := EnumerateDimacs(strings.NewReader(string(data)), eng, nil)
			if err != nil {
				t.Fatalf("%s/%v: %v", tc.file, eng, err)
			}
			if r.Count.Cmp(big.NewInt(tc.count)) != 0 {
				t.Fatalf("%s/%v: count %v, want %d", tc.file, eng, r.Count, tc.count)
			}
		}
	}
}

func TestEnumerateDimacsErrors(t *testing.T) {
	if _, err := EnumerateDimacs(strings.NewReader("p cnf x\n"), EngineSuccessDriven, nil); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := EnumerateDimacs(strings.NewReader("p cnf 2 0\n"), EngineSuccessDriven, []int{5}); err == nil {
		t.Fatal("expected projection range error")
	}
	if _, err := EnumerateDimacs(strings.NewReader("p cnf 2 0\n"), EngineBDD, nil); err == nil {
		t.Fatal("BDD engine should refuse raw CNF")
	}
}

func TestFacadeImageAndForwardReach(t *testing.T) {
	c := NewCounter(3, true, false)
	img, err := Image(c, Options{}, "000")
	if err != nil {
		t.Fatal(err)
	}
	if img.Count.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("image of {0} should be {0,1}: %v", img.Count)
	}
	init, _ := Target(c, "000")
	img2, err := ImageOf(c, init, Options{Engine: EngineBDD})
	if err != nil {
		t.Fatal(err)
	}
	if img2.Count.Cmp(img.Count) != 0 {
		t.Fatal("ImageOf/BDD disagrees")
	}
	fr, err := ForwardReach(c, Options{}, -1, "000")
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Fixpoint || fr.AllCount.Cmp(big.NewInt(8)) != 0 {
		t.Fatalf("forward reach: %v", fr.AllCount)
	}
	if _, err := Image(c, Options{}, "bad"); err == nil {
		t.Fatal("Image should reject bad pattern")
	}
	if _, err := ForwardReach(c, Options{}, 1, "toolongpattern"); err == nil {
		t.Fatal("ForwardReach should reject bad pattern")
	}
}

func TestFacadeCheckReachable(t *testing.T) {
	c := NewJohnson(4)
	init, _ := Target(c, "0000")
	bad, _ := Target(c, "0101")
	res, err := CheckReachable(c, init, bad, -1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable || !res.Complete {
		t.Fatalf("0101 should be provably unreachable: %+v", res)
	}
	if res.Invariant == nil {
		t.Fatal("unreachable verdict should carry an invariant")
	}
	if err := VerifyInvariant(c, init, bad, res.Invariant, Options{}); err != nil {
		t.Fatalf("facade invariant verification failed: %v", err)
	}
	// k-step one-shot preimage through the facade.
	ks, err := KStepPreimage(c, Options{}, 2, "1100")
	if err != nil {
		t.Fatal(err)
	}
	if ks.Count.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("k-step preimage count %v, want 3 (states 1100, 1000, 0000)", ks.Count)
	}
	if _, err := KStepPreimage(c, Options{}, 2, "bad!"); err == nil {
		t.Fatal("KStepPreimage should reject bad patterns")
	}
	good, _ := Target(c, "1100")
	res2, err := CheckReachable(c, init, good, -1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Reachable || res2.Trace == nil || res2.Steps != 2 {
		t.Fatalf("1100 should be reachable in 2 steps: %+v", res2)
	}
}

func TestWitnessesFacade(t *testing.T) {
	c := NewCounter(4, true, false)
	wi, err := Witnesses(c, Options{}, "0110") // state 6: witnesses (5,en=1),(6,en=0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		w, ok := wi.Next()
		if !ok {
			break
		}
		if len(w.State) != 4 || len(w.Inputs) != 1 {
			t.Fatalf("witness shape: %v %v", w.State, w.Inputs)
		}
		n++
		if n > 10 {
			t.Fatal("too many witnesses")
		}
	}
	if n == 0 {
		t.Fatal("no witnesses")
	}
	if _, err := Witnesses(c, Options{}, "01"); err == nil {
		t.Fatal("expected width error")
	}
}

func TestSimulateStep(t *testing.T) {
	c := NewCounter(4, true, false)
	_, next, err := SimulateStep(c, []bool{true, false, true, false}, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	// 5 + 1 = 6 = 0110 (LSB first).
	want := []bool{false, true, true, false}
	for i := range want {
		if next[i] != want[i] {
			t.Fatalf("next = %v, want %v", next, want)
		}
	}
	if _, _, err := SimulateStep(c, []bool{true}, []bool{true}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestGeneratorsExported(t *testing.T) {
	if NewCounter(3, true, false) == nil || NewShiftRegister(3) == nil ||
		NewLFSR(4, 0, 3) == nil || NewJohnson(3) == nil ||
		NewGrayCounter(3) == nil || NewTrafficLight() == nil {
		t.Fatal("generator exports broken")
	}
	if NewSLike(SLikeParams{Seed: 1, Inputs: 2, Latches: 2, Gates: 5}) == nil {
		t.Fatal("SLike export")
	}
	if len(BenchmarkSuite()) == 0 {
		t.Fatal("BenchmarkSuite empty")
	}
	if StateSpace(NewCounter(4, true, false)).Size() != 4 {
		t.Fatal("StateSpace export")
	}
}
