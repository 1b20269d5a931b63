package preimage

import (
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	"allsatpre/internal/lit"
	"allsatpre/internal/simplify"
	"allsatpre/internal/trans"
)

func loadS27(t *testing.T) *circuit.Circuit {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "s27.bench"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := circuit.ParseBenchString("s27", string(data))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var allEngines = []Engine{EngineSuccessDriven, EngineBlocking, EngineLifting, EngineBDD}

// brutePreimage computes the ground-truth preimage by exhaustive
// simulation over all (state, input) pairs. Only usable for small L+I.
func brutePreimage(t *testing.T, c *circuit.Circuit, target *cube.Cover) map[int]bool {
	t.Helper()
	sim, err := circuit.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	nL, nI := len(c.Latches), len(c.Inputs)
	if nL+nI > 22 {
		t.Fatalf("brutePreimage: %d+%d too large", nL, nI)
	}
	out := map[int]bool{}
	for sv := 0; sv < 1<<uint(nL); sv++ {
		st := make([]bool, nL)
		for i := range st {
			st[i] = sv&(1<<uint(i)) != 0
		}
		for iv := 0; iv < 1<<uint(nI); iv++ {
			in := make([]bool, nI)
			for i := range in {
				in[i] = iv&(1<<uint(i)) != 0
			}
			_, next := sim.Step(st, in)
			if target.Contains(next) {
				out[sv] = true
				break
			}
		}
	}
	return out
}

func coverSet(t *testing.T, cv *cube.Cover) map[int]bool {
	t.Helper()
	n := cv.Space().Size()
	out := map[int]bool{}
	m := make([]bool, n)
	for x := 0; x < 1<<uint(n); x++ {
		for i := 0; i < n; i++ {
			m[i] = x&(1<<uint(i)) != 0
		}
		if cv.Contains(m) {
			out[x] = true
		}
	}
	return out
}

func checkEngines(t *testing.T, tag string, c *circuit.Circuit, target *cube.Cover) {
	t.Helper()
	want := brutePreimage(t, c, target)
	for _, eng := range allEngines {
		r, err := Compute(c, target, Options{Engine: eng})
		if err != nil {
			t.Fatalf("%s/%v: %v", tag, eng, err)
		}
		got := coverSet(t, r.States)
		for x := range want {
			if !got[x] {
				t.Fatalf("%s/%v: missing state %b", tag, eng, x)
			}
		}
		for x := range got {
			if !want[x] {
				t.Fatalf("%s/%v: spurious state %b", tag, eng, x)
			}
		}
		if r.Count.Cmp(big.NewInt(int64(len(want)))) != 0 {
			t.Fatalf("%s/%v: count %v, want %d", tag, eng, r.Count, len(want))
		}
		if r.Engine != eng {
			t.Fatalf("%s: result engine mismatch", tag)
		}
	}
}

func TestCounterPreimageClosedForm(t *testing.T) {
	// Preimage of {s' = k} for an enabled counter is {k-1 (en=1), k (en=0)}.
	n := 4
	c := gen.Counter(n, true, false)
	for _, k := range []int{0, 1, 7, 15} {
		pat := make([]byte, n)
		for i := 0; i < n; i++ {
			if k&(1<<uint(i)) != 0 {
				pat[i] = '1'
			} else {
				pat[i] = '0'
			}
		}
		target := trans.TargetFromPatterns(n, string(pat))
		for _, eng := range allEngines {
			r, err := Compute(c, target, Options{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			if r.Count.Cmp(big.NewInt(2)) != 0 {
				t.Fatalf("engine %v target %d: count %v, want 2", eng, k, r.Count)
			}
			got := coverSet(t, r.States)
			prev := (k - 1 + (1 << uint(n))) % (1 << uint(n))
			if !got[prev] || !got[k] {
				t.Fatalf("engine %v target %d: preimage %v, want {%d,%d}", eng, k, got, prev, k)
			}
		}
	}
}

func TestS27AllEnginesAgainstBruteForce(t *testing.T) {
	c := loadS27(t)
	targets := []*cube.Cover{
		trans.TargetFromPatterns(3, "1XX"),
		trans.TargetFromPatterns(3, "111"),
		trans.TargetFromPatterns(3, "000", "110"),
		trans.TargetFromPatterns(3, "X0X"),
		trans.TargetFromPatterns(3, "XXX"),
	}
	for i, target := range targets {
		checkEngines(t, "s27-"+string(rune('a'+i)), c, target)
	}
}

func TestSuiteCircuitsAllEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cases := []*circuit.Circuit{
		gen.Counter(5, true, false),
		gen.ShiftRegister(5),
		gen.LFSR(5, 0, 2),
		gen.Johnson(5),
		gen.GrayCounter(4),
		gen.TrafficLight(),
		gen.SLike(gen.SLikeParams{Seed: 11, Inputs: 4, Latches: 5, Gates: 30}),
		gen.SLike(gen.SLikeParams{Seed: 12, Inputs: 5, Latches: 6, Gates: 50, XorFraction: 0.4}),
	}
	for _, c := range cases {
		nL := len(c.Latches)
		// Two random targets per circuit.
		for rep := 0; rep < 2; rep++ {
			pat := make([]byte, nL)
			for i := range pat {
				pat[i] = "01X"[rng.Intn(3)]
			}
			target := trans.TargetFromPatterns(nL, string(pat))
			checkEngines(t, c.Name, c, target)
		}
	}
}

func TestEmptyTargetEmptyPreimage(t *testing.T) {
	c := gen.Counter(4, true, false)
	sp := cube.NewSpace([]lit.Var{0, 1, 2, 3})
	empty := cube.NewCover(sp)
	for _, eng := range allEngines {
		r, err := Compute(c, empty, Options{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if r.Count.Sign() != 0 || r.States.Len() != 0 {
			t.Fatalf("engine %v: empty target should have empty preimage", eng)
		}
	}
}

func TestFullTargetFullPreimage(t *testing.T) {
	// Every state has a successor, so the preimage of "all states" is all
	// states.
	c := gen.Counter(4, true, false)
	target := trans.TargetFromPatterns(4, "XXXX")
	for _, eng := range allEngines {
		r, err := Compute(c, target, Options{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if r.Count.Cmp(big.NewInt(16)) != 0 {
			t.Fatalf("engine %v: count %v, want 16", eng, r.Count)
		}
	}
}

func TestWithInputsPairs(t *testing.T) {
	// Counter: target {s'=5}; the witness pairs are (4, en=1) and (5, en=0).
	c := gen.Counter(3, true, false)
	target := trans.TargetFromPatterns(3, "101")
	r, err := Compute(c, target, Options{Engine: EngineSuccessDriven, WithInputs: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Pairs == nil {
		t.Fatal("Pairs missing")
	}
	if r.Pairs.Space().Size() != 4 {
		t.Fatalf("pair space size %d, want 4", r.Pairs.Space().Size())
	}
	got := coverSet(t, r.Pairs)
	// positions: s0,s1,s2,en → value bits in that order
	want := map[int]bool{
		0b0100: true, // s=001₂ reversed... s0=0,s1=0,s2=1 (state 4), en=1 → bits s0..s2,en = 0,0,1,1 = 0b1100
	}
	_ = want
	// Compute expected directly: (state=4, en=1) → s0=0,s1=0,s2=1,en=1 → x = 0b1100 = 12
	// (state=5, en=0) → s0=1,s1=0,s2=1,en=0 → x = 0b0101 = 5
	expect := map[int]bool{12: true, 5: true}
	for x := range expect {
		if !got[x] {
			t.Fatalf("missing pair %04b in %v", x, got)
		}
	}
	for x := range got {
		if !expect[x] {
			t.Fatalf("spurious pair %04b", x)
		}
	}
	// State projection must still be {4, 5}.
	states := coverSet(t, r.States)
	if !states[4] || !states[5] || len(states) != 2 {
		t.Fatalf("states = %v", states)
	}
}

func TestDecisionOrderAblationsAgree(t *testing.T) {
	c := gen.SLike(gen.SLikeParams{Seed: 21, Inputs: 5, Latches: 5, Gates: 40})
	target := trans.TargetFromPatterns(5, "1X0X1")
	var counts []*big.Int
	for _, opt := range []Options{
		{Engine: EngineSuccessDriven},
		{Engine: EngineSuccessDriven, InputFirstOrder: true},
		{Engine: EngineSuccessDriven, Interleave: true},
	} {
		r, err := Compute(c, target, opt)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, r.Count)
	}
	if counts[0].Cmp(counts[1]) != 0 || counts[0].Cmp(counts[2]) != 0 {
		t.Fatalf("ablation orders disagree: %v", counts)
	}
}

func TestUnknownEngineError(t *testing.T) {
	c := gen.Counter(2, true, false)
	target := trans.TargetFromPatterns(2, "11")
	if _, err := Compute(c, target, Options{Engine: Engine(42)}); err == nil {
		t.Fatal("expected error for unknown engine")
	}
	if Engine(42).String() == "" {
		t.Fatal("Engine.String on unknown")
	}
	for _, e := range allEngines {
		if e.String() == "" {
			t.Fatal("empty engine name")
		}
	}
}

func TestBDDEngineTargetMismatch(t *testing.T) {
	c := gen.Counter(3, true, false)
	if _, err := Compute(c, trans.TargetFromPatterns(2, "11"), Options{Engine: EngineBDD}); err == nil {
		t.Fatal("expected width error")
	}
}

func TestStateSpaceNames(t *testing.T) {
	c := loadS27(t)
	sp := StateSpace(c)
	if sp.Name(0) != "G5" || sp.Name(1) != "G6" || sp.Name(2) != "G7" {
		t.Fatalf("latch names: %s %s %s", sp.Name(0), sp.Name(1), sp.Name(2))
	}
}

func TestSuccessDrivenCacheActivity(t *testing.T) {
	// A shift register's preimage search has heavily repeated subproblems.
	// Simplification is off: this test pins the memo accounting of the raw
	// enumerator, and preprocessing collapses the shift CNF to units that
	// never consult the cache.
	c := gen.ShiftRegister(8)
	target := trans.TargetFromPatterns(8, "1XXXXXX1")
	r, err := Compute(c, target, Options{Engine: EngineSuccessDriven, Simplify: simplify.Off})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.CacheLookups == 0 {
		t.Error("no cache lookups recorded")
	}
}

// TestSuccessDrivenLearntCounters pins how the success-driven engine
// reports its clause database: its conflict clauses are learnts in the
// solver's tiered database, counted in PeakLearnts like every other SAT
// engine's, and it adds no blocking clauses.
func TestSuccessDrivenLearntCounters(t *testing.T) {
	c := gen.MultCore(6)
	r, err := Compute(c, trans.TargetFromPatterns(len(c.Latches), "101101"),
		Options{Engine: EngineSuccessDriven})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Conflicts == 0 {
		t.Fatal("no conflicts: the instance no longer exercises learning")
	}
	if r.Stats.BlockingClauses != 0 || r.Stats.BlockingLits != 0 {
		t.Fatalf("BlockingClauses = %d, BlockingLits = %d, want 0",
			r.Stats.BlockingClauses, r.Stats.BlockingLits)
	}
	if r.Stats.PeakLearnts == 0 || r.Stats.PeakLearntBytes == 0 {
		t.Fatalf("PeakLearnts = %d, PeakLearntBytes = %d, want > 0",
			r.Stats.PeakLearnts, r.Stats.PeakLearntBytes)
	}
}
