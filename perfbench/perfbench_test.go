package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"allsatpre/internal/gen"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the program reports from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range b.EndToEnd {
		em := endToEndMetrics[i]
		if m.Name != em.name || m.Unit != em.unit || (m.Better == "lower") != em.lowerIsBetter || m.Bound != em.bound {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the program", i, m, em)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		if lm := layerMetrics[i]; m.Name != lm.name || m.Unit != lm.unit {
			t.Errorf("per-layer metric %d: %s (%s) in BENCHMARK.json, %s (%s) in the program", i, m.Name, m.Unit, lm.name, lm.unit)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.4, 0.41, 0.39, 0.5, 0.38, 0.42, 0.37}, [3]float64{0.38, 0.4, 0.42}},
	} {
		got := quartiles(tc.in)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 102, 98, 101, 99, 103, 97, 100, 101, 99}
	faster := make([]float64, len(parent))
	for i, v := range parent {
		faster[i] = v * 0.8
	}
	if v := judge(parent, faster, true, 0.1); v.verdict != "better" || !strings.HasPrefix(v.bound, "ok") {
		t.Errorf("20%% faster: %+v", v)
	}
	if v := judge(faster, parent, true, 0.1); v.verdict != "worse" || !strings.HasPrefix(v.bound, "exceeded") {
		t.Errorf("25%% slower: %+v", v)
	}
	// Higher is better for throughput: the faster run's smaller values lose.
	if v := judge(parent, faster, false, 0.1); v.verdict != "worse" {
		t.Errorf("throughput down 20%%: %+v", v)
	}
	same := append([]float64(nil), parent...)
	same[0], same[1] = same[1], same[0]
	if v := judge(parent, same, true, 0.1); v.verdict != "unresolved" || !strings.HasPrefix(v.bound, "ok") {
		t.Errorf("same distribution: %+v", v)
	}
	if v := judge(parent[:5], faster[:5], true, 0.1); !strings.HasPrefix(v.verdict, "unresolved") {
		t.Errorf("five pairs: %+v", v)
	}
}

// TestFailingChangeIsInvalid: a change that is faster on every pair but
// fails ops must not be judged better.
func TestFailingChangeIsInvalid(t *testing.T) {
	run := func(seed int64, ms float64, failed int) record {
		return record{
			Stamp: stamp{Workload: "reach-deep", Seed: seed},
			Result: result{Correct: failed == 0, Attempted: 100, Failed: failed,
				Metrics: map[string]metric{"op_ms.p50": {Value: ms, Unit: "ms"}}},
		}
	}
	var parent, faster, failing []record
	for s := int64(1); s <= 10; s++ {
		parent = append(parent, run(s, 100, 0))
		faster = append(faster, run(s, 50, 0))
		failing = append(failing, run(s, 50, int(s%2)))
	}
	if _, invalid := failureGate(pairRecords(parent, faster)); invalid {
		t.Error("a correct change was marked invalid")
	}
	summary, invalid := failureGate(pairRecords(parent, failing))
	if !invalid || summary != "parent 0/1000, change 5/1000" {
		t.Errorf("failing change: %q invalid=%v", summary, invalid)
	}
	dir := t.TempDir()
	write := func(name string, rs []record) string {
		path := dir + "/" + name
		for _, r := range rs {
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	var out strings.Builder
	if err := compareMain([]string{write("p", parent), write("c", failing)}, &out); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "op_ms.p50") && (strings.Contains(line, "better") || !strings.Contains(line, "invalid")) {
			t.Errorf("faster but failing change judged: %s", line)
		}
	}
}

// TestCompletedOpsOnly: failed ops are left out of the latency and
// throughput figures, so failing fast does not read as faster.
func TestCompletedOpsOnly(t *testing.T) {
	m := &measurement{window: time.Second, allocBytes: 4e6, live: []float64{1e6}}
	for i := 0; i < 4; i++ {
		m.samples = append(m.samples, sample{dur: 100 * time.Millisecond, first: 100 * time.Millisecond, ok: true})
		m.samples = append(m.samples, sample{dur: time.Millisecond, first: time.Millisecond})
	}
	r := m.endToEnd(1)
	if r.Correct || r.Attempted != 8 || r.Failed != 4 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	for name, want := range map[string]float64{"op_ms.p50": 100, "op_ms.p90": 100, "first_result_ms.p50": 100, "ops_per_s": 4, "alloc_mb_per_op": 0.5} {
		if got := r.Metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestBackwardLayers checks the explicit BFS on circuits with known
// structure: an n-bit counter is one 2^n-cycle, so from any state every
// layer holds one state.
func TestBackwardLayers(t *testing.T) {
	m, err := newExplicitModel(gen.Counter(4, false, false))
	if err != nil {
		t.Fatal(err)
	}
	layers := m.backwardLayers(patternSet(4, []string{"1010"}))
	if len(layers) != 16 {
		t.Fatalf("counter4 depth %d, want 15", len(layers)-1)
	}
	for i, n := range layers {
		if n != 1 {
			t.Errorf("layer %d has %d states, want 1", i, n)
		}
	}
}

// TestCoverCheckIgnoresOrderAndOverlap folds the same set given as
// overlapping cubes in two orders.
func TestCoverCheckIgnoresOrderAndOverlap(t *testing.T) {
	ref := patternSet(3, []string{"1XX", "X1X"})
	for _, cubes := range [][]string{{"1XX", "X1X"}, {"X1X", "11X", "1XX"}} {
		cc := newCoverCheck(ref, 3)
		for _, c := range cubes {
			cc.add(c)
		}
		if !cc.exact() {
			t.Errorf("%v: not exact", cubes)
		}
	}
	cc := newCoverCheck(ref, 3)
	cc.add("XXX")
	if cc.exact() || cc.sound {
		t.Error("XXX covers states outside the reference but checked sound")
	}
}

// TestProducibleTargetsAreReachable checks drawn targets contain a state
// the circuit produces, so every preimage is non-empty.
func TestProducibleTargetsAreReachable(t *testing.T) {
	c := gen.MultCore(4)
	m, err := newExplicitModel(c)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for k := 0; k < 20; k++ {
		p, err := producibleTarget(c, r, 3)
		if err != nil {
			t.Fatal(err)
		}
		if m.prePairs(patternSet(4, []string{p})).count() == 0 {
			t.Errorf("target %s has an empty preimage", p)
		}
	}
}
