package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// tracer records spans around the calls the benchmark makes into each
// layer, and counts taken at the same boundaries. Spans of one op share
// the op id; Parent links a span to the one that caused it. Everything
// stays in memory until the run ends.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
	maxes  map[string]float64
	values map[string][]float64
	ops    int // traced ops so far; the last op id handed out
}

type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}, maxes: map[string]float64{},
		values: map[string][]float64{}}
}

// newOp allocates an op id and counts one traced op.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its id (0 without a tracer).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add accumulates a count; max keeps a high-water mark.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) max(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if v > t.maxes[name] {
		t.maxes[name] = v
	}
	t.mu.Unlock()
}

// observe records one latency (or other) observation for a median.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.values[name] = append(t.values[name], v)
	t.mu.Unlock()
}

// p50 is the median of the observations, 0 when there are none.
func (t *tracer) p50(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.values[name]) == 0 {
		return 0
	}
	return median(t.values[name])
}

// mean is the mean of the observations, 0 when there are none.
func (t *tracer) mean(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := 0.0
	for _, v := range t.values[name] {
		sum += v
	}
	return sum / float64(max(len(t.values[name]), 1))
}

func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

func (t *tracer) high(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.maxes[name]
}

// spanMS returns every closed span of that name, in milliseconds.
func (t *tracer) spanMS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// perOpMS is the total time spent in spans of that name divided by the
// number of traced ops: the layer's busy time per op.
func (t *tracer) perOpMS(name string) float64 {
	total := 0.0
	for _, v := range t.spanMS(name) {
		total += v
	}
	return total / float64(max(t.ops, 1))
}

func (t *tracer) perOp(name string) float64 {
	return t.count(name) / float64(max(t.ops, 1))
}

// ratio divides two counts, 0 when the base is 0.
func (t *tracer) ratio(num, den string) float64 {
	d := t.count(den)
	if d == 0 {
		return 0
	}
	return t.count(num) / d
}

func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// layerMetrics lists every per-layer metric with its unit, in the order
// BENCHMARK.json names them. A traced run reports all of them; a layer
// the workload does not reach reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"trans.encode_ms", "ms"},
	{"trans.cnf_clauses", "count"},
	{"simplify.run_ms", "ms"},
	{"simplify.vars_eliminated", "count"},
	{"simplify.clause_ratio", "ratio"},
	{"pool.enumerate_ms", "ms"},
	{"core.decisions", "count"},
	{"core.conflicts", "count"},
	{"core.memo_hit_ratio", "ratio"},
	{"pool.worker_imbalance", "ratio"},
	{"bdd.isop_ms", "ms"},
	{"bdd.isop_cubes", "count"},
	{"bdd.count_ms", "ms"},
	{"bdd.peak_nodes", "count"},
	{"cube.project_ms", "ms"},
	{"cube.reduce_ratio", "ratio"},
	{"preimage.frontier_ms", "ms"},
	{"preimage.steps", "count"},
	{"allsat.enumerate_ms.disjoint", "ms"},
	{"allsat.enumerate_ms.lifting", "ms"},
	{"allsat.enumerate_ms.blocking", "ms"},
	{"allsat.enumerate_ms.success", "ms"},
	{"sat.conflicts", "count"},
	{"sat.peak_learnt_bytes", "bytes"},
	{"server.enum_disjoint_ms.p50", "ms"},
	{"server.enum_lifting_ms.p50", "ms"},
	{"server.enum_blocking_ms.p50", "ms"},
	{"server.enum_success_ms.p50", "ms"},
	{"server.preimage_ms.p50", "ms"},
	{"server.session_ms.p50", "ms"},
	{"server.first_line_ms.p50", "ms"},
	{"server.admission_queued_ratio", "ratio"},
	{"runtime.solver_hit_ratio", "ratio"},
	{"runtime.bytes_retained", "bytes"},
	{"incr.step_ms", "ms"},
	{"incr.learned_live", "count"},
	{"incr.memo_size", "count"},
	{"trace.untraced_op_ms.p50", "ms"},
	{"trace.traced_op_ms.p50", "ms"},
	{"trace.overhead_ms", "ms"},
}

// perLayer assembles the traced run's metrics: the workload's layer
// numbers plus the tracing overhead, the traced minus the untraced op
// median over the completed ops on the same inputs in the same process.
func perLayer(w workload, tr *tracer, m *measurement) map[string]metric {
	vals := w.layers(tr)
	untraced := median(m.opsMS(false))
	traced := median(m.opsMS(true))
	vals["trace.untraced_op_ms.p50"] = untraced
	vals["trace.traced_op_ms.p50"] = traced
	vals["trace.overhead_ms"] = traced - untraced
	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		out[lm.name] = metric{Value: finite(vals[lm.name]), Unit: lm.unit}
	}
	return out
}

// preimageLayers derives the preimage-pipeline metrics from the spans and
// counts the pipeline replay recorded.
func preimageLayers(tr *tracer) map[string]float64 {
	v := map[string]float64{
		"trans.encode_ms":          tr.perOpMS("trans.encode"),
		"trans.cnf_clauses":        tr.perOp("trans.cnf_clauses"),
		"simplify.run_ms":          tr.perOpMS("simplify.run"),
		"simplify.vars_eliminated": tr.perOp("simplify.vars_eliminated"),
		"simplify.clause_ratio":    tr.ratio("simplify.clauses_after", "simplify.clauses_before"),
		"pool.enumerate_ms":        tr.perOpMS("pool.enumerate"),
		"core.decisions":           tr.perOp("core.decisions"),
		"core.conflicts":           tr.perOp("core.conflicts"),
		"core.memo_hit_ratio":      tr.ratio("core.memo_hits", "core.memo_lookups"),
		"pool.worker_imbalance":    tr.ratio("pool.max_worker_decisions", "pool.min_worker_decisions"),
		"bdd.isop_ms":              tr.perOpMS("bdd.isop"),
		"bdd.isop_cubes":           tr.perOp("bdd.isop_cubes"),
		"bdd.count_ms":             tr.perOpMS("bdd.count"),
		"bdd.peak_nodes":           tr.high("bdd.peak_nodes"),
		"cube.project_ms":          tr.perOpMS("cube.project"),
		"cube.reduce_ratio":        tr.ratio("cube.cubes_after", "cube.cubes_before"),
		"preimage.frontier_ms":     tr.perOpMS("preimage.frontier"),
		"preimage.steps":           tr.perOp("preimage.steps"),
	}
	return v
}
