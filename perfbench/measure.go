package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// workload is one set of inputs the benchmark drives. setup builds the
// inputs and reference answers from the seed (and warms the program up);
// op runs one operation for one client and returns its samples — one per
// timed operation, two when a traced op also times the untraced call it
// replays.
type workload interface {
	setup(seed int64) error
	clients() int
	setTracer(tr *tracer)
	op(client, seq int, tracing bool) []sample
	// layers returns the workload's per-layer metrics after a traced run.
	layers(tr *tracer) map[string]float64
	failures() []string
	close()
}

// sample is one timed operation.
type sample struct {
	class  string
	dur    time.Duration
	first  time.Duration // send to first result; dur for one-shot calls
	ok     bool
	traced bool
}

// failLog collects check failures; an op whose check fails is a failed op.
type failLog struct {
	mu   sync.Mutex
	msgs []string
	n    int
}

func (f *failLog) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.msgs) < 20 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

func (f *failLog) failures() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := append([]string(nil), f.msgs...)
	if f.n > len(f.msgs) {
		out = append(out, fmt.Sprintf("... and %d more", f.n-len(f.msgs)))
	}
	return out
}

// measurement is what one timed loop observed.
type measurement struct {
	samples    []sample
	window     time.Duration
	allocBytes uint64
	// live holds the live heap, sampled every 5 ms during the loop.
	live []float64
}

const (
	metricAllocs = "/gc/heap/allocs:bytes"
	metricLive   = "/gc/heap/live:bytes"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// measure runs a closed loop: each client starts its next op when the
// previous one returns, until d has elapsed; ops started before the
// deadline run to completion. A sampler records the live heap (as
// measured at the end of each GC cycle) every 5 ms while the loop runs.
func measure(w workload, d time.Duration, tracing bool) *measurement {
	runtime.GC()
	m := &measurement{}
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			m.live = append(m.live, float64(readMetric(metricLive)))
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()

	allocs0 := readMetric(metricAllocs)
	start := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for seq := 0; time.Since(start) < d; seq++ {
				ss := w.op(client, seq, tracing)
				mu.Lock()
				m.samples = append(m.samples, ss...)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	m.window = time.Since(start)
	m.allocBytes = readMetric(metricAllocs) - allocs0
	close(stop)
	sampler.Wait()
	return m
}

func msOf(ss []sample, first bool) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		d := s.dur
		if first {
			d = s.first
		}
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// completed returns the ops, traced or untraced, that passed their checks.
func (m *measurement) completed(traced bool) []sample {
	var ss []sample
	for _, s := range m.samples {
		if s.ok && s.traced == traced {
			ss = append(ss, s)
		}
	}
	return ss
}

// opsMS returns the op times of the completed traced or untraced ops.
func (m *measurement) opsMS(traced bool) []float64 {
	return msOf(m.completed(traced), false)
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *measurement) result() result {
	r := result{Attempted: len(m.samples), Metrics: map[string]metric{}}
	for _, s := range m.samples {
		if !s.ok {
			r.Failed++
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}

// endToEnd computes the untraced run's metrics. Every op counts in
// attempted and failed, but the latency percentiles and the throughput
// are over the ops that passed their checks only: a refused, wrong or
// truncated answer meets no latency target, so a change that fails fast
// must not read as faster. A run with failures is incorrect anyway, and
// compare refuses to judge its metrics. Allocation is per attempted op.
// The heap peak is the 95th percentile of the live-heap samples: the
// maximum would hinge on where single GC cycles happened to end.
func (m *measurement) endToEnd(setupS float64) result {
	r := m.result()
	done := m.completed(false)
	vals := map[string]float64{
		"setup_s":             setupS,
		"op_ms.p50":           quantile(msOf(done, false), 0.5),
		"op_ms.p90":           quantile(msOf(done, false), 0.9),
		"ops_per_s":           float64(len(done)) / m.window.Seconds(),
		"first_result_ms.p50": quantile(msOf(done, true), 0.5),
		"alloc_mb_per_op":     float64(m.allocBytes) / float64(len(m.samples)) / 1e6,
		"peak_heap_mb":        quantile(m.live, 0.95) / 1e6,
	}
	for _, em := range endToEndMetrics {
		r.Metrics[em.name] = metric{Value: finite(vals[em.name]), Unit: em.unit}
	}
	return r
}

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// finite maps the NaN of a statistic over no completed ops to 0, which
// JSON can carry; such a run has failed ops and is incorrect anyway.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
