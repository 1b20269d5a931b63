package runtime

import (
	"fmt"
	"sync"
	"testing"

	"allsatpre/internal/cnf"
	"allsatpre/internal/lit"
	"allsatpre/internal/sat"
	"allsatpre/internal/stats"
)

func warmSolver(t *testing.T) *sat.Solver {
	t.Helper()
	f := cnf.New(4)
	f.Add(lit.New(0, false), lit.New(1, false))
	f.Add(lit.New(1, true), lit.New(2, false), lit.New(3, false))
	s := sat.FromFormula(f, sat.DefaultOptions())
	if s.Solve() != sat.Sat {
		t.Fatal("warm formula should be SAT")
	}
	return s
}

// metric fetches a rendered metric value from a registry snapshot.
func metric(t *testing.T, reg *stats.Registry, key string) string {
	t.Helper()
	for _, kv := range reg.Snapshot().Metrics {
		if kv.Key == key {
			return kv.Value
		}
	}
	return ""
}

func TestPoolSolverRoundTrip(t *testing.T) {
	reg := stats.NewRegistry("test")
	p := NewPool(PoolOptions{Stats: reg})
	s := warmSolver(t)
	p.ReleaseSolver(s)
	if p.RetainedBytes() == 0 {
		t.Fatal("released solver not accounted")
	}
	got := p.AcquireSolver(sat.DefaultOptions(), 0)
	if got != s {
		t.Fatal("expected the parked solver back")
	}
	if got.NumVars() != 0 || got.NumClauses() != 0 {
		t.Fatal("acquired solver not reset")
	}
	if p.RetainedBytes() != 0 {
		t.Fatal("bytes not released on acquire")
	}
	// Second acquire misses.
	fresh := p.AcquireSolver(sat.DefaultOptions(), 0)
	if fresh == s {
		t.Fatal("double-acquired the same solver")
	}
	if metric(t, reg, "runtime.solver-hits") != "1" || metric(t, reg, "runtime.solver-misses") != "1" {
		t.Fatalf("hit/miss counters wrong: %+v", reg.Snapshot().Metrics)
	}
}

func TestPoolManagerRoundTrip(t *testing.T) {
	p := NewPool(PoolOptions{})
	order := []lit.Var{0, 1, 2}
	m := p.AcquireManager(order, 0)
	m.Var(lit.Var(1))
	p.ReleaseManager(m)
	got := p.AcquireManager(order, 0)
	if got != m {
		t.Fatal("expected the parked manager back")
	}
	if got.NumNodes() != 2 {
		t.Fatalf("acquired manager not reset: %d nodes", got.NumNodes())
	}
}

func TestPoolByteCeiling(t *testing.T) {
	reg := stats.NewRegistry("test")
	p := NewPool(PoolOptions{MaxBytes: 1, Stats: reg})
	p.ReleaseSolver(warmSolver(t))
	p.ReleaseSolver(warmSolver(t))
	if got := p.RetainedBytes(); got > 1 {
		t.Fatalf("ceiling not enforced: %d bytes retained", got)
	}
	if v := metric(t, reg, "runtime.trims"); v == "" || v == "0" {
		t.Fatal("trims not counted")
	}
}

func TestPoolNilSafe(t *testing.T) {
	var p *Pool
	s := p.AcquireSolver(sat.DefaultOptions(), 0)
	if s == nil {
		t.Fatal("nil pool must construct fresh")
	}
	p.ReleaseSolver(s)
	m := p.AcquireManager([]lit.Var{0}, 0)
	if m == nil {
		t.Fatal("nil pool must construct fresh manager")
	}
	p.ReleaseManager(m)
	if p.RetainedBytes() != 0 {
		t.Fatal("nil pool retains nothing")
	}
}

func TestPoolSizeClassPreference(t *testing.T) {
	p := NewPool(PoolOptions{})
	small := warmSolver(t)
	big := warmSolver(t)
	// Grow big well past small.
	f := cnf.New(2000)
	for i := 0; i < 1999; i++ {
		f.Add(lit.New(lit.Var(i), false), lit.New(lit.Var(i+1), true))
	}
	big.AddFormula(f)
	p.ReleaseSolver(small)
	p.ReleaseSolver(big)
	got := p.AcquireSolver(sat.DefaultOptions(), big.RetainedBytes())
	if got != big {
		t.Fatal("size-class match should prefer the big solver for a big hint")
	}
}

func TestSchedulerFairShare(t *testing.T) {
	s := NewScheduler(1, nil)
	defer s.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	s.Submit("warm", func() { close(started); <-gate })
	<-started // the single executor is now parked inside a job

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	record := func(who string) func() {
		wg.Add(1)
		return func() {
			mu.Lock()
			order = append(order, who)
			mu.Unlock()
			wg.Done()
		}
	}
	for i := 0; i < 50; i++ {
		s.Submit("hog", record("hog"))
	}
	s.Submit("mouse", record("mouse"))
	close(gate)
	wg.Wait()

	pos := -1
	for i, who := range order {
		if who == "mouse" {
			pos = i
			break
		}
	}
	if pos < 0 || pos > 1 {
		t.Fatalf("mouse dispatched at position %d; fair share demands one of the first two slots", pos)
	}
}

func TestSchedulerCloseDrains(t *testing.T) {
	s := NewScheduler(2, nil)
	var ran sync.WaitGroup
	for i := 0; i < 20; i++ {
		ran.Add(1)
		s.Submit("t", func() { ran.Done() })
	}
	s.Close()
	ran.Wait() // Close must not strand queued jobs

	// After Close, Submit degrades to inline execution.
	done := false
	s.Submit("t", func() { done = true })
	if !done {
		t.Fatal("post-Close Submit did not run inline")
	}
}

func TestRuntimeNilSafe(t *testing.T) {
	var r *Runtime
	if r.P() != nil || r.S() != nil || r.WithTenant("x") != nil {
		t.Fatal("nil Runtime accessors must all be nil")
	}
	r2 := (&Runtime{}).WithTenant("a")
	if r2.Tenant != "a" {
		t.Fatal("WithTenant did not bind")
	}
}

// TestSchedulerBatchOrder: a batch is queued in one step and dispatched
// in the order given, ahead of the tenant's older jobs — even while
// idle executors are ready to grab its first job mid-submission.
func TestSchedulerBatchOrder(t *testing.T) {
	s := NewScheduler(1, nil)
	defer s.Close()

	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	job := func(i int) func() {
		wg.Add(1)
		return func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			wg.Done()
		}
	}
	gate := make(chan struct{})
	started := make(chan struct{})
	s.Submit("t", func() { close(started); <-gate })
	<-started
	s.Submit("t", job(9))
	s.Submit("t", job(0), job(1), job(2))
	close(gate)
	wg.Wait()
	if want := []int{0, 1, 2, 9}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
}

// TestScheduledPrivate: a runtime without a scheduler gets a private one
// (keeping its pool and tenant) that the returned stop shuts down; a
// runtime with one is returned as is.
func TestScheduledPrivate(t *testing.T) {
	pool := NewPool(PoolOptions{})
	base := &Runtime{Pool: pool, Tenant: "a"}
	run, stop := base.Scheduled(2)
	if run == base || run.Sched == nil || run.Pool != pool || run.Tenant != "a" || base.Sched != nil {
		t.Fatalf("private runtime %+v from %+v", run, base)
	}
	stop()
	var none *Runtime
	run, stop = none.Scheduled(1)
	if run.Sched == nil || run.Pool != nil {
		t.Fatalf("nil runtime: got %+v", run)
	}
	stop()
	shared, stopShared := run.Scheduled(4)
	if shared != run {
		t.Fatal("a runtime with a scheduler must be used as is")
	}
	stopShared()
}
