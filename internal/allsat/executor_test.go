package allsat

// Tests for the subcube executor: the Aborted verdict of parallel runs
// whose budget is already spent when the jobs start, and goroutine
// hygiene of the private scheduler a call builds when no runtime is
// configured.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	rt "allsatpre/internal/runtime"
)

// openIterator picks the streaming iterator the server would: parallel
// for more than one worker, sequential otherwise.
func openIterator(engine string, f *cnf.Formula, space *cube.Space, opts Options) cubeIterator {
	parallel := opts.Workers > 1
	switch {
	case engine == "disjoint" && parallel:
		return NewParallelDisjointIterator(f, space, opts)
	case engine == "disjoint":
		return NewDisjointIterator(f, space, opts)
	case parallel:
		return NewParallelIterator(f, space, opts, engine == "lifting")
	default:
		return NewIterator(f, space, opts, engine == "lifting")
	}
}

// TestParallelSpentBudgetVerdict: a budget that is already spent before
// enumeration starts — a cancelled context, a past deadline, a context
// past its deadline — must abort every engine with the same verdict at
// four workers as at one, in batch and iterator form, on a private and
// on a shared scheduler. A job skipped because the context is done
// still records why.
func TestParallelSpentBudgetVerdict(t *testing.T) {
	f, space := pairsFormula(5) // 243 solutions over 10 variables
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	shared := &rt.Runtime{Sched: rt.NewScheduler(2, nil)}
	defer shared.Sched.Close()

	for _, bc := range []struct {
		name string
		b    budget.Budget
		want budget.Reason
	}{
		{"cancelled-ctx", budget.Budget{Ctx: cancelled}, budget.Cancelled},
		{"past-deadline", budget.Budget{Deadline: time.Now().Add(-time.Second)}, budget.Deadline},
		{"past-ctx-deadline", budget.Budget{Ctx: expired}, budget.Deadline},
	} {
		for _, engine := range []string{"disjoint", "blocking", "lifting"} {
			for _, run := range []*rt.Runtime{nil, shared} {
				for _, workers := range []int{1, 4} {
					opts := Options{Workers: workers, Budget: bc.b, Runtime: run}
					var res *Result
					switch engine {
					case "disjoint":
						res = EnumerateDisjoint(f.Clone(), space, opts)
					case "blocking":
						res = EnumerateBlocking(f.Clone(), space, opts)
					default:
						res = EnumerateLifting(f.Clone(), space, opts)
					}
					if !res.Aborted || res.Reason != bc.want {
						t.Errorf("%s %s batch workers=%d shared=%v: aborted=%v reason=%v count=%v, want %v",
							bc.name, engine, workers, run != nil, res.Aborted, res.Reason, res.Count, bc.want)
					}

					it := openIterator(engine, f.Clone(), space, opts)
					for {
						if _, ok := it.Next(); !ok {
							break
						}
					}
					if it.Reason() != bc.want {
						t.Errorf("%s %s iterator workers=%d shared=%v: reason=%v, want %v",
							bc.name, engine, workers, run != nil, it.Reason(), bc.want)
					}
					it.Close()
				}
			}
		}
	}
}

// TestPrivateSchedulerLeavesNoGoroutines: without a runtime, a parallel
// call runs on a private scheduler that must be gone when the call
// returns — a batch enumeration, a drained iterator (the scheduler is
// stopped after the last job, with no Stop call), and an iterator
// stopped early.
func TestPrivateSchedulerLeavesNoGoroutines(t *testing.T) {
	f, space := pairsFormula(7)
	baseline := runtime.NumGoroutine()

	res := EnumerateDisjoint(f.Clone(), space, Options{Workers: 4})
	if res.Aborted || res.Count.Int64() != 2187 {
		t.Fatalf("batch: aborted=%v count=%v, want 2187", res.Aborted, res.Count)
	}
	waitGoroutines(t, baseline)

	it := NewParallelDisjointIterator(f.Clone(), space, Options{Workers: 4})
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if it.Aborted() || n == 0 {
		t.Fatalf("drained iterator: aborted=%v reason=%v after %d cubes", it.Aborted(), it.Reason(), n)
	}
	waitGoroutines(t, baseline)

	it = NewParallelIterator(f.Clone(), space, Options{Workers: 4}, false)
	if _, ok := it.Next(); !ok {
		t.Fatalf("no first cube (%v)", it.Reason())
	}
	it.Stop()
	waitGoroutines(t, baseline)
}
