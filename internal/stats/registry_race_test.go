package stats

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrentHammer drives every Registry entry point from
// eight goroutines at once while a reader snapshots the tree. It exists
// as a -race regression guard for the parallel enumeration pool, which
// publishes per-worker metrics into a shared registry: any future
// lock-coverage gap (an unguarded map write, a counter swapped for a
// plain int) fails this test under the race detector.
func TestRegistryConcurrentHammer(t *testing.T) {
	reg := NewRegistry("hammer")
	const (
		goroutines = 8
		rounds     = 500
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Half the keys are shared across goroutines (contended), half
			// are private (map-growth churn while others hold references).
			shared := "shared"
			private := fmt.Sprintf("private-%d", g)
			for i := 0; i < rounds; i++ {
				reg.Counter(shared).Inc()
				reg.Counter(private).Add(2)
				reg.SetGauge(shared, int64(i))
				reg.SetGauge(private, int64(g))
				reg.MaxGauge("max", int64(g*rounds+i))
				reg.SetFloatGauge("ratio", float64(i)/rounds)
				reg.AddDuration("busy", time.Microsecond)
				ph := reg.Phase(fmt.Sprintf("phase-%d", i%3))
				ph.Counter(shared).Inc()
				ph.MaxGauge("depth", int64(i))
				if i%50 == 0 {
					_ = reg.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()

	if got := reg.Counter("shared").Load(); got != goroutines*rounds {
		t.Errorf("shared counter = %d, want %d", got, goroutines*rounds)
	}
	for g := 0; g < goroutines; g++ {
		key := fmt.Sprintf("private-%d", g)
		if got := reg.Counter(key).Load(); got != 2*rounds {
			t.Errorf("%s = %d, want %d", key, got, 2*rounds)
		}
	}
	snap := reg.Snapshot()
	if len(snap.Phases) != 3 {
		t.Errorf("phases = %d, want 3", len(snap.Phases))
	}
	// MaxGauge keeps the maximum over all writes: g=7, i=rounds-1.
	want := fmt.Sprint(goroutines*rounds - 1)
	for _, kv := range snap.Metrics {
		if kv.Key == "max" && kv.Value != want {
			t.Errorf("max gauge = %s, want %s", kv.Value, want)
		}
	}
}

// TestRegistryIncrKeysHammer hammers the exact metric keys the
// incremental reach session (internal/incr) publishes, concurrently with
// snapshot readers. The incremental engine shares one registry between
// the session goroutine, the per-worker pool goroutines, and whatever
// reports stats at the end, so a lock-coverage regression on these keys
// surfaces here under -race before it corrupts a real run's report.
// TestRegistrySimplifyKeysHammer hammers the exact metric keys the
// projection-safe preprocessor publishes (simplify.Stats.Publish, with no
// prefix from preimage and the DIMACS entry point and with "incr." from
// the incr session), concurrently with snapshot readers — the preimage
// path records them from whichever goroutine finishes a parallel run, so
// the same lock-coverage guarantee applies.
func TestRegistrySimplifyKeysHammer(t *testing.T) {
	reg := NewRegistry("simplify-hammer")
	counters := []string{
		"simplify-runs", "simplify-vars-eliminated", "simplify-units-fixed",
		"simplify-clauses-subsumed", "simplify-lits-strengthened",
		"simplify-resolvents-added", "simplify-probes", "simplify-probe-failures",
		"simplify-clauses-removed",
		"incr.simplify-runs", "incr.simplify-vars-eliminated", "incr.simplify-units-fixed",
		"incr.simplify-clauses-subsumed", "incr.simplify-lits-strengthened",
		"incr.simplify-resolvents-added", "incr.simplify-probes", "incr.simplify-probe-failures",
		"incr.simplify-clauses-removed",
	}
	const (
		goroutines = 8
		rounds     = 300
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, k := range counters {
					reg.Counter(k).Inc()
				}
				if i%64 == 0 {
					_ = reg.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	for _, k := range counters {
		if got := reg.Counter(k).Load(); got != goroutines*rounds {
			t.Errorf("%s = %d, want %d", k, got, goroutines*rounds)
		}
	}
}

func TestRegistryIncrKeysHammer(t *testing.T) {
	reg := NewRegistry("incr-hammer")
	counters := []string{
		"incr.steps", "incr.clauses-added", "incr.clauses-retired",
		"incr.learned-dropped", "incr.act-vars-retired", "incr.memo-invalidated",
	}
	gauges := []string{
		"incr.learned-kept", "incr.learned-live", "incr.learned-live-lits",
		"incr.memo-size",
		// The sat.* arena/tier keys are recorded by preimage.recordStats
		// from whichever goroutine finishes a parallel run, like the
		// simplify keys above.
		"sat.learnts-core", "sat.learnts-tier2", "sat.learnts-local",
	}
	const (
		goroutines = 8
		rounds     = 300
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, k := range counters {
					reg.Counter(k).Inc()
				}
				for _, k := range gauges {
					reg.SetGauge(k, int64(i))
				}
				reg.AddDuration("incr.encode-saved", time.Microsecond)
				if i%64 == 0 {
					_ = reg.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	for _, k := range counters {
		if got := reg.Counter(k).Load(); got != goroutines*rounds {
			t.Errorf("%s = %d, want %d", k, got, goroutines*rounds)
		}
	}
}
