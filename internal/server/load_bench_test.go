package server

// BenchmarkServerLoad measures request throughput and per-request
// allocation under concurrent load, pooled runtime vs fresh
// build-from-scratch execution on the same shared scheduler. scripts/loadbench.sh records it as
// BENCH_7.json; one op is one complete HTTP enumeration (request,
// streamed cubes, summary trailer), fired from loadClients concurrent
// client goroutines so pooled solvers are contended the way a real
// deployment contends them.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// loadClients is the number of concurrent client goroutines per
// GOMAXPROCS slot (RunParallel semantics), so even a single-core host
// drives at least this many in-flight requests.
const loadClients = 8

// loadDimacs builds an implication-chain formula: x1 forced, x1 → x2 →
// … → x_{n-2}, and one free clause over the last two variables. The
// cover is tiny (three cubes) but the formula is wide enough that
// per-request solver construction — arena, watch lists, heap — is the
// dominant allocation cost, which is exactly what the warm pool removes.
func loadDimacs(nVars int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "p cnf %d %d\n", nVars, nVars-1)
	sb.WriteString("1 0\n")
	for v := 2; v <= nVars-2; v++ {
		fmt.Fprintf(&sb, "-%d %d 0\n", v-1, v)
	}
	fmt.Fprintf(&sb, "%d %d 0\n", nVars-1, nVars)
	return sb.String()
}

func BenchmarkServerLoad(b *testing.B) {
	dimacs := loadDimacs(160)
	// Rotate engines so the pool serves the sequential iterator path,
	// the scheduler-driven success engine, and the blocking enumerator.
	queries := []string{"engine=disjoint", "engine=success&workers=2", "engine=blocking"}

	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		// AdmissionWait keeps saturated requests queued instead of 429ing,
		// so every op measures a completed enumeration in both modes.
		{"pooled", Config{MaxConcurrent: 8, AdmissionWait: 30 * time.Second}},
		{"fresh", Config{MaxConcurrent: 8, AdmissionWait: 30 * time.Second,
			PoolBytes: -1}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			srv := New(mode.cfg)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer srv.Close()

			do := func(q string) error {
				resp, err := http.Post(ts.URL+"/v1/enumerate?"+q, "text/plain",
					strings.NewReader(dimacs))
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("status %d", resp.StatusCode)
				}
				_, err = io.Copy(io.Discard, resp.Body)
				return err
			}
			// Warm-up outside the timed region: primes the HTTP keepalive
			// connections and, in pooled mode, stocks the free-list.
			for _, q := range queries {
				if err := do(q); err != nil {
					b.Fatal(err)
				}
			}

			var seq atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.SetParallelism(loadClients)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					q := queries[seq.Add(1)%uint64(len(queries))]
					if err := do(q); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
