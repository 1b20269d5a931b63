// Command serve runs the enumeration service: a long-lived HTTP daemon
// that streams all-SAT covers as NDJSON and keeps named incremental
// reachability sessions alive across requests.
//
// Usage:
//
//	serve [-addr :8080] [-max-concurrent N] [-max-sessions N] \
//	      [-fence-timeout 60s] [-fence-conflicts N] [-fence-cubes N] \
//	      [-admission-wait 200ms] [-admission-queue N] \
//	      [-tenant-fences SPEC] [-tenant-header X-Tenant] \
//	      [-pool-bytes N] [-sched-workers N] [-pprof] ...
//
// Requests execute on a pooled runtime: solvers and BDD managers are
// Reset and reused from a warm free-list (capped at -pool-bytes), and
// parallel subcube jobs from all in-flight requests share one
// fair-share executor pool (-sched-workers) keyed by the tenant id in
// the -tenant-header request header. At admission saturation a request
// waits up to -admission-wait in a bounded FIFO queue before 429; the
// Retry-After hint tracks the observed queue drain time.
//
// Endpoints (see the README's Serving section for curl examples):
//
//	POST   /v1/enumerate          stream DIMACS solutions as NDJSON cubes
//	POST   /v1/preimage           one-step preimage of a BENCH circuit
//	POST   /v1/sessions           create a named incremental session
//	POST   /v1/sessions/{id}/step advance one reachability frontier
//	DELETE /v1/sessions/{id}      close a session
//	GET    /v1/sessions           list live sessions
//	GET    /debug/stats           live server.* and engine counters
//	GET    /healthz               liveness probe
//
// On SIGINT/SIGTERM the daemon drains: in-flight streams finish with a
// TRUNCATED(shutdown) summary line, sessions are closed, and the
// process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"allsatpre/internal/budget"
	"allsatpre/internal/server"
	"allsatpre/internal/stats"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	maxConcurrent := flag.Int("max-concurrent", 0, "max simultaneous solves; 0 = GOMAXPROCS")
	maxSessions := flag.Int("max-sessions", server.DefaultMaxSessions, "incremental-session LRU capacity")
	maxBody := flag.Int64("max-body", server.DefaultMaxBodyBytes, "max request body bytes")
	maxWorkers := flag.Int("max-workers", 0, "per-request worker-count ceiling; 0 = GOMAXPROCS")
	grace := flag.Duration("grace", 10*time.Second, "shutdown drain grace period")
	fenceTimeout := flag.Duration("fence-timeout", 0, "per-request wall-clock ceiling clamped onto client budgets (0 = none)")
	fenceConflicts := flag.Uint64("fence-conflicts", 0, "SAT-conflict ceiling per request (0 = none)")
	fenceDecisions := flag.Uint64("fence-decisions", 0, "decision ceiling per request (0 = none)")
	fenceCubes := flag.Uint64("fence-cubes", 0, "cube ceiling per request (0 = none)")
	fenceNodes := flag.Int("fence-bdd-nodes", 0, "BDD-node ceiling per request (0 = none)")
	admissionWait := flag.Duration("admission-wait", 0,
		"how long a request may wait in the admission queue at saturation before 429 (0 = reject immediately)")
	admissionQueue := flag.Int("admission-queue", 0,
		"max requests waiting for admission at once; 0 = 2x max-concurrent")
	tenantFences := flag.String("tenant-fences", "",
		"per-tenant fence overrides, e.g. \"alice:timeout=30s,cubes=100000;bob:timeout=2s\" (see README)")
	tenantHeader := flag.String("tenant-header", "",
		"request header carrying the tenant id (default X-Tenant)")
	poolBytes := flag.Int64("pool-bytes", 0,
		"byte ceiling of the warm solver/manager pool; 0 = default (256 MiB), negative disables pooling")
	schedWorkers := flag.Int("sched-workers", 0,
		"executor count of the shared scheduler every request's subcube jobs run on; <= 0 = max-concurrent")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default)")
	flag.Parse()

	fences, err := server.ParseFenceSpec(*tenantFences)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(2)
	}

	reg := stats.NewRegistry("serve")
	srv := server.New(server.Config{
		MaxConcurrent: *maxConcurrent,
		MaxSessions:   *maxSessions,
		MaxBodyBytes:  *maxBody,
		MaxWorkers:    *maxWorkers,
		Fence: budget.Fence{
			MaxTimeout:   *fenceTimeout,
			MaxConflicts: *fenceConflicts,
			MaxDecisions: *fenceDecisions,
			MaxCubes:     *fenceCubes,
			MaxBDDNodes:  *fenceNodes,
		},
		AdmissionWait:  *admissionWait,
		AdmissionQueue: *admissionQueue,
		TenantFences:   fences,
		TenantHeader:   *tenantHeader,
		PoolBytes:      *poolBytes,
		SchedWorkers:   *schedWorkers,
		EnablePprof:    *pprofOn,
		Stats:          reg,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	// The resolved address line is load-bearing: the verify.sh smoke test
	// (and any supervisor binding port 0) scrapes it to find the port.
	fmt.Printf("serve: listening on %s\n", ln.Addr())

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("serve: %v: draining (grace %s)\n", sig, *grace)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}

	// Drain order matters: first tell in-flight streams to finish with
	// their TRUNCATED(shutdown) trailer, then wait for the connections,
	// then tear down session state.
	srv.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "serve: shutdown:", err)
	}
	srv.Close()
	fmt.Println("serve: drained")
}
