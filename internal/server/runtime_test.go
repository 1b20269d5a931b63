package server

// Tests for the pooled-runtime serving features: the admission wait
// queue, per-tenant fences, the fence-spec parser, pprof gating, and
// end-to-end equivalence of pooled vs fresh-construction execution.

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"allsatpre/internal/budget"
	"allsatpre/internal/stats"
)

func TestParseFenceSpec(t *testing.T) {
	got, err := ParseFenceSpec("alice:timeout=30s,cubes=100000; bob:conflicts=5000,bdd-nodes=200,decisions=7")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]budget.Fence{
		"alice": {MaxTimeout: 30 * time.Second, MaxCubes: 100000},
		"bob":   {MaxConflicts: 5000, MaxBDDNodes: 200, MaxDecisions: 7},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d tenants, want %d", len(got), len(want))
	}
	for k, f := range want {
		if got[k] != f {
			t.Fatalf("tenant %q: got %+v, want %+v", k, got[k], f)
		}
	}
	if got, err := ParseFenceSpec("  "); err != nil || got != nil {
		t.Fatalf("empty spec: got %v, %v; want nil, nil", got, err)
	}
	for _, bad := range []string{
		"noseparator",
		"alice:cubes",
		"alice:cubes=abc",
		"alice:timeout=-3s",
		"alice:warp=9",
		"a:cubes=1;a:cubes=2",
	} {
		if _, err := ParseFenceSpec(bad); err == nil {
			t.Fatalf("spec %q: expected an error", bad)
		}
	}
}

// TestAdmissionQueueAdmitsWhenSlotFrees: with AdmissionWait set, a
// request arriving at a saturated gate waits instead of bouncing, and
// completes once the slot holder finishes.
func TestAdmissionQueueAdmitsWhenSlotFrees(t *testing.T) {
	reg := stats.NewRegistry("test")
	srv := New(Config{MaxConcurrent: 1, AdmissionWait: 15 * time.Second, Stats: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Hold the only slot with an endless stream.
	holder, err := http.Post(ts.URL+"/v1/enumerate?engine=blocking", "text/plain",
		strings.NewReader(wideDimacs(40)))
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(holder.Body)
	decodeLine(t, sc) // header: the slot is definitely held now

	type outcome struct {
		status int
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/enumerate", "text/plain",
			strings.NewReader("p cnf 2 1\n1 2 0\n"))
		if err != nil {
			done <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		done <- outcome{status: resp.StatusCode}
	}()

	waitCounter(t, reg, "server.queue-entered", 1)
	select {
	case o := <-done:
		t.Fatalf("queued request finished while the slot was held: %+v", o)
	default:
	}
	holder.Body.Close() // cancels the endless solve, freeing the slot
	select {
	case o := <-done:
		if o.err != nil || o.status != http.StatusOK {
			t.Fatalf("queued request: %+v, want 200", o)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("queued request never admitted after the slot freed")
	}
	if got := reg.Counter("server.rejected").Load(); got != 0 {
		t.Fatalf("server.rejected = %d, want 0", got)
	}
}

// TestAdmissionQueueCapRejects: once the wait queue itself is full, the
// next request gets the immediate 429 (with a Retry-After hint).
func TestAdmissionQueueCapRejects(t *testing.T) {
	reg := stats.NewRegistry("test")
	srv := New(Config{
		MaxConcurrent: 1, AdmissionWait: 15 * time.Second, AdmissionQueue: 1,
		Stats: reg,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	holder, err := http.Post(ts.URL+"/v1/enumerate?engine=blocking", "text/plain",
		strings.NewReader(wideDimacs(40)))
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Body.Close()
	sc := bufio.NewScanner(holder.Body)
	decodeLine(t, sc)

	// Fill the one queue slot with a second request.
	go http.Post(ts.URL+"/v1/enumerate", "text/plain",
		strings.NewReader("p cnf 2 1\n1 2 0\n"))
	waitCounter(t, reg, "server.queue-entered", 1)

	third, err := http.Post(ts.URL+"/v1/enumerate", "text/plain",
		strings.NewReader("p cnf 2 1\n1 2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer third.Body.Close()
	if third.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue request: status %d, want 429", third.StatusCode)
	}
	if third.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
}

// TestTenantFenceClampsPerTenant: a tenant listed in TenantFences gets
// its own ceilings; everyone else keeps the global fence.
func TestTenantFenceClampsPerTenant(t *testing.T) {
	srv := New(Config{
		TenantFences: map[string]budget.Fence{"capped": {MaxCubes: 2}},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	enumerate := func(tenant string) (cubes int, reason string) {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/enumerate?engine=disjoint",
			strings.NewReader("p cnf 3 1\n1 2 3 0\n"))
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for {
			ev := decodeLine(t, sc)
			switch ev.Type {
			case "cube":
				cubes++
			case "summary":
				return cubes, ev.Reason
			}
		}
	}

	if n, reason := enumerate("capped"); n > 2 || reason != "cube-limit" {
		t.Fatalf("capped tenant: %d cubes, reason %q; want <=2 and \"cube-limit\"", n, reason)
	}
	if n, reason := enumerate("other"); reason != "" || n == 0 {
		t.Fatalf("unlisted tenant: %d cubes, reason %q; want a complete cover", n, reason)
	}
}

func TestPprofGatedByConfig(t *testing.T) {
	off := httptest.NewServer(New(Config{}).Handler())
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof reachable without EnablePprof")
	}

	on := httptest.NewServer(New(Config{EnablePprof: true}).Handler())
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with EnablePprof: status %d, want 200", resp.StatusCode)
	}
}

// TestPooledServerEquivalentStreams: the same request sequence against a
// pooled server (warm free-list, the default) and a fresh-construction
// server (PoolBytes: -1) must stream the same cubes — and the pooled
// server must actually hit its warm pool on repeat requests. Sequential
// and success-engine streams must match cube for cube. The arrival order
// of parallel disjoint/blocking/lifting streams is unspecified (jobs
// interleave on the scheduler), so those compare as sorted multisets.
// The summary's cube and minterm counts compare exactly; its search
// counters (solutions, decisions) depend on which subcubes a failed
// assumption pruned first, so they are not compared.
func TestPooledServerEquivalentStreams(t *testing.T) {
	regPooled := stats.NewRegistry("pooled")
	pooled := New(Config{MaxConcurrent: 4, Stats: regPooled})
	fresh := New(Config{MaxConcurrent: 4, PoolBytes: -1})
	tsPooled := httptest.NewServer(pooled.Handler())
	defer tsPooled.Close()
	defer pooled.Close()
	tsFresh := httptest.NewServer(fresh.Handler())
	defer tsFresh.Close()
	defer fresh.Close()

	dimacs := "p cnf 6 3\n1 2 3 0\n-1 4 0\n2 -5 6 0\n"
	stream := func(base, query string) ([]string, event) {
		resp, err := http.Post(base+"/v1/enumerate?"+query, "text/plain",
			strings.NewReader(dimacs))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var cubes []string
		sc := bufio.NewScanner(resp.Body)
		for {
			ev := decodeLine(t, sc)
			if ev.Type == "summary" {
				if ev.Truncated {
					t.Fatalf("unexpected truncation: %q", ev.Reason)
				}
				return cubes, ev
			}
			if ev.Type == "cube" {
				cubes = append(cubes, ev.Cube)
			}
		}
	}

	for _, tc := range []struct {
		query   string
		ordered bool
	}{
		{"engine=disjoint", true}, {"engine=disjoint&workers=4", false},
		{"engine=success", true}, {"engine=success&workers=4", true},
		{"engine=blocking&workers=2", false}, {"engine=lifting", true},
	} {
		for rep := 0; rep < 2; rep++ { // second pass runs on warm state
			got, gotSum := stream(tsPooled.URL, tc.query)
			want, wantSum := stream(tsFresh.URL, tc.query)
			if !tc.ordered {
				sort.Strings(got)
				sort.Strings(want)
			}
			if strings.Join(got, "|") != strings.Join(want, "|") {
				t.Fatalf("%s rep %d: pooled stream differs from fresh\npooled: %v\nfresh:  %v",
					tc.query, rep, got, want)
			}
			if gotSum.Cubes != wantSum.Cubes || gotSum.Count != wantSum.Count {
				t.Fatalf("%s rep %d: pooled summary %+v, fresh %+v", tc.query, rep, gotSum, wantSum)
			}
		}
	}
	if reg := regPooled; reg.Counter("runtime.solver-hits").Load() == 0 {
		t.Fatal("pooled server never reused a warm solver")
	}
}
