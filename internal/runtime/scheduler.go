package runtime

import (
	"sync"

	"allsatpre/internal/stats"
)

// Scheduler is the server-wide executor pool: a fixed set of N worker
// goroutines draining per-tenant job queues in round-robin order. Every
// in-flight request submits its subcube jobs here instead of spawning
// its own workers, so the goroutine population is bounded by N for any
// number of concurrent requests, and a giant enumeration cannot starve
// small ones: each dispatch round visits every tenant with pending work,
// so a tenant among T active tenants receives at least 1/T of the
// executor slots regardless of how much work the others have queued.
//
// Within one tenant, jobs run LIFO (newest first). Subcube splits push
// their children back immediately, so LIFO dispatch is depth-first over
// the guiding-path tree, which bounds the queued work. Jobs must be finite: the engine
// integrations bound each job by the split threshold, which is what
// makes the fair-share guarantee a latency bound and not just an
// eventual-progress claim (see DESIGN.md §15).
type Scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantQueue
	ring    []*tenantQueue // tenants with pending jobs, round-robin order
	next    int            // ring index of the next tenant to serve
	queued  int            // jobs currently queued across all tenants
	closed  bool
	wg      sync.WaitGroup
	workers int

	reg   *stats.Registry
	cJobs *stats.Counter
}

type tenantQueue struct {
	name   string
	jobs   []func() // LIFO: executors pop the tail
	inRing bool
}

// NewScheduler starts a scheduler with the given executor count
// (<= 0 selects runtime.GOMAXPROCS(0), decided by the caller — this
// package takes the literal value to stay deterministic in tests).
func NewScheduler(workers int, reg *stats.Registry) *Scheduler {
	if workers <= 0 {
		workers = 1
	}
	s := &Scheduler{
		tenants: make(map[string]*tenantQueue),
		workers: workers,
		reg:     reg,
	}
	s.cond = sync.NewCond(&s.mu)
	if reg != nil {
		s.cJobs = reg.Counter("runtime.sched-jobs")
		reg.SetGauge("runtime.sched-workers", int64(workers))
	}
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.executor()
	}
	return s
}

// Workers returns the executor count.
func (s *Scheduler) Workers() int { return s.workers }

// Submit queues jobs under the given tenant in one step: executors
// dispatch them in the order given, ahead of the tenant's older jobs.
// After Close, the jobs run inline on the caller (shutdown drain path)
// — they are never dropped.
func (s *Scheduler) Submit(tenant string, jobs ...func()) {
	if s.cJobs != nil {
		s.cJobs.Add(uint64(len(jobs)))
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		for _, job := range jobs {
			job()
		}
		return
	}
	tq := s.tenants[tenant]
	if tq == nil {
		tq = &tenantQueue{name: tenant}
		s.tenants[tenant] = tq
	}
	for i := len(jobs) - 1; i >= 0; i-- {
		tq.jobs = append(tq.jobs, jobs[i])
	}
	if !tq.inRing {
		tq.inRing = true
		s.ring = append(s.ring, tq)
	}
	s.queued += len(jobs)
	if s.reg != nil {
		s.reg.MaxGauge("runtime.sched-queue-peak", int64(s.queued))
	}
	s.mu.Unlock()
	for range min(len(jobs), s.workers) {
		s.cond.Signal()
	}
}

// Close stops the executors after the queues drain. Concurrent and
// later Submits run their jobs inline.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}

func (s *Scheduler) executor() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.ring) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.ring) == 0 {
			// closed and drained
			s.mu.Unlock()
			return
		}
		if s.next >= len(s.ring) {
			s.next = 0
		}
		tq := s.ring[s.next]
		n := len(tq.jobs) - 1
		job := tq.jobs[n]
		tq.jobs[n] = nil
		tq.jobs = tq.jobs[:n]
		s.queued--
		if n == 0 {
			tq.inRing = false
			s.ring = append(s.ring[:s.next], s.ring[s.next+1:]...)
			// s.next now points at the following tenant; keep it.
		} else {
			s.next++
		}
		s.mu.Unlock()
		job()
	}
}
