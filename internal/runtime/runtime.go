package runtime

// Runtime bundles the pooled execution substrate handed to the engine
// entry points (allsat.Options.Runtime, pool.Options.Runtime,
// preimage.Options.Runtime). A nil Pool means fresh construction; a nil
// Sched means each parallel call runs its subcube jobs on a private
// scheduler of its own (see Scheduled). Tenant labels the scheduler
// queue the request's jobs join; empty means the shared anonymous queue.
type Runtime struct {
	Pool   *Pool
	Sched  *Scheduler
	Tenant string
}

// WithTenant returns a shallow copy bound to the given tenant label.
func (r *Runtime) WithTenant(t string) *Runtime {
	if r == nil {
		return nil
	}
	c := *r
	c.Tenant = t
	return &c
}

// P returns the pool, nil-safely.
func (r *Runtime) P() *Pool {
	if r == nil {
		return nil
	}
	return r.Pool
}

// S returns the scheduler, nil-safely.
func (r *Runtime) S() *Scheduler {
	if r == nil {
		return nil
	}
	return r.Sched
}

// Scheduled returns r itself when it carries a scheduler. Otherwise it
// returns a copy (same pool and tenant) bound to a private scheduler with
// the given executor count, plus the function that stops it. The caller
// must call stop once its last job has returned, and never from inside
// a job: Scheduler.Close waits on the executors.
func (r *Runtime) Scheduled(workers int) (run *Runtime, stop func()) {
	if r.S() != nil {
		return r, func() {}
	}
	c := Runtime{}
	if r != nil {
		c = *r
	}
	c.Sched = NewScheduler(workers, nil)
	return &c, c.Sched.Close
}
