// Package sched is the execution engine's morsel scheduler. A query
// compiles into a chain of jobs — one per pipeline, in compile order —
// and a job's tasks (morsels) go into one FIFO queue that every worker
// pops. Job k+1 of a chain is prepared and seeded only after job k's
// Finish, so compile order is the only dependency order there is: a
// probe never starts before its build sink merged, a hash-table
// readout never before its producer. Several chains — the legs of a
// scatter-gather query — share one run, and their ready jobs interleave
// in the queue.
package sched

import (
	"context"
	"sync"
	"sync/atomic"

	"hashstash/hashstasherr"
	"hashstash/internal/faultinject"
)

// safeCall is the panic-isolation boundary for every job hook
// (Prepare/Run/Finish): an operator panic becomes a typed
// *hashstasherr.InternalError carrying the stack, failing only the run
// it belongs to instead of the process.
func safeCall(op string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = hashstasherr.Internal(op, r)
		}
	}()
	return fn()
}

// Job is one schedulable unit: NTasks independent tasks plus an
// optional Finish hook that runs exactly once after the last task
// completes (pipeline sinks merge their per-worker partials there).
type Job struct {
	// Prepare runs once when the job's turn in its chain comes — after
	// the previous job's Finish, before any task is seeded — and may set
	// NTasks/Run/Finish from state earlier jobs produced. A pipeline
	// scanning a hash table built by an earlier pipeline can only count
	// its morsels here: at plan time the table is empty. Nil for fully
	// static jobs.
	Prepare func(j *Job) error
	// NTasks is the number of independent tasks (morsels). Zero-task
	// jobs finish as soon as they are prepared.
	NTasks int
	// Run executes task task on worker worker (0 <= worker < Workers).
	// Tasks of one job may run concurrently on different workers; the
	// worker index is stable within a task and distinct across
	// concurrently-running tasks, so per-worker state needs no locks.
	Run func(worker, task int) error
	// Finish runs once after the last task, on whichever worker
	// completed it; the scheduler guarantees every Run result is
	// visible to it. Nil is allowed.
	Finish func() error
}

// Options configures a scheduler run.
type Options struct {
	// Workers is the pool size; values <= 1 run every chain on the
	// calling goroutine and start no goroutine.
	Workers int
	// Ctx aborts the run when it is canceled or its deadline passes:
	// cancellation rides the first-error-wins path (fail), so queued
	// morsels are skipped, parked workers wake and exit, and Run returns
	// an error wrapping hashstasherr.ErrCanceled and the context's own
	// cause. Nil never cancels.
	Ctx context.Context
}

// chain is one chain's progress: its jobs, the index of the job being
// seeded or run, and that job's tasks not yet completed.
type chain struct {
	jobs      []*Job
	cur       int
	remaining atomic.Int64
}

// ready is a seeded job in the queue; its tasks are handed out in index
// order starting at next.
type ready struct {
	c    *chain
	job  *Job
	next int
}

// task is one claimed unit of work.
type task struct {
	c   *chain
	job *Job
	idx int
}

type scheduler struct {
	chains []chain
	ctx    context.Context

	// mu guards queue/head/live/err; cond parks idle workers.
	mu     sync.Mutex
	cond   sync.Cond
	queue  []ready // FIFO; entries before head are drained
	head   int
	live   int // chains not yet past their last job
	err    error
	failed atomic.Bool
}

// Run executes every chain — each chain's jobs strictly one after the
// other, different chains concurrently — and blocks until all finished
// or one hook failed (the first error is returned; queued work is
// abandoned).
func Run(chains [][]*Job, opts Options) error {
	s := &scheduler{chains: make([]chain, len(chains)), ctx: opts.Ctx, live: len(chains)}
	s.cond.L = &s.mu
	for i, jobs := range chains {
		s.chains[i].jobs = jobs
	}
	// A lone worker never parks — the task that completes a job seeds
	// the chain's next one on the same goroutine — so only a pool needs
	// cancellation to wake it; next() polls the context before every
	// task either way.
	if ctx := opts.Ctx; opts.Workers > 1 && ctx != nil && ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { s.fail(hashstasherr.Canceled(ctx.Err())) })
		defer stop()
	}
	for i := range s.chains {
		s.advance(&s.chains[i])
	}

	if opts.Workers <= 1 {
		s.worker(0)
	} else {
		// The caller only waits: run as worker 0 it measured ~30 %
		// slower on a 4-worker scan-aggregate over 2 vCPUs.
		var wg sync.WaitGroup
		for w := 0; w < opts.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s.worker(w)
			}(w)
		}
		wg.Wait()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// worker is one pool member's loop: claim the next task, run it, until
// the run completes or fails.
func (s *scheduler) worker(w int) {
	// Last-resort backstop: the hooks are individually recovered in
	// safeCall, so anything reaching here is scheduler bookkeeping
	// itself panicking. fail() wakes the other workers, so they drain
	// and Run returns the error instead of the process dying.
	defer func() {
		if r := recover(); r != nil {
			s.fail(hashstasherr.Internal("sched.worker", r))
		}
	}()
	for {
		t, ok := s.next()
		if !ok {
			return
		}
		s.exec(w, t)
	}
}

// next claims the head task of the queue, parking while the queue is
// empty and some chain still has work to seed. It reports false once
// every chain is done or the run failed — including by cancellation,
// which it checks before handing out each task.
func (s *scheduler) next() (task, bool) {
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			s.fail(hashstasherr.Canceled(err))
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.err == nil && s.live > 0 {
		if s.head < len(s.queue) {
			r := &s.queue[s.head]
			t := task{c: r.c, job: r.job, idx: r.next}
			if r.next++; r.next == r.job.NTasks {
				s.head++
				if s.head == len(s.queue) {
					s.queue, s.head = s.queue[:0], 0
				}
			}
			return t, true
		}
		s.cond.Wait()
	}
	return task{}, false
}

// exec runs one task and completes its job when it was the last. After
// a failure tasks are skipped (not run), but their counters still
// drain so completion bookkeeping stays consistent.
func (s *scheduler) exec(w int, t task) {
	if !s.failed.Load() {
		if err := safeCall("sched.run", func() error { return t.job.Run(w, t.idx) }); err != nil {
			s.fail(err)
		}
	}
	// The atomic decrement orders every worker's writes (per-worker
	// sink state) before the finisher's merge.
	if t.c.remaining.Add(-1) == 0 {
		if t.job.Finish == nil || s.call("sched.finish", t.job.Finish) {
			t.c.cur++
			s.advance(t.c)
		}
	}
}

// advance seeds chain c's current job — the dispatch fault point, then
// Prepare (every earlier job of the chain has finished, so state they
// produced, such as a built hash table's entry count, is visible), then
// its tasks into the queue. Zero-task jobs finish on the spot; a chain
// past its last job retires. Nothing advances after a failure.
func (s *scheduler) advance(c *chain) {
	for ; c.cur < len(c.jobs); c.cur++ {
		j := c.jobs[c.cur]
		if !s.call("sched.dispatch", injectDispatch) {
			return
		}
		if j.Prepare != nil && !s.call("sched.prepare", func() error { return j.Prepare(j) }) {
			return
		}
		if j.NTasks > 0 {
			c.remaining.Store(int64(j.NTasks))
			s.mu.Lock()
			s.queue = append(s.queue, ready{c: c, job: j})
			s.mu.Unlock()
			s.cond.Broadcast()
			return
		}
		if j.Finish != nil && !s.call("sched.finish", j.Finish) {
			return
		}
	}
	s.mu.Lock()
	if s.live--; s.live == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

func injectDispatch() error { return faultinject.Inject(faultinject.SchedDispatch) }

// call runs one hook behind safeCall unless the run already failed,
// recording its error; it reports whether the chain may go on.
func (s *scheduler) call(op string, fn func() error) bool {
	if s.failed.Load() {
		return false
	}
	if err := safeCall(op, fn); err != nil {
		s.fail(err)
		return false
	}
	return true
}

// fail records the first error and stops the pool: queued tasks are
// skipped, parked workers wake and exit.
func (s *scheduler) fail(err error) {
	s.failed.Store(true)
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}
