// Package sched is the execution engine's morsel scheduler. A query
// compiles into a chain of jobs — one per pipeline, in compile order —
// and a job's tasks (morsels) go into one FIFO queue that every worker
// pops. Job k+1 of a chain is prepared and seeded only after job k's
// Finish, so compile order is the only dependency order there is: a
// probe never starts before its build sink merged, a hash-table
// readout never before its producer. Since one job runs at a time, the
// queue holds at most one ready job.
//
// Every run takes one path, whatever its pool size: the calling
// goroutine is worker 0 and runs the chain. The other workers start
// the first time a job with two or more tasks is seeded, and stay
// until the chain ends; a chain of one-task jobs — a point lookup's
// pipelines under the spread floor (storage.MinSpreadRows) — starts no
// goroutine and registers no cancellation hook.
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
	// Workers is the pool size. The calling goroutine runs the chain
	// as worker 0; the other Workers-1 start only when a job with two
	// or more tasks is seeded, so a chain of one-task jobs — or any
	// chain with Workers <= 1 — runs on the caller and starts no
	// goroutine.
	Workers int
	// Ctx aborts the run when it is canceled or its deadline passes:
	// cancellation rides the first-error-wins path (fail), so queued
	// morsels are skipped, parked workers wake and exit, and Run returns
	// an error wrapping hashstasherr.ErrCanceled and the context's own
	// cause. Nil never cancels.
	Ctx context.Context
}

// ready is the seeded job; its tasks are handed out in index order
// starting at next. A nil job means no task is waiting.
type ready struct {
	job  *Job
	next int
}

// task is one claimed unit of work.
type task struct {
	job *Job
	idx int
}

type scheduler struct {
	jobs    []*Job
	ctx     context.Context
	workers int
	// cur is the index of the job being seeded or run, remaining its
	// tasks not yet completed.
	cur       int
	remaining atomic.Int64

	// pool holds the workers 1..workers-1 once started; stop undoes the
	// cancellation hook registered with them. Both are written once, by
	// the caller, before any other goroutine exists.
	pool    sync.WaitGroup
	started bool
	stop    func() bool

	// mu guards queue/done/err; cond parks idle workers.
	mu     sync.Mutex
	cond   sync.Cond
	queue  ready
	done   bool // the chain is past its last job
	err    error
	failed atomic.Bool
}

// Run executes a chain's jobs strictly one after the other and blocks
// until all finished or one hook failed (the first error is returned;
// queued work is abandoned).
func Run(chain []*Job, opts Options) error {
	s := &scheduler{jobs: chain, ctx: opts.Ctx, workers: opts.Workers}
	s.cond.L = &s.mu
	s.advance()
	s.worker(0)
	s.pool.Wait()
	if s.stop != nil {
		s.stop()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// spread starts the rest of the pool, workers 1..workers-1, beside the
// caller's worker 0. advance calls it when it seeds a job of two or more
// tasks; only the caller can get there first, since no other worker
// exists yet, so the pool is added to before Run waits on it. Only a
// pool parks, so only a pool needs cancellation to wake it; next()
// polls the context before every task either way. The caller keeps
// working as worker 0 after the start rather than only waiting on a
// pool of Workers: over six alternating `explore` triples on 2 vCPUs
// the median latency_p50_ms read 4.39 ms with the caller working,
// 4.50 ms with it waiting, and 4.61 ms when every run started the
// whole pool up front.
func (s *scheduler) spread() {
	if s.started || s.workers <= 1 {
		return
	}
	s.started = true
	if ctx := s.ctx; ctx != nil && ctx.Done() != nil {
		s.stop = context.AfterFunc(ctx, func() { s.fail(hashstasherr.Canceled(ctx.Err())) })
	}
	s.pool.Add(s.workers - 1)
	for w := 1; w < s.workers; w++ {
		go func(w int) {
			defer s.pool.Done()
			s.worker(w)
		}(w)
	}
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

// next claims the next task of the ready job, parking while none is
// waiting and the chain still has work to seed. It reports false once
// the chain is done or the run failed — including by cancellation,
// which it checks before handing out each task.
func (s *scheduler) next() (task, bool) {
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			s.fail(hashstasherr.Canceled(err))
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.err == nil && !s.done {
		if r := &s.queue; r.job != nil {
			t := task{job: r.job, idx: r.next}
			if r.next++; r.next == r.job.NTasks {
				*r = ready{}
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
	if s.remaining.Add(-1) == 0 {
		if t.job.Finish == nil || s.call("sched.finish", t.job.Finish) {
			s.cur++
			s.advance()
		}
	}
}

// advance seeds the chain's current job — the dispatch fault point,
// then Prepare (every earlier job has finished, so state they produced,
// such as a built hash table's entry count, is visible), then its tasks
// into the queue. Zero-task jobs finish on the spot; past the last job
// the run is done. Nothing advances after a failure.
func (s *scheduler) advance() {
	for ; s.cur < len(s.jobs); s.cur++ {
		j := s.jobs[s.cur]
		if !s.call("sched.dispatch", injectDispatch) {
			return
		}
		if j.Prepare != nil && !s.call("sched.prepare", func() error { return j.Prepare(j) }) {
			return
		}
		if j.NTasks > 0 {
			s.remaining.Store(int64(j.NTasks))
			s.mu.Lock()
			s.queue = ready{job: j}
			s.mu.Unlock()
			s.cond.Broadcast()
			if j.NTasks >= 2 {
				s.spread()
			}
			return
		}
		if j.Finish != nil && !s.call("sched.finish", j.Finish) {
			return
		}
	}
	s.mu.Lock()
	s.done = true
	s.mu.Unlock()
	s.cond.Broadcast()
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
