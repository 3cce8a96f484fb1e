package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hashstash/hashstasherr"
	"hashstash/internal/testutil"
)

// TestCancelStopsDispatch: canceling Options.Ctx mid-run fails the
// run — tasks claimed after the cancellation are skipped, and Run
// reports an error satisfying both errors.Is(hashstasherr.ErrCanceled)
// and errors.Is(context.Canceled). On the caller alone the cancel lands
// between two one-task jobs; in a started pool it lands while every
// worker is inside a task.
func TestCancelStopsDispatch(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			const workers, n = 2, 64
			inFlight := workers
			if m.tasks == 1 {
				inFlight = 1
			}
			ctx, cancel := context.WithCancel(context.Background())
			release := make(chan struct{})
			running := make(chan struct{}, n)
			var ran atomic.Int64
			jobs := chainOf(n, m.tasks, func(int) error {
				ran.Add(1)
				running <- struct{}{}
				<-release // hold the worker until the test releases it
				return nil
			})

			go func() {
				// Wait until every running worker is inside a task,
				// cancel, then release the workers.
				for i := 0; i < inFlight; i++ {
					<-running
				}
				cancel()
				time.Sleep(100 * time.Millisecond)
				close(release)
			}()

			err := Run(jobs, Options{Workers: workers, Ctx: ctx})
			if err == nil {
				t.Fatal("Run returned nil after cancellation")
			}
			if !errors.Is(err, hashstasherr.ErrCanceled) {
				t.Fatalf("error %v does not wrap hashstasherr.ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v does not wrap context.Canceled", err)
			}
			// The tasks in flight at cancellation time finish; everything
			// still queued is skipped.
			if got := ran.Load(); got >= n {
				t.Fatalf("all %d tasks ran despite cancellation", got)
			}
		})
	}
}

// TestCancelSerial: a run observes a pre-canceled context before
// dispatching any task, on one worker and on a pool, whether or not its
// first job would start the pool.
func TestCancelSerial(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					testutil.CheckGoroutines(t)
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					var ran atomic.Int64
					jobs := chainOf(8, m.tasks, func(int) error { ran.Add(1); return nil })
					err := Run(jobs, Options{Workers: workers, Ctx: ctx})
					if !errors.Is(err, hashstasherr.ErrCanceled) {
						t.Fatalf("run under canceled ctx returned %v", err)
					}
					if ran.Load() != 0 {
						t.Fatalf("%d tasks ran under a pre-canceled context", ran.Load())
					}
				})
			}
		})
	}
}

// TestSingleWorkerInline: a run that never starts the pool — Workers 1,
// or a pool of four given only one-task jobs — runs the chain on the
// calling goroutine: no goroutine exists during or after the run that
// did not exist before it, even when the context is canceled mid-run,
// and the run still stops between tasks once the context is canceled.
func TestSingleWorkerInline(t *testing.T) {
	for _, tc := range []struct {
		name           string
		workers, tasks int
	}{
		{"workers=1", 1, 8},
		{"one-task-jobs", 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			before := runtime.NumGoroutine()
			var ran, extra atomic.Int64
			jobs := chainOf(24, tc.tasks, func(int) error {
				if n := runtime.NumGoroutine(); n > before {
					extra.Store(int64(n - before))
				}
				if ran.Add(1) == 3 {
					cancel()
				}
				return nil
			})
			err := Run(jobs, Options{Workers: tc.workers, Ctx: ctx})
			if !errors.Is(err, hashstasherr.ErrCanceled) {
				t.Fatalf("got %v, want ErrCanceled", err)
			}
			if got := ran.Load(); got != 3 {
				t.Fatalf("%d tasks ran, want 3 (the cancel lands between tasks)", got)
			}
			if n := extra.Load(); n != 0 {
				t.Fatalf("%d goroutines started during a run on the caller", n)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%d goroutines left after a run on the caller, %d before", n, before)
			}
		})
	}
}

// TestCancelWakesParkedWorkers: with one long task in flight and the
// rest of the run idle, canceling the context ends the run. In a pool
// started by an earlier job the idle workers are parked on an empty
// queue, and the cancellation makes them exit while that task is still
// running; on the caller alone nothing is parked.
func TestCancelWakesParkedWorkers(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			const workers = 4
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var stuck atomic.Bool
			before := runtime.NumGoroutine()
			long := &Job{
				NTasks: 1,
				Run: func(w, i int) error {
					// Once every parked worker has exited, what remains is
					// the caller (counted in before) and the worker running
					// this task, which may be the caller itself.
					target := before + 1
					// Give the rest of the pool time to find the queue empty
					// and park; only the cancellation can wake it now.
					time.Sleep(50 * time.Millisecond)
					cancel()
					deadline := time.Now().Add(5 * time.Second)
					for runtime.NumGoroutine() > target {
						if time.Now().After(deadline) {
							stuck.Store(true)
							break
						}
						time.Sleep(time.Millisecond)
					}
					return nil
				},
			}
			jobs := append(chainOf(m.tasks, m.tasks, func(int) error { return nil }), long)
			err := Run(jobs, Options{Workers: workers, Ctx: ctx})
			if !errors.Is(err, hashstasherr.ErrCanceled) {
				t.Fatalf("got %v, want ErrCanceled", err)
			}
			if stuck.Load() {
				t.Fatal("parked workers did not wake on cancellation")
			}
		})
	}
}

// TestCancelBeforeFirstSpread: a cancellation that lands while the
// chain still runs on the caller ends the run before any task of the
// first multi-task job runs, and leaves no goroutine behind.
func TestCancelBeforeFirstSpread(t *testing.T) {
	testutil.CheckGoroutines(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var spread atomic.Int64
	chain := []*Job{
		{NTasks: 1, Run: func(w, i int) error { cancel(); return nil }},
		{NTasks: 16, Run: func(w, i int) error { spread.Add(1); return nil }},
	}
	err := Run(chain, Options{Workers: 4, Ctx: ctx})
	if !errors.Is(err, hashstasherr.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if n := spread.Load(); n != 0 {
		t.Fatalf("%d tasks of the multi-task job ran after the cancellation", n)
	}
}

// TestCancelDuringFirstSpread: a cancellation that lands while the pool
// started by the chain's first multi-task job is running it skips the
// queued tasks and every later job, wakes the pool and leaves no
// goroutine behind.
func TestCancelDuringFirstSpread(t *testing.T) {
	testutil.CheckGoroutines(t)
	const workers, n = 4, 64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran, later atomic.Int64
	chain := []*Job{
		{NTasks: 1, Run: func(w, i int) error { return nil }},
		{NTasks: n, Run: func(w, i int) error {
			if ran.Add(1) == 2 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return nil
		}},
		{NTasks: 1, Run: func(w, i int) error { later.Add(1); return nil }},
	}
	err := Run(chain, Options{Workers: workers, Ctx: ctx})
	if !errors.Is(err, hashstasherr.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if got := ran.Load(); got >= n {
		t.Fatalf("all %d tasks ran despite cancellation", got)
	}
	if later.Load() != 0 {
		t.Fatal("a job after the canceled one ran")
	}
}
