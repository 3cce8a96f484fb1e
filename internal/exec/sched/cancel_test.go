package sched

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hashstash/hashstasherr"
	"hashstash/internal/testutil"
)

// TestCancelStopsDispatch: canceling Options.Ctx mid-run fails the
// pool — tasks claimed after the cancellation are skipped, and Run
// reports an error satisfying both errors.Is(hashstasherr.ErrCanceled)
// and errors.Is(context.Canceled).
func TestCancelStopsDispatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	const workers, n = 2, 64
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	running := make(chan struct{}, n)
	var ran atomic.Int64
	job := &Job{
		NTasks: n,
		Run: func(w, i int) error {
			ran.Add(1)
			running <- struct{}{}
			<-release // hold the worker until the test releases it
			return nil
		},
	}

	go func() {
		// Wait until every worker is inside a task, cancel, then release
		// the workers.
		for i := 0; i < workers; i++ {
			<-running
		}
		cancel()
		time.Sleep(100 * time.Millisecond)
		close(release)
	}()

	err := Run([]*Job{job}, Options{Workers: workers, Ctx: ctx})
	if err == nil {
		t.Fatal("Run returned nil after cancellation")
	}
	if !errors.Is(err, hashstasherr.ErrCanceled) {
		t.Fatalf("error %v does not wrap hashstasherr.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	// The tasks in flight at cancellation time finish; everything still
	// queued is skipped.
	if got := ran.Load(); got >= n {
		t.Fatalf("all %d tasks ran despite cancellation", got)
	}
}

// TestCancelSerial: the one-worker path observes a pre-canceled context
// before dispatching any task.
func TestCancelSerial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	job := &Job{
		NTasks: 8,
		Run:    func(w, i int) error { ran.Add(1); return nil },
	}
	err := Run([]*Job{job}, Options{Workers: 1, Ctx: ctx})
	if !errors.Is(err, hashstasherr.ErrCanceled) {
		t.Fatalf("serial run under canceled ctx returned %v", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d tasks ran under a pre-canceled context", ran.Load())
	}
}

// TestSingleWorkerInline: Workers 1 runs the chain on the calling
// goroutine — no goroutine exists during or after the run that did not
// exist before it, even when the context is canceled mid-run — and
// still stops between tasks once the context is canceled.
func TestSingleWorkerInline(t *testing.T) {
	testutil.CheckGoroutines(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := runtime.NumGoroutine()
	var ran, extra atomic.Int64
	job := func() *Job {
		return &Job{
			NTasks: 8,
			Run: func(w, i int) error {
				if n := runtime.NumGoroutine(); n > before {
					extra.Store(int64(n - before))
				}
				if ran.Add(1) == 3 {
					cancel()
				}
				return nil
			},
		}
	}
	err := Run([]*Job{job(), job(), job()}, Options{Workers: 1, Ctx: ctx})
	if !errors.Is(err, hashstasherr.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("%d tasks ran, want 3 (the cancel lands between tasks)", got)
	}
	if n := extra.Load(); n != 0 {
		t.Fatalf("%d goroutines started during a one-worker run", n)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines left after a one-worker run, %d before", n, before)
	}
}

// TestCancelWakesParkedWorkers: with one long task in flight and the
// rest of the pool parked on an empty queue, canceling the context
// makes the parked workers exit while that task is still running.
func TestCancelWakesParkedWorkers(t *testing.T) {
	testutil.CheckGoroutines(t)
	const workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stuck atomic.Bool
	before := runtime.NumGoroutine()
	job := &Job{
		NTasks: 1,
		Run: func(w, i int) error {
			// Once every parked worker has exited, what remains is the
			// waiting caller (counted in before) and the worker running
			// this task.
			target := before + 1
			// Give the rest of the pool time to find the queue empty and
			// park; only the cancellation can wake it now.
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
	err := Run([]*Job{job}, Options{Workers: workers, Ctx: ctx})
	if !errors.Is(err, hashstasherr.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if stuck.Load() {
		t.Fatal("parked workers did not wake on cancellation")
	}
}
