package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"hashstash/internal/testutil"
)

// mode is one of the two ways a run executes on a pool: with one task
// per job the pool never starts and the chain runs on the calling
// goroutine; with several, the pool starts when the first job is
// seeded.
type mode struct {
	name  string
	tasks int // tasks per job
}

var modes = []mode{{"caller", 1}, {"pool", 8}}

// chainOf splits n tasks into a chain of jobs of per tasks each; run
// gets the task's index across the whole chain.
func chainOf(n, per int, run func(id int) error) []*Job {
	var chain []*Job
	for base := 0; base < n; base += per {
		chain = append(chain, &Job{
			NTasks: min(per, n-base),
			Run:    func(w, i int) error { return run(base + i) },
		})
	}
	return chain
}

// TestJobCompletesAllTasks: every task of a single job runs exactly
// once, then Finish runs once.
func TestJobCompletesAllTasks(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 100
			ran := make([]atomic.Int64, n)
			var finished atomic.Int64
			job := &Job{
				NTasks: n,
				Run: func(w, i int) error {
					ran[i].Add(1)
					return nil
				},
				Finish: func() error { finished.Add(1); return nil },
			}
			if err := Run([]*Job{job}, Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Fatalf("task %d ran %d times", i, got)
				}
			}
			if finished.Load() != 1 {
				t.Fatalf("Finish ran %d times", finished.Load())
			}
		})
	}
}

// TestDependencyOrder: a later job of a chain observes every earlier
// job's tasks and Finish hook as completed.
func TestDependencyOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var depFinished atomic.Bool
			var violations atomic.Int64
			dep := &Job{
				NTasks: 50,
				Run:    func(w, i int) error { return nil },
				Finish: func() error { depFinished.Store(true); return nil },
			}
			cons := &Job{
				NTasks: 50,
				Run: func(w, i int) error {
					if !depFinished.Load() {
						violations.Add(1)
					}
					return nil
				},
			}
			if err := Run([]*Job{dep, cons}, Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			if v := violations.Load(); v != 0 {
				t.Fatalf("%d consumer tasks ran before the previous job finished", v)
			}
		})
	}
}

// TestChainOrder: over one chain of 64 jobs of random width on a pool
// of four, no job is prepared before its predecessor's Finish, every
// task runs exactly once, and every Finish runs exactly once after its
// job's last task. Meant for -race.
func TestChainOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	const nJobs = 64
	type jobState struct {
		ran, finished atomic.Int64
		prepared      atomic.Bool
		tasks         int
	}
	var violations atomic.Int64
	states := make([]*jobState, nJobs)
	chain := make([]*Job, nJobs)
	for k := range chain {
		st := &jobState{tasks: rng.Intn(24)}
		states[k] = st
		var prev *jobState
		if k > 0 {
			prev = states[k-1]
		}
		chain[k] = &Job{
			Prepare: func(j *Job) error {
				if prev != nil && prev.finished.Load() != 1 {
					violations.Add(1)
				}
				st.prepared.Store(true)
				j.NTasks = st.tasks
				j.Run = func(w, i int) error {
					if !st.prepared.Load() || st.finished.Load() != 0 {
						violations.Add(1)
					}
					st.ran.Add(1)
					return nil
				}
				return nil
			},
			Finish: func() error {
				if st.ran.Load() != int64(st.tasks) {
					violations.Add(1)
				}
				st.finished.Add(1)
				return nil
			},
		}
	}
	if err := Run(chain, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d chain-order violations", v)
	}
	for k, st := range states {
		if st.ran.Load() != int64(st.tasks) || st.finished.Load() != 1 {
			t.Fatalf("job %d: ran %d/%d tasks, finished %d times",
				k, st.ran.Load(), st.tasks, st.finished.Load())
		}
	}
}

// TestErrorPropagation: the first task error surfaces and later jobs of
// the chain never start.
func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var laterStarted atomic.Bool
			fail := &Job{
				NTasks: 16,
				Run: func(w, i int) error {
					if i == 7 {
						return boom
					}
					return nil
				},
			}
			after := &Job{
				NTasks: 4,
				Run:    func(w, i int) error { laterStarted.Store(true); return nil },
			}
			err := Run([]*Job{fail, after}, Options{Workers: workers})
			if !errors.Is(err, boom) {
				t.Fatalf("got %v, want boom", err)
			}
			if laterStarted.Load() {
				t.Fatal("a later job ran after its predecessor failed")
			}
		})
	}
}

// TestFinishError: a Finish failure surfaces like a task failure.
func TestFinishError(t *testing.T) {
	boom := errors.New("merge failed")
	job := &Job{
		NTasks: 8,
		Run:    func(w, i int) error { return nil },
		Finish: func() error { return boom },
	}
	if err := Run([]*Job{job}, Options{Workers: 4}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want merge failure", err)
	}
}

// TestZeroTaskJob: jobs without tasks still run Finish and hand over to
// the next job of their chain, whose tasks and Finish run exactly once.
func TestZeroTaskJob(t *testing.T) {
	var finished, after, afterFinished atomic.Int64
	chain := []*Job{
		{NTasks: 0, Finish: func() error { finished.Add(1); return nil }},
		{
			NTasks: 1,
			Run:    func(w, i int) error { after.Add(1); return nil },
			Finish: func() error { afterFinished.Add(1); return nil },
		},
	}
	if err := Run(chain, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if finished.Load() != 1 || after.Load() != 1 || afterFinished.Load() != 1 {
		t.Fatalf("finished=%d after=%d afterFinished=%d, want 1/1/1",
			finished.Load(), after.Load(), afterFinished.Load())
	}
}

// TestWorkerIndexInRange: the worker index handed to Run is always a
// valid per-worker-state slot.
func TestWorkerIndexInRange(t *testing.T) {
	const workers = 5
	var bad atomic.Int64
	job := &Job{
		NTasks: 200,
		Run: func(w, i int) error {
			if w < 0 || w >= workers {
				bad.Add(1)
			}
			return nil
		},
	}
	if err := Run([]*Job{job}, Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d tasks saw an out-of-range worker index", bad.Load())
	}
}

// TestOneTaskChainStartsNoGoroutine: on a pool of four, a chain of
// one-task jobs runs every task on the caller as worker 0 and starts no
// goroutine: inside each task the goroutine count equals its value
// before Run.
func TestOneTaskChainStartsNoGoroutine(t *testing.T) {
	testutil.CheckGoroutines(t)
	before := runtime.NumGoroutine()
	var ran, off, extra atomic.Int64
	chain := make([]*Job, 6)
	for k := range chain {
		chain[k] = &Job{NTasks: 1, Run: func(w, i int) error {
			ran.Add(1)
			if w != 0 {
				off.Add(1)
			}
			if n := runtime.NumGoroutine(); n != before {
				extra.Store(int64(n - before))
			}
			return nil
		}}
	}
	if err := Run(chain, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 6 {
		t.Fatalf("%d of 6 tasks ran", ran.Load())
	}
	if off.Load() != 0 {
		t.Fatalf("%d tasks ran off worker 0", off.Load())
	}
	if n := extra.Load(); n != 0 {
		t.Fatalf("goroutine count moved by %d inside a one-task chain", n)
	}
}

// TestPoolStartsAtFirstSpread: a one-task, multi-task, one-task chain
// on a pool of four runs its first job on the caller alone and starts
// the pool when the multi-task job is seeded. Every task runs exactly
// once, tasks running at the same time see distinct worker indices,
// and Finish sees every task's plain (unsynchronized) write. Meant for
// -race.
func TestPoolStartsAtFirstSpread(t *testing.T) {
	testutil.CheckGoroutines(t)
	const workers, n = 4, 256
	before := runtime.NumGoroutine()
	var busy [workers]atomic.Int32
	var clashes, ran, firstExtra, spreadShort atomic.Int64
	out := make([]int, n)
	chain := []*Job{
		{NTasks: 1, Run: func(w, i int) error {
			if got := runtime.NumGoroutine(); got != before || w != 0 {
				firstExtra.Add(1)
			}
			return nil
		}},
		{
			NTasks: n,
			Run: func(w, i int) error {
				if busy[w].Add(1) != 1 {
					clashes.Add(1)
				}
				if runtime.NumGoroutine() < before+workers-1 {
					spreadShort.Add(1)
				}
				out[i] = i + 1
				ran.Add(1)
				runtime.Gosched()
				busy[w].Add(-1)
				return nil
			},
			Finish: func() error {
				for i, v := range out {
					if v != i+1 {
						return fmt.Errorf("Finish saw out[%d] = %d, want %d", i, v, i+1)
					}
				}
				return nil
			},
		},
		{NTasks: 1, Run: func(w, i int) error { ran.Add(1); return nil }},
	}
	if err := Run(chain, Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	if firstExtra.Load() != 0 {
		t.Fatal("the first one-task job did not run on the caller alone")
	}
	if spreadShort.Load() != 0 {
		t.Fatal("the multi-task job ran before the pool started")
	}
	if clashes.Load() != 0 {
		t.Fatalf("%d tasks shared a worker index with a running task", clashes.Load())
	}
	if ran.Load() != n+1 {
		t.Fatalf("%d tasks ran, want %d", ran.Load(), n+1)
	}
}
