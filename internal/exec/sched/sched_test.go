package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

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
			if err := Run([][]*Job{{job}}, Options{Workers: workers}); err != nil {
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
			if err := Run([][]*Job{{dep, cons}}, Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			if v := violations.Load(); v != 0 {
				t.Fatalf("%d consumer tasks ran before the previous job finished", v)
			}
		})
	}
}

// TestChainOrder: over 64 chains of random length and width sharing
// one pool, no job is prepared before its predecessor's Finish, every
// task runs exactly once, and every Finish runs exactly once after its
// job's last task. Meant for -race.
func TestChainOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	const nChains = 64
	type jobState struct {
		ran, finished atomic.Int64
		prepared      atomic.Bool
		tasks         int
	}
	var violations atomic.Int64
	states := make([][]*jobState, nChains)
	chains := make([][]*Job, nChains)
	for c := range chains {
		n := rng.Intn(6)
		states[c] = make([]*jobState, n)
		chains[c] = make([]*Job, n)
		for k := 0; k < n; k++ {
			st := &jobState{tasks: rng.Intn(24)}
			states[c][k] = st
			var prev *jobState
			if k > 0 {
				prev = states[c][k-1]
			}
			chains[c][k] = &Job{
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
	}
	if err := Run(chains, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d chain-order violations", v)
	}
	for c := range states {
		for k, st := range states[c] {
			if st.ran.Load() != int64(st.tasks) || st.finished.Load() != 1 {
				t.Fatalf("chain %d job %d: ran %d/%d tasks, finished %d times",
					c, k, st.ran.Load(), st.tasks, st.finished.Load())
			}
		}
	}
}

// TestChainsOverlap: two chains' tasks run at the same time on a pool
// of two — each task waits for the other to arrive, which only a
// concurrent schedule lets happen before the timeout.
func TestChainsOverlap(t *testing.T) {
	arrived := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	meet := func(me int) *Job {
		return &Job{
			NTasks: 1,
			Run: func(w, i int) error {
				close(arrived[me])
				select {
				case <-arrived[1-me]:
					return nil
				case <-time.After(5 * time.Second):
					return fmt.Errorf("chain %d never overlapped with chain %d", me, 1-me)
				}
			},
		}
	}
	if err := Run([][]*Job{{meet(0)}, {meet(1)}}, Options{Workers: 2}); err != nil {
		t.Fatal(err)
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
			err := Run([][]*Job{{fail, after}}, Options{Workers: workers})
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
	if err := Run([][]*Job{{job}}, Options{Workers: 4}); !errors.Is(err, boom) {
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
	if err := Run([][]*Job{chain}, Options{Workers: 4}); err != nil {
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
	if err := Run([][]*Job{{job}}, Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d tasks saw an out-of-range worker index", bad.Load())
	}
}
