package sched

import (
	"errors"
	"sync/atomic"
	"testing"

	"hashstash/hashstasherr"
	"hashstash/internal/testutil"
)

// TestPanicIsolation: a panic in any job hook — Prepare, Run, Finish —
// is contained by the scheduler: Run returns a typed InternalError
// carrying the panic value and stack, the job before it in the chain
// completed, and the process never sees the panic. Exercised on one
// worker and on a pool.
func TestPanicIsolation(t *testing.T) {
	hooks := []struct {
		name string
		job  func() *Job
	}{
		{"run", func() *Job {
			return &Job{
				NTasks: 4,
				Run: func(worker, task int) error {
					if task == 2 {
						panic("operator bug")
					}
					return nil
				},
			}
		}},
		{"prepare", func() *Job {
			return &Job{
				NTasks:  1,
				Prepare: func(j *Job) error { panic("prepare bug") },
				Run:     func(worker, task int) error { return nil },
			}
		}},
		{"finish", func() *Job {
			return &Job{
				NTasks: 1,
				Run:    func(worker, task int) error { return nil },
				Finish: func() error { panic("finish bug") },
			}
		}},
	}
	for _, h := range hooks {
		for _, workers := range []int{1, 4} {
			t.Run(h.name, func(t *testing.T) {
				var healthy atomic.Int64
				bystander := &Job{
					NTasks: 8,
					Run: func(worker, task int) error {
						healthy.Add(1)
						return nil
					},
				}
				err := Run([]*Job{bystander, h.job()}, Options{Workers: workers})
				if n := healthy.Load(); n != 8 {
					t.Fatalf("the job before the panic ran %d of 8 tasks", n)
				}
				if err == nil {
					t.Fatal("panicking job reported no error")
				}
				if !errors.Is(err, hashstasherr.ErrInternal) {
					t.Fatalf("panic not converted to ErrInternal: %v", err)
				}
				var ie *hashstasherr.InternalError
				if !errors.As(err, &ie) {
					t.Fatalf("no InternalError in chain: %v", err)
				}
				if len(ie.Stack) == 0 {
					t.Fatal("InternalError carries no stack")
				}
			})
		}
	}
}

// TestPanicFirstErrorWins: with many tasks panicking concurrently,
// exactly one error surfaces and the pool still drains (no deadlock,
// no double-fail crash).
func TestPanicFirstErrorWins(t *testing.T) {
	testutil.CheckGoroutines(t)
	jobs := []*Job{{
		NTasks: 64,
		Run: func(worker, task int) error {
			if task%3 == 0 {
				panic(task)
			}
			return nil
		},
	}}
	err := Run(jobs, Options{Workers: 4})
	if !errors.Is(err, hashstasherr.ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
}
