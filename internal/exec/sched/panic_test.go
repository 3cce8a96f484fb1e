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
// worker and on a pool, with the panic landing on the caller before
// the pool started and inside a started pool.
func TestPanicIsolation(t *testing.T) {
	hooks := []struct {
		name string
		job  func(tasks int) *Job
	}{
		{"run", func(tasks int) *Job {
			return &Job{
				NTasks: tasks,
				Run: func(worker, task int) error {
					if task == tasks-1 {
						panic("operator bug")
					}
					return nil
				},
			}
		}},
		{"prepare", func(tasks int) *Job {
			return &Job{
				NTasks:  tasks,
				Prepare: func(j *Job) error { panic("prepare bug") },
				Run:     func(worker, task int) error { return nil },
			}
		}},
		{"finish", func(tasks int) *Job {
			return &Job{
				NTasks: tasks,
				Run:    func(worker, task int) error { return nil },
				Finish: func() error { panic("finish bug") },
			}
		}},
	}
	for _, h := range hooks {
		for _, workers := range []int{1, 4} {
			t.Run(h.name, func(t *testing.T) {
				for _, m := range modes {
					t.Run(m.name, func(t *testing.T) {
						testutil.CheckGoroutines(t)
						var healthy atomic.Int64
						bystander := &Job{
							NTasks: m.tasks,
							Run: func(worker, task int) error {
								healthy.Add(1)
								return nil
							},
						}
						err := Run([]*Job{bystander, h.job(m.tasks)}, Options{Workers: workers})
						if n := healthy.Load(); n != int64(m.tasks) {
							t.Fatalf("the job before the panic ran %d of %d tasks", n, m.tasks)
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
			})
		}
	}
}

// TestPanicFirstErrorWins: with many tasks panicking, exactly one error
// surfaces and the run still drains (no deadlock, no double-fail
// crash) — on the caller alone, and with tasks panicking concurrently
// across a started pool.
func TestPanicFirstErrorWins(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			jobs := chainOf(64, m.tasks, func(id int) error {
				if id%3 == 0 {
					panic(id)
				}
				return nil
			})
			err := Run(jobs, Options{Workers: 4})
			if !errors.Is(err, hashstasherr.ErrInternal) {
				t.Fatalf("err = %v, want ErrInternal", err)
			}
		})
	}
}
