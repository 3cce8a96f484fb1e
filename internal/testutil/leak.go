// Package testutil holds shared test helpers. It is imported only
// from _test files.
package testutil

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// CheckGoroutines snapshots the goroutine count and registers a
// cleanup that fails the test if goroutines are still leaked after a
// grace period. Call it first in a test that starts servers,
// schedulers or chaos storms: a pipeline worker, dispatched group or
// connection handler that outlives its owner is a containment bug
// even when results look right.
//
// The check polls because legitimate teardown is asynchronous (closed
// connections unwind, timers fire and exit). Only a count still above
// the baseline after ~3s fails, with full stacks dumped for triage.
func CheckGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(3 * time.Second)
		var now int
		for {
			now = runtime.NumGoroutine()
			if now <= before || time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if now > before {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Errorf("goroutine leak: %d before, %d after; stacks:\n%s",
				before, now, interesting(string(buf[:n])))
		}
	})
}

// interesting trims the stack dump to goroutines likely to be ours —
// testing-harness and runtime housekeeping goroutines are noise.
func interesting(stacks string) string {
	var keep []string
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "testing.") && !strings.Contains(g, "hashstash") {
			continue
		}
		if strings.Contains(g, "runtime.gopark") && !strings.Contains(g, "hashstash") {
			continue
		}
		keep = append(keep, g)
	}
	return strings.Join(keep, "\n\n")
}
