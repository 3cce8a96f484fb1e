package testutil

import (
	"context"
	"errors"
	"runtime/debug"
	"testing"
	"time"

	"hashstash/hashstasherr"
)

// raceEnabled reports whether the test binary was built with -race. The
// race detector slows every memory access 5–20×, so wall-clock bounds
// measured on a plain build do not hold under it.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// CheckDeadlineInsideMorsel runs a query that streams for hundreds of
// milliseconds inside one morsel under two deadlines. Under 300 ms it
// must fail with ErrCanceled, so it runs at least that long uncanceled;
// under 30 ms it must fail with ErrCanceled within 100 ms of its start.
// Both errors must wrap context.DeadlineExceeded too. Under the race
// detector one batch alone can outlast the bound, so only the errors
// are checked.
func CheckDeadlineInsideMorsel(t *testing.T, run func(context.Context) error) {
	t.Helper()
	for _, c := range []struct{ deadline, within time.Duration }{
		{300 * time.Millisecond, 0},
		{30 * time.Millisecond, 100 * time.Millisecond},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), c.deadline)
		start := time.Now()
		err := run(ctx)
		took := time.Since(start)
		cancel()
		t.Logf("%v deadline: returned after %v", c.deadline, took)
		if !errors.Is(err, hashstasherr.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v deadline: error %v after %v, want ErrCanceled wrapping context.DeadlineExceeded", c.deadline, err, took)
		}
		if c.within > 0 && took > c.within && !raceEnabled() {
			t.Fatalf("%v deadline: canceled after %v, want within %v", c.deadline, took, c.within)
		}
	}
}
