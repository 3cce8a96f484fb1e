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

// LongMorselSQL self-joins lineitem on l_suppkey. At SF 0.01 lineitem
// (~60K rows) is one default-size morsel of ~60 source batches, and
// every probe batch fans out ~600-fold into a count: cheap batches, but
// a probe pipeline that runs for over a second as one task.
const LongMorselSQL = `SELECT COUNT(*) AS n FROM lineitem a, lineitem b
	WHERE a.l_suppkey = b.l_suppkey`

// FanoutBatchSQL self-joins lineitem on l_returnflag, which has three
// values. At SF 0.01 each side holds ~60K rows, so every probe source
// batch (at most storage.BatchSize rows) fans out into ~20M join rows
// (~20K matches per row): seconds of work behind a single input batch.
const FanoutBatchSQL = `SELECT COUNT(*) AS n FROM lineitem a, lineitem b
	WHERE a.l_returnflag = b.l_returnflag`

// CheckDeadlineInsideMorsel runs each of LongMorselSQL and
// FanoutBatchSQL under two deadlines, on an engine with TPC-H SF 0.01
// loaded that runs every query in full on one worker (NeverReuse). Each
// streams for hundreds of milliseconds inside one morsel, and the
// second inside one source batch. Under 300 ms a query must fail with
// ErrCanceled, so it runs at least that long uncanceled; under 30 ms it
// must fail with ErrCanceled within 100 ms of its start. Both errors
// must wrap context.DeadlineExceeded too. Under the race detector one
// batch alone can outlast the bound, so only the errors are checked.
func CheckDeadlineInsideMorsel(t *testing.T, run func(ctx context.Context, sql string) error) {
	t.Helper()
	for _, q := range []struct{ name, sql string }{
		{"long morsel", LongMorselSQL},
		{"fan-out batch", FanoutBatchSQL},
	} {
		for _, c := range []struct{ deadline, within time.Duration }{
			{300 * time.Millisecond, 0},
			{30 * time.Millisecond, 100 * time.Millisecond},
		} {
			ctx, cancel := context.WithTimeout(context.Background(), c.deadline)
			start := time.Now()
			err := run(ctx, q.sql)
			took := time.Since(start)
			cancel()
			t.Logf("%s, %v deadline: returned after %v", q.name, c.deadline, took)
			if !errors.Is(err, hashstasherr.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s, %v deadline: error %v after %v, want ErrCanceled wrapping context.DeadlineExceeded", q.name, c.deadline, err, took)
			}
			if c.within > 0 && took > c.within && !raceEnabled() {
				t.Fatalf("%s, %v deadline: canceled after %v, want within %v", q.name, c.deadline, took, c.within)
			}
		}
	}
}
