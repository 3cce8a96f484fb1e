package hashstash

import (
	"fmt"
	"testing"
)

// assertGolden compares two results after canonicalization (scheduled
// execution merges worker partials in nondeterministic order; result
// sets are unordered).
func assertGolden(t *testing.T, label string, got, want *Result) {
	t.Helper()
	g, w := canonical(got), canonical(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, want %d", label, len(g), len(w))
	}
	for j := range w {
		if g[j] != w[j] {
			t.Fatalf("%s row %d: %q != %q", label, j, g[j], w[j])
		}
	}
}

// TestScheduledBatchMatchesSerial runs the same query batch — mergeable
// lineitem aggregates over two group-by key sets, so the shared plan's
// grouping spine fans one scan out to several grouping tables — under
// one worker and a pool of four, twice each so the second batch
// re-tags and reuses the cached grouping tables.
func TestScheduledBatchMatchesSerial(t *testing.T) {
	batch := []string{
		`SELECT l.l_returnflag, COUNT(*) AS n, SUM(l.l_quantity) AS q
		 FROM lineitem l WHERE l.l_shipdate >= DATE '1995-01-01'
		 GROUP BY l.l_returnflag`,
		`SELECT l.l_returnflag, SUM(l.l_extendedprice) AS rev
		 FROM lineitem l WHERE l.l_shipdate >= DATE '1996-01-01'
		 GROUP BY l.l_returnflag`,
		`SELECT l.l_linenumber, COUNT(*) AS n
		 FROM lineitem l WHERE l.l_shipdate >= DATE '1995-06-01'
		 GROUP BY l.l_linenumber`,
		`SELECT l.l_linenumber, SUM(l.l_discount) AS d
		 FROM lineitem l WHERE l.l_shipdate >= DATE '1994-06-01'
		 GROUP BY l.l_linenumber`,
	}
	serial := openTPCH(t, WithTuning(Tuning{Parallelism: 1}))
	scheduled := openTPCH(t, WithTuning(Tuning{Parallelism: 4, MorselRows: 512}))
	for round := 0; round < 2; round++ {
		sres, err := serial.ExecBatch(batch)
		if err != nil {
			t.Fatalf("serial round %d: %v", round, err)
		}
		pres, err := scheduled.ExecBatch(batch)
		if err != nil {
			t.Fatalf("scheduled round %d: %v", round, err)
		}
		for i := range batch {
			assertGolden(t, fmt.Sprintf("round %d query %d", round, i), pres[i], sres[i])
		}
	}
}

// TestScheduledMatreuseMatchesSerial drives the materialized baseline
// through the scheduler: join builds spill per-worker temp partials
// that merge at pipeline end, and the aggregate path's
// readout-from-spill runs after its producer in compile order. The
// second round reuses materialized temp tables (rebuild-from-spill
// pipelines).
func TestScheduledMatreuseMatchesSerial(t *testing.T) {
	queries := parallelQueries()
	serial := openTPCH(t, WithEngine(EngineMaterialized), WithTuning(Tuning{Parallelism: 1}))
	scheduled := openTPCH(t, WithEngine(EngineMaterialized), WithTuning(Tuning{Parallelism: 4, MorselRows: 512}))
	for round := 0; round < 2; round++ {
		for i, q := range queries {
			sres, err := serial.Exec(q)
			if err != nil {
				t.Fatalf("serial round %d query %d: %v", round, i, err)
			}
			pres, err := scheduled.Exec(q)
			if err != nil {
				t.Fatalf("scheduled round %d query %d: %v", round, i, err)
			}
			assertGolden(t, fmt.Sprintf("round %d query %d", round, i), pres, sres)
		}
	}
	if scheduled.CacheStats().Hits == 0 {
		t.Error("scheduled baseline never reused a materialized table")
	}
}

// TestSchedulerKnobsGolden: the sizing knobs that change how pipelines
// are scheduled — pool size, and one query chain vs one chain per
// scatter leg — change scheduling, never results.
func TestSchedulerKnobsGolden(t *testing.T) {
	queries := parallelQueries()
	golden := openTPCH(t, WithTuning(Tuning{Parallelism: 1}))
	goldens := make([]*Result, len(queries))
	for i, q := range queries {
		res, err := golden.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		goldens[i] = res
	}
	for _, tc := range []struct {
		name string
		db   func(t *testing.T) *DB
	}{
		{"parallelism=4", func(t *testing.T) *DB {
			return openTPCH(t, WithTuning(Tuning{Parallelism: 4, MorselRows: 512}))
		}},
		{"shards=2", func(t *testing.T) *DB {
			return openShardedTPCH(t, 2, WithTuning(Tuning{Parallelism: 4, MorselRows: 512}))
		}},
		{"shards=2,parallelism=1", func(t *testing.T) *DB {
			return openShardedTPCH(t, 2, WithTuning(Tuning{Parallelism: 1}))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := tc.db(t)
			for i, q := range queries {
				res, err := db.Exec(q)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				assertGolden(t, fmt.Sprintf("query %d", i), res, goldens[i])
			}
		})
	}
}
