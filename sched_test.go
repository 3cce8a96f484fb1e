package hashstash

import (
	"fmt"
	"slices"
	"strings"
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
// through the scheduler. The second round reuses cached tables: an
// aggregate is read out of its cached table, and a narrowed join window
// rebuilds its hash table from the cached one in a pipeline of its own
// that the probe must wait for.
func TestScheduledMatreuseMatchesSerial(t *testing.T) {
	queries := append(parallelQueries(), spjWindow("1995-01-01", "1995-06-01"), spjWindow("1995-02-01", "1995-03-01"))
	serial := openTPCH(t, WithStrategy(Materialized), WithTuning(Tuning{Parallelism: 1}))
	scheduled := openTPCH(t, WithStrategy(Materialized), WithTuning(Tuning{Parallelism: 4, MorselRows: 512}))
	rebuilds := 0
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
			for _, d := range pres.Decisions {
				if strings.HasPrefix(d.Operator, "build") && d.Mode.String() != "new" {
					rebuilds++
				}
			}
		}
	}
	if scheduled.CacheStats().Hits == 0 {
		t.Error("scheduled baseline never reused a cached table")
	}
	if rebuilds == 0 {
		t.Error("scheduled baseline never rebuilt a join's hash table from a cached one")
	}
}

// TestCollectOrderGolden: results assembled by the collector — plain
// selections, ORDER BY with and without LIMIT, ties on the order
// column, an ordered aggregate — agree between one worker and a pool of
// four: the same row multiset, and the same order-column sequence for
// ordered queries (rows tied on the key may arrive in another order,
// so under a LIMIT the tied rows at the cut may differ). Secondary
// indexes are off so no query takes the index-order scan.
func TestCollectOrderGolden(t *testing.T) {
	queries := []string{
		`SELECT l.l_orderkey, l.l_extendedprice FROM lineitem l
		 WHERE l.l_shipdate >= DATE '1995-03-01'`,
		`SELECT l.l_orderkey, l.l_extendedprice FROM lineitem l
		 WHERE l.l_shipdate >= DATE '1995-03-01'
		 ORDER BY l.l_extendedprice DESC LIMIT 25`,
		`SELECT l.l_orderkey, l.l_quantity FROM lineitem l
		 WHERE l.l_shipdate >= DATE '1994-01-01'
		 ORDER BY l.l_quantity LIMIT 300`,
		`SELECT l.l_orderkey, l.l_shipdate FROM lineitem l
		 WHERE l.l_shipdate < DATE '1993-06-01'
		 ORDER BY l.l_shipdate DESC`,
		`SELECT l.l_returnflag, SUM(l.l_quantity) AS q FROM lineitem l
		 GROUP BY l.l_returnflag ORDER BY l.l_returnflag DESC LIMIT 2`,
	}
	noIndex := WithAblations(Ablations{NoSecondaryIndexes: true})
	serial := openTPCH(t, noIndex, WithTuning(Tuning{Parallelism: 1}))
	parallel := openTPCH(t, noIndex, WithTuning(Tuning{Parallelism: 4, MorselRows: 512}))
	for i, sql := range queries {
		want, err := serial.Exec(sql)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		got, err := parallel.Exec(sql)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		label := fmt.Sprintf("query %d", i)
		q, err := serial.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if q.Limit == 0 || q.OrderBy == nil {
			assertGolden(t, label, got, want)
		}
		if q.OrderBy == nil {
			continue
		}
		col := slices.Index(want.Columns, q.OrderBy.Col.String())
		if len(got.Rows) != len(want.Rows) || col < 0 {
			t.Fatalf("%s: %d rows, want %d (order column %d)", label, len(got.Rows), len(want.Rows), col)
		}
		for r := range want.Rows {
			if got.Rows[r][col].Compare(want.Rows[r][col]) != 0 {
				t.Fatalf("%s row %d: order key %v, want %v", label, r, got.Rows[r][col], want.Rows[r][col])
			}
			if r == 0 {
				continue
			}
			if c := want.Rows[r-1][col].Compare(want.Rows[r][col]); q.OrderBy.Desc && c < 0 || !q.OrderBy.Desc && c > 0 {
				t.Fatalf("%s row %d: out of order", label, r)
			}
		}
	}
}

// TestSchedulerKnobsGolden: the sizing knobs that change how pipelines
// are scheduled — pool size and morsel size, and the ignored shard
// count — change scheduling, never results.
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
			return openShimmedTPCH(t, 2, WithTuning(Tuning{Shards: 2, Parallelism: 4, MorselRows: 512}))
		}},
		{"shards=2,parallelism=1", func(t *testing.T) *DB {
			return openShimmedTPCH(t, 2, WithTuning(Tuning{Shards: 2, Parallelism: 1}))
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
