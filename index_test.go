package hashstash

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"hashstash/internal/types"
)

// warmIndex runs the query until the optimizer's ski-rental accumulator
// pays for an index build (or the attempt budget runs out). It returns
// the number of runs it took.
func warmIndex(t *testing.T, db *DB, sql string) int {
	t.Helper()
	for i := 1; i <= 64; i++ {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
		if db.CacheStats().Index.Builds >= 1 {
			return i
		}
	}
	t.Fatalf("no index build after 64 runs of %s", sql)
	return 0
}

// rangeShapes enumerates the constraint shapes of the golden
// index-vs-scan equivalence test: half-open, open, closed (BETWEEN),
// point, empty, and string-set predicates.
var rangeShapes = []string{
	`SELECT l.l_orderkey, l.l_extendedprice FROM lineitem l
	   WHERE l.l_shipdate >= DATE '1995-03-01' AND l.l_shipdate < DATE '1995-03-15'`,
	`SELECT l.l_orderkey, l.l_extendedprice FROM lineitem l
	   WHERE l.l_shipdate > DATE '1995-03-01' AND l.l_shipdate <= DATE '1995-03-15'`,
	`SELECT l.l_orderkey, l.l_extendedprice FROM lineitem l
	   WHERE l.l_shipdate BETWEEN DATE '1995-03-01' AND DATE '1995-03-15'`,
	`SELECT l.l_orderkey, l.l_extendedprice FROM lineitem l
	   WHERE l.l_shipdate = DATE '1995-03-05'`,
	`SELECT l.l_orderkey, l.l_extendedprice FROM lineitem l
	   WHERE l.l_shipdate > DATE '1996-01-01' AND l.l_shipdate < DATE '1995-01-01'`,
	`SELECT l.l_orderkey, l.l_extendedprice FROM lineitem l
	   WHERE l.l_shipdate >= DATE '1995-03-01' AND l.l_shipdate < DATE '1995-03-15'
	     AND l.l_returnflag IN ('A', 'R')`,
}

// TestIndexRangeMatchesScan is the golden equivalence test: once a
// secondary index over l_shipdate exists, every constraint shape must
// return exactly the rows a pure scan returns.
func TestIndexRangeMatchesScan(t *testing.T) {
	indexed := openTPCH(t)
	scan := openTPCH(t, WithAblations(Ablations{NoSecondaryIndexes: true}))

	runs := warmIndex(t, indexed, rangeShapes[0])
	t.Logf("index built after %d runs", runs)

	for i, sql := range rangeShapes {
		got, err := indexed.Exec(sql)
		if err != nil {
			t.Fatalf("shape %d (indexed): %v", i, err)
		}
		want, err := scan.Exec(sql)
		if err != nil {
			t.Fatalf("shape %d (scan): %v", i, err)
		}
		cg, cw := canonical(got), canonical(want)
		if len(cg) != len(cw) {
			t.Fatalf("shape %d: %d vs %d rows", i, len(cg), len(cw))
		}
		for j := range cg {
			if cg[j] != cw[j] {
				t.Fatalf("shape %d row %d: %s vs %s", i, j, cg[j], cw[j])
			}
		}
	}
	if db := indexed.CacheStats(); db.Index.RangeProbes == 0 {
		t.Error("no range probes recorded — the index path never ran")
	}
}

// TestIndexBuildSingleFlight: queries that concurrently see the
// ski-rental accumulator cross its threshold build the index once — the
// first claims the build, the rest scan — and every answer is the scan
// answer.
func TestIndexBuildSingleFlight(t *testing.T) {
	sql := rangeShapes[0]
	runs := warmIndex(t, openTPCH(t), sql)
	t.Logf("index built after %d runs", runs)

	scan := openTPCH(t, WithAblations(Ablations{NoSecondaryIndexes: true}))
	ref, err := scan.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	want := canonical(ref)

	db := openTPCH(t)
	for i := 1; i < runs; i++ { // leave the accumulator one query short
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if b := db.CacheStats().Index.Builds; b != 0 {
		t.Fatalf("%d builds before the concurrent wave", b)
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := db.Exec(sql)
			if err != nil {
				errs <- err
				return
			}
			if got := canonical(res); !slices.Equal(got, want) {
				errs <- fmt.Errorf("%d rows differ from the scan's %d", len(got), len(want))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if b := db.CacheStats().Index.Builds; b != 1 {
		t.Fatalf("%d index builds from one crossed threshold, want 1", b)
	}
}

// TestCostModelFlipsAccessPath verifies the scan-vs-index choice is made
// by the cost model, not a hard-coded rule: with the l_shipdate index
// cached, a highly selective constraint drives the index while a
// near-full-range constraint on the same column reverts to the scan.
func TestCostModelFlipsAccessPath(t *testing.T) {
	db := openTPCH(t)
	narrow := rangeShapes[0]
	wide := `SELECT l.l_orderkey, l.l_extendedprice FROM lineitem l
	           WHERE l.l_shipdate >= DATE '1992-01-01'`

	warmIndex(t, db, narrow)

	before := db.CacheStats().Index.RangeProbes
	if _, err := db.Exec(narrow); err != nil {
		t.Fatal(err)
	}
	afterNarrow := db.CacheStats().Index.RangeProbes
	if afterNarrow <= before {
		t.Errorf("selective query did not probe the index (%d -> %d)", before, afterNarrow)
	}

	if _, err := db.Exec(wide); err != nil {
		t.Fatal(err)
	}
	afterWide := db.CacheStats().Index.RangeProbes
	if afterWide != afterNarrow {
		t.Errorf("near-full-range query probed the index (%d -> %d); the cost model should prefer the scan", afterNarrow, afterWide)
	}
}

// TestNoSecondaryIndexes checks the ablation knob: no builds, no
// probes, ever.
func TestNoSecondaryIndexes(t *testing.T) {
	db := openTPCH(t, WithAblations(Ablations{NoSecondaryIndexes: true}))
	for i := 0; i < 40; i++ {
		if _, err := db.Exec(rangeShapes[0]); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.CacheStats().Index; st.Builds != 0 || st.RangeProbes != 0 {
		t.Errorf("index activity under NoSecondaryIndexes: %+v", st)
	}
}

// TestIndexBuildBudget checks that a budget too small for any tree
// suppresses builds entirely.
func TestIndexBuildBudget(t *testing.T) {
	db := openTPCH(t, WithTuning(Tuning{IndexBuildBudget: 1}))
	for i := 0; i < 40; i++ {
		if _, err := db.Exec(rangeShapes[0]); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.CacheStats().Index; st.Builds != 0 {
		t.Errorf("builds under 1-byte budget: %+v", st)
	}
}

// openEvents opens a database holding an events table of 4096 rows,
// ev_temp = ev_id % 100, split into fragments by ev_id when shards > 1.
func openEvents(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db := Open(append(opts, WithPartitionKey("events", "ev_id"))...)
	if err := db.CreateTable("events", map[string]Kind{
		"ev_id": types.Int64, "ev_temp": types.Int64,
	}, []string{"ev_id", "ev_temp"}); err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, 0, 4096)
	for i := 0; i < 4096; i++ {
		rows = append(rows, []Value{types.NewInt(int64(i)), types.NewInt(int64(i % 100))})
	}
	if err := db.InsertRows("events", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestInsertInvalidatesIndexes checks that a range scan sees inserted
// rows under every index kind — a lazily built index, one declared with
// BuildIndex, and TPC-H data with no index set up — for both a reusing
// and a non-reusing strategy on every tested shard count. An insert
// evicts the cached indexes over its table.
func TestInsertInvalidatesIndexes(t *testing.T) {
	const eventsCount = `SELECT COUNT(*) AS n FROM events e WHERE e.ev_temp = 7`
	legs := []struct {
		name  string
		open  func(t *testing.T, opts ...Option) *DB // data loaded, index cached
		count string                                 // COUNT(*) over a range row falls in
		table string
		row   []Value
		index bool // the leg caches an index the insert must drop
	}{
		{"lazy", func(t *testing.T, opts ...Option) *DB {
			db := openEvents(t, opts...)
			for i := 0; db.CacheStats().Index.Builds < int64(db.Shards()); i++ {
				if i == 64 {
					t.Fatalf("%d index builds after 64 runs", db.CacheStats().Index.Builds)
				}
				if _, err := db.Exec(`SELECT e.ev_id FROM events e WHERE e.ev_temp = 7`); err != nil {
					t.Fatal(err)
				}
			}
			return db
		}, eventsCount, "events", []Value{types.NewInt(90001), types.NewInt(7)}, true},
		{"declared", func(t *testing.T, opts ...Option) *DB {
			db := openEvents(t, opts...)
			if err := db.BuildIndex("events", "ev_temp"); err != nil {
				t.Fatal(err)
			}
			return db
		}, eventsCount, "events", []Value{types.NewInt(90001), types.NewInt(7)}, true},
		{"tpch", func(t *testing.T, opts ...Option) *DB {
			return openTPCH(t, append(opts, tpchPartitionKeys()...)...)
		}, `SELECT COUNT(*) AS n FROM orders o
		     WHERE o.o_orderdate >= DATE '1995-03-01' AND o.o_orderdate < DATE '1995-03-15'`,
			"orders", []Value{types.NewInt(90001), types.NewInt(1), types.NewDate(types.MustParseDate("1995-03-07")),
				types.NewFloat(100), types.NewInt(0), types.NewString("O")}, false},
	}
	count := func(t *testing.T, db *DB, sql string) int64 {
		t.Helper()
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].I
	}
	for _, leg := range legs {
		for _, strategy := range []Strategy{CostModel, NeverReuse} {
			for _, shards := range testShardCounts(t) {
				t.Run(fmt.Sprintf("%s/strategy=%v/shards=%d", leg.name, strategy, shards), func(t *testing.T) {
					db := leg.open(t, WithStrategy(strategy), WithTuning(Tuning{Shards: shards}))
					before := count(t, db, leg.count)
					if err := db.InsertRows(leg.table, [][]Value{leg.row}); err != nil {
						t.Fatal(err)
					}
					if inv := db.CacheStats().Index.Invalidations; leg.index && inv == 0 {
						t.Error("insert did not invalidate the cached index")
					}
					if after := count(t, db, leg.count); after != before+1 {
						t.Errorf("count %d after the insert, want %d", after, before+1)
					}
				})
			}
		}
	}
}

// TestOrderByLimit checks top-k queries on both access paths: the
// bounded index-order scan (cached index on the order column) and the
// sort+truncate fallback must return identical rows in identical order.
func TestOrderByLimit(t *testing.T) {
	indexed := openTPCH(t)
	fallback := openTPCH(t, WithAblations(Ablations{NoSecondaryIndexes: true}))

	// Warm a l_extendedprice index so the fast path is available.
	warm := `SELECT l.l_orderkey, l.l_extendedprice FROM lineitem l
	           WHERE l.l_extendedprice < 1000`
	warmIndex(t, indexed, warm)

	for _, dir := range []string{"ASC", "DESC"} {
		sql := fmt.Sprintf(`SELECT l.l_orderkey, l.l_extendedprice FROM lineitem l
		    WHERE l.l_shipdate >= DATE '1995-03-01'
		    ORDER BY l.l_extendedprice %s LIMIT 10`, dir)
		got, err := indexed.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fallback.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != 10 || len(want.Rows) != 10 {
			t.Fatalf("%s: %d / %d rows, want 10", dir, len(got.Rows), len(want.Rows))
		}
		// Compare the ordered price column (row ties may permute ids).
		for i := range got.Rows {
			g, w := got.Rows[i][1], want.Rows[i][1]
			if g.Compare(w) != 0 {
				t.Fatalf("%s row %d: price %v vs %v", dir, i, g, w)
			}
		}
		// Verify monotonicity of the returned prices.
		for i := 1; i < len(got.Rows); i++ {
			c := got.Rows[i-1][1].Compare(got.Rows[i][1])
			if dir == "ASC" && c > 0 || dir == "DESC" && c < 0 {
				t.Fatalf("%s: rows out of order at %d", dir, i)
			}
		}
	}
}

// TestOrderByLimitBatch checks that ORDER BY / LIMIT queries never
// merge into shared plans: they run as singletons through the
// single-query executor and come back ordered and truncated.
func TestOrderByLimitBatch(t *testing.T) {
	db := openTPCH(t)
	sql := `SELECT l.l_orderkey, l.l_extendedprice FROM lineitem l
	    WHERE l.l_shipdate >= DATE '1995-03-01'
	    ORDER BY l.l_extendedprice DESC LIMIT 5`
	results, err := db.ExecBatch([]string{sql, sql})
	if err != nil {
		t.Fatal(err)
	}
	for qi, res := range results {
		if len(res.Rows) != 5 {
			t.Fatalf("query %d: rows = %d, want 5", qi, len(res.Rows))
		}
		for i := 1; i < len(res.Rows); i++ {
			if res.Rows[i-1][1].Compare(res.Rows[i][1]) < 0 {
				t.Fatalf("query %d: rows out of order at %d", qi, i)
			}
		}
	}
}

// TestOrderByLimitFallback checks ORDER BY / LIMIT without any index —
// the sort+truncate fallback — under every strategy.
func TestOrderByLimitFallback(t *testing.T) {
	for _, s := range []Strategy{CostModel, Materialized, NeverReuse} {
		db := openTPCH(t, WithStrategy(s), WithAblations(Ablations{NoSecondaryIndexes: true}))
		res, err := db.Exec(`SELECT l.l_orderkey, l.l_extendedprice FROM lineitem l
		    WHERE l.l_shipdate >= DATE '1995-03-01'
		    ORDER BY l.l_extendedprice DESC LIMIT 5`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5 {
			t.Fatalf("%v: rows = %d, want 5", s, len(res.Rows))
		}
		for i := 1; i < len(res.Rows); i++ {
			if res.Rows[i-1][1].Compare(res.Rows[i][1]) < 0 {
				t.Fatalf("%v: rows out of order at %d", s, i)
			}
		}
	}
}
