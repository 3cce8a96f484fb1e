package hashstash

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"hashstash/hashstasherr"
	"hashstash/internal/expr"
	"hashstash/internal/faultinject"
	"hashstash/internal/storage"
	"hashstash/internal/types"
	"hashstash/internal/workload"
)

// goldenQueries covers aggregates, joins, ORDER BY ... LIMIT and a
// customer-key point query.
var goldenQueries = []struct {
	name string
	sql  string
}{
	{"filter-scan", `SELECT c.c_name, c.c_age FROM customer c WHERE c.c_age BETWEEN 25 AND 40`},
	{"string-in-set", `SELECT c.c_mktsegment, COUNT(*) AS n FROM customer c
		WHERE c.c_mktsegment IN ('BUILDING', 'AUTOMOBILE') GROUP BY c.c_mktsegment`},
	{"copartitioned-join", `SELECT c.c_age, SUM(o.o_totalprice) AS spend
		FROM customer c, orders o WHERE c.c_custkey = o.o_custkey GROUP BY c.c_age`},
	{"exchange-join", `SELECT o.o_orderstatus, COUNT(*) AS n, SUM(l.l_extendedprice) AS rev
		FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey
		  AND l.l_shipdate >= DATE '1995-01-01' GROUP BY o.o_orderstatus`},
	{"replicated-dim-join", `SELECT s.s_nationkey, COUNT(*) AS n
		FROM supplier s, lineitem l WHERE s.s_suppkey = l.l_suppkey GROUP BY s.s_nationkey`},
	{"avg-superset-groupby", `SELECT c.c_age, AVG(o.o_totalprice) AS avgspend
		FROM customer c, orders o WHERE c.c_custkey = o.o_custkey
		GROUP BY c.c_age, c.c_nationkey`},
	{"order-by-limit", `SELECT o.o_orderkey, o.o_totalprice FROM orders o
		WHERE o.o_totalprice >= 1000 ORDER BY o.o_orderkey LIMIT 25`},
	{"agg-order-by-limit", `SELECT c.c_age, COUNT(*) AS n FROM customer c
		GROUP BY c.c_age ORDER BY c.c_age DESC LIMIT 10`},
	{"q3", q3SQL},
	{"single-shard-point", `SELECT c.c_age, SUM(o.o_totalprice) AS spend
		FROM customer c, orders o WHERE c.c_custkey = o.o_custkey
		  AND c.c_custkey = 42 GROUP BY c.c_age`},
}

// tpchPartitionKeys is the placement the sharded benchmark declares:
// customer and orders on the customer key, lineitem on its order key.
func tpchPartitionKeys() []Option {
	return []Option{
		WithPartitionKey("customer", "c_custkey"),
		WithPartitionKey("orders", "o_custkey"),
		WithPartitionKey("lineitem", "l_orderkey"),
	}
}

// openShimmedTPCH opens a TPC-H database through the deprecated
// sharding options — Tuning.Shards = shards and tpchPartitionKeys —
// which are ignored. Tests that keep a shards= case run through it, so
// each such case also checks that the options change no answer. A
// WithTuning in opts replaces the whole Tuning, so it sets Shards too.
func openShimmedTPCH(t *testing.T, shards int, opts ...Option) *DB {
	t.Helper()
	all := append([]Option{WithTuning(Tuning{Shards: shards})}, tpchPartitionKeys()...)
	return openTPCH(t, append(all, opts...)...)
}

// sortRows orders rows by their full canonical rendering so two row
// multisets can be compared pairwise.
func sortRows(rows [][]Value) [][]Value {
	out := append([][]Value(nil), rows...)
	key := func(r []Value) string {
		s := ""
		for _, v := range r {
			if v.Kind == types.Float64 {
				s += fmt.Sprintf("|%.6g", v.F)
			} else {
				s += "|" + v.String()
			}
		}
		return s
	}
	sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

// assertSameRows compares result row multisets with a relative float
// tolerance: a float sum may add in another order under reuse or on
// another worker count and differ in the last few bits.
func assertSameRows(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	g, w := sortRows(got.Rows), sortRows(want.Rows)
	for i := range g {
		if len(g[i]) != len(w[i]) {
			t.Fatalf("%s row %d: %d cells, want %d", label, i, len(g[i]), len(w[i]))
		}
		for j := range g[i] {
			a, b := g[i][j], w[i][j]
			if a.Kind == types.Float64 || b.Kind == types.Float64 {
				af, bf := a.AsFloat(), b.AsFloat()
				scale := math.Max(1, math.Max(math.Abs(af), math.Abs(bf)))
				if math.Abs(af-bf) > 1e-6*scale {
					t.Fatalf("%s row %d col %d: %v vs %v", label, i, j, af, bf)
				}
				continue
			}
			if a.Compare(b) != 0 {
				t.Fatalf("%s row %d col %d: %v vs %v", label, i, j, a, b)
			}
		}
	}
}

// TestShardedGoldenEquivalence: the engine must return exactly the rows
// of a NeverReuse reference for every merge shape, opened with the
// ignored shard counts 1 and 4. Each query runs twice so the second run
// exercises reuse of the cached artifacts.
func TestShardedGoldenEquivalence(t *testing.T) {
	ref := openTPCH(t, WithStrategy(NeverReuse))
	for _, shards := range []int{1, 4} {
		db := openShimmedTPCH(t, shards)
		for _, tc := range goldenQueries {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, tc.name), func(t *testing.T) {
				want, err := ref.Exec(tc.sql)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := db.Exec(tc.sql); err != nil {
					t.Fatal(err)
				}
				got, err := db.Exec(tc.sql) // reuse pass
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Columns) != len(want.Columns) {
					t.Fatalf("columns %v, want %v", got.Columns, want.Columns)
				}
				for i := range got.Columns {
					if got.Columns[i] != want.Columns[i] {
						t.Fatalf("columns %v, want %v", got.Columns, want.Columns)
					}
				}
				// Ordered queries must agree row-for-row before the
				// canonical multiset comparison.
				if tc.name == "order-by-limit" || tc.name == "agg-order-by-limit" {
					for i := range got.Rows {
						if got.Rows[i][0].Compare(want.Rows[i][0]) != 0 {
							t.Fatalf("row %d out of order: %v vs %v", i, got.Rows[i][0], want.Rows[i][0])
						}
					}
				}
				assertSameRows(t, tc.name, got, want)
			})
		}
	}
}

// TestPinnedLookupAnswers: customer-key point queries answer as a
// NeverReuse engine does, whether the pin sits on customer, on orders
// alone, or at the far end of a three-relation chain of custkey joins,
// and so does an unconstrained aggregate run between them.
func TestPinnedLookupAnswers(t *testing.T) {
	db := openTPCH(t)
	ref := openTPCH(t, WithStrategy(NeverReuse))
	pinned := []string{
		`SELECT c.c_age, SUM(o.o_totalprice) AS spend FROM customer c, orders o
			WHERE c.c_custkey = o.o_custkey AND c.c_custkey = %d GROUP BY c.c_age`,
		`SELECT c.c_age, SUM(o.o_totalprice) AS spend FROM customer c, orders o
			WHERE c.c_custkey = o.o_custkey AND o.o_custkey = %d GROUP BY c.c_age`,
		`SELECT c.c_age, COUNT(*) AS n FROM customer c, orders o, orders o2
			WHERE c.c_custkey = o.o_custkey AND o.o_custkey = o2.o_custkey AND o2.o_custkey = %d
			GROUP BY c.c_age`,
	}
	for key := int64(1); key <= 24; key++ {
		for _, tmpl := range pinned {
			sql := fmt.Sprintf(tmpl, key)
			assertSameRows(t, sql, mustExec(t, db, sql), mustExec(t, ref, sql))
		}
	}
	const unpinned = `SELECT c.c_age, COUNT(*) AS n FROM customer c GROUP BY c.c_age`
	assertSameRows(t, unpinned, mustExec(t, db, unpinned), mustExec(t, ref, unpinned))
}

// TestShardedBaselines: each baseline answers q3, a customer ⋈ orders
// window, the window widened (partial reuse under the cost model), its
// rerun and a customer-key lookup as a NeverReuse database does, opened
// with the ignored four-shard layout. The materialized baseline never
// widens a cached table, reuses one on the rerun, and leaves the cache
// consistent.
func TestShardedBaselines(t *testing.T) {
	const window = `SELECT c.c_age, SUM(o.o_totalprice) AS spend FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND o.o_orderdate >= DATE '%s' GROUP BY c.c_age`
	const lookup = `SELECT c.c_age, SUM(o.o_totalprice) AS spend FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND c.c_custkey = 42 GROUP BY c.c_age`
	wide := fmt.Sprintf(window, "1995-01-01")
	sqls := []string{q3SQL, fmt.Sprintf(window, "1995-06-01"), wide, wide, lookup}
	const rerun = 3
	ref := openTPCH(t, WithStrategy(NeverReuse))
	want := make([]*Result, len(sqls))
	for i, sql := range sqls {
		want[i] = mustExec(t, ref, sql)
	}
	for _, s := range []Strategy{NeverReuse, Materialized} {
		t.Run(fmt.Sprintf("%v/shards=4", s), func(t *testing.T) {
			db := openShimmedTPCH(t, 4, WithStrategy(s))
			for i, sql := range sqls {
				hits := db.CacheStats().Hits
				got, err := db.Exec(sql)
				if err != nil {
					t.Fatal(err)
				}
				assertSameRows(t, fmt.Sprintf("query %d", i), got, want[i])
				if s != Materialized {
					continue
				}
				for _, d := range got.Decisions {
					if m := d.Mode.String(); m == "partial" || m == "overlapping" {
						t.Errorf("query %d: the baseline took a %s decision on %s", i, m, d.Operator)
					}
				}
				if i == rerun && db.CacheStats().Hits == hits {
					t.Error("the rerun did not hit the cache")
				}
				if err := checkAtRest(db); err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
			}
		})
	}
}

// TestShardedBatch: a batch of customer ⋈ orders lookups and date
// windows answers as NeverReuse solo does, runs at most as many plans as
// it has members, and leaves the cache at rest, opened with the ignored
// shard counts 2 and 4. On a cold cache the six lookups share one plan.
// The batch runs twice, so the second run meets the first one's tables.
func TestShardedBatch(t *testing.T) {
	const lookup = `SELECT c.c_name, o.o_totalprice FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND c.c_custkey = %d AND o.o_orderdate >= DATE '1995-01-01'`
	const window = `SELECT c.c_name, o.o_totalprice FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND o.o_orderdate >= DATE '%d-01-01'`
	ref := openTPCH(t, WithStrategy(NeverReuse))
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := openShimmedTPCH(t, shards)
			var sqls []string
			var lookups []int
			for key := int64(1); len(lookups) < 6; key += 7 {
				if len(lookups) == 1 || len(lookups) == 4 {
					sqls = append(sqls, fmt.Sprintf(window, 1993+len(lookups)))
				}
				lookups = append(lookups, len(sqls))
				sqls = append(sqls, fmt.Sprintf(lookup, key))
			}
			queries := make([]*Query, len(sqls))
			for i, sql := range sqls {
				q, err := db.Parse(sql)
				if err != nil {
					t.Fatal(err)
				}
				queries[i] = q
			}
			for run := 0; run < 2; run++ {
				br, err := db.ExecParsedBatch(context.Background(), queries)
				if err != nil {
					t.Fatal(err)
				}
				members := 0
				for _, g := range br.Groups {
					members += len(g)
				}
				if members != len(queries) {
					t.Fatalf("run %d: groups %v cover %d of %d queries", run, br.Groups, members, len(queries))
				}
				if run == 0 && !slicesContainAll(br.Groups, lookups) {
					t.Fatalf("groups %v, want the lookups %v in one shared plan", br.Groups, lookups)
				}
				for i, sql := range sqls {
					assertSameRows(t, fmt.Sprintf("run %d query %d", run, i), br.Results[i], mustExec(t, ref, sql))
				}
				if err := checkAtRest(db); err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
			}
		})
	}
}

// slicesContainAll reports whether one group holds every index of want.
func slicesContainAll(groups [][]int, want []int) bool {
	for _, g := range groups {
		in := map[int]bool{}
		for _, i := range g {
			in[i] = true
		}
		all := true
		for _, i := range want {
			all = all && in[i]
		}
		if all {
			return true
		}
	}
	return false
}

// TestReplicatedInsertMovesEstimates: rows inserted into a table reach
// the catalog's estimates — the row count and a column's range —
// although nothing re-registers the table.
func TestReplicatedInsertMovesEstimates(t *testing.T) {
	db := Open()
	if err := db.CreateTable("rt", map[string]Kind{"k": types.Int64}, []string{"k"}); err != nil {
		t.Fatal(err)
	}
	insert := func(lo, hi int64) {
		t.Helper()
		var rows [][]Value
		for k := lo; k < hi; k++ {
			rows = append(rows, []Value{types.NewInt(k)})
		}
		if err := db.InsertRows("rt", rows); err != nil {
			t.Fatal(err)
		}
	}
	upper := expr.NewBox(expr.Pred{
		Col: storage.ColRef{Table: "r", Column: "k"},
		Con: expr.IntervalConstraint(types.Int64, expr.Interval{HasLo: true, Lo: types.NewInt(150), LoIncl: true}),
	})
	estimate := func() (int64, float64) {
		ts, ok := db.cat.Stats("rt")
		if !ok {
			t.Fatal("the catalog does not know rt")
		}
		return ts.Rows, ts.EstimateRows(upper)
	}
	insert(0, 100)
	if rows, est := estimate(); rows != 100 || est != 0 {
		t.Fatalf("before: rows %d, k >= 150 estimate %g; want 100, 0", rows, est)
	}
	insert(100, 200)
	if rows, est := estimate(); rows != 200 || est < 40 || est > 60 {
		t.Errorf("after: rows %d, k >= 150 estimate %g; want 200, ~50", rows, est)
	}
}

// TestShardedInsertInvalidation: inserting rows into a table drops the
// cached artifacts over it and leaves those over other tables warm, and
// the post-insert answer over the table is correct.
func TestShardedInsertInvalidation(t *testing.T) {
	db := Open()
	for _, name := range []string{"pt", "other"} {
		if err := db.CreateTable(name, map[string]Kind{"k": types.Int64, "g": types.Int64, "v": types.Float64}, []string{"k", "g", "v"}); err != nil {
			t.Fatal(err)
		}
		rows := make([][]Value, 0, 4000)
		for i := 0; i < 4000; i++ {
			rows = append(rows, []Value{
				types.NewInt(int64(i)),
				types.NewInt(int64(i % 8)),
				types.NewFloat(float64(i) * 0.5),
			})
		}
		if err := db.InsertRows(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the cache with point queries over both tables.
	for k := 0; k < 4; k++ {
		for _, name := range []string{"pt", "other"} {
			if _, err := db.Exec(fmt.Sprintf(`SELECT p.g, SUM(p.v) AS total FROM %s p WHERE p.k = %d GROUP BY p.g`, name, k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := db.CacheStats().Entries
	if before < 2 {
		t.Fatalf("%d cached artifacts after warmup, want some over each table", before)
	}

	err := db.InsertRows("pt", [][]Value{{types.NewInt(999_983), types.NewInt(3), types.NewFloat(1.5)}})
	if err != nil {
		t.Fatal(err)
	}
	after := db.CacheStats().Entries
	if after == 0 || after >= before {
		t.Fatalf("cached artifacts went from %d to %d after the insert, want the other table's kept and pt's dropped", before, after)
	}

	res, err := db.Exec(`SELECT p.g, SUM(p.v) AS total FROM pt p GROUP BY p.g`)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, row := range res.Rows {
		total += row[1].AsFloat()
	}
	want := 0.0
	for i := 0; i < 4000; i++ {
		want += float64(i) * 0.5
	}
	want += 1.5
	if math.Abs(total-want) > 1e-6*want {
		t.Fatalf("post-insert total %v, want %v", total, want)
	}
}

// TestInsertRowsRejectsBadRows: a row of the wrong arity, or a value of
// a kind its column does not take, fails InsertRows with an error that
// names the row (and the column), and leaves the table untouched —
// including the rows before the bad one in the same call. A Date column
// takes an Int64 day number, as Column.Append does.
func TestInsertRowsRejectsBadRows(t *testing.T) {
	db := Open()
	if err := db.CreateTable("t", map[string]Kind{"a": types.Int64, "b": types.Int64, "c": types.String, "d": types.Date},
		[]string{"a", "b", "c", "d"}); err != nil {
		t.Fatal(err)
	}
	good := []Value{types.NewInt(1), types.NewInt(2), types.NewString("x"), types.NewInt(9000)}
	if err := db.InsertRows("t", [][]Value{good}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		row  []Value
		want string
	}{
		{"wrong kind", []Value{types.NewInt(1), types.NewInt(2), types.NewInt(3), types.NewInt(4)}, `row 1: storage: int64 value for string column "c"`},
		{"too few", []Value{types.NewInt(1), types.NewInt(2)}, "row 1: storage: 2 values for the 4 columns"},
		{"too many", append(append([]Value(nil), good...), types.NewInt(5)), "row 1: storage: 5 values for the 4 columns"},
	} {
		err := db.InsertRows("t", [][]Value{good, tc.row})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: InsertRows = %v, want an error containing %q", tc.name, err, tc.want)
		}
		tbl := db.cat.Table("t")
		if err := tbl.Check(); err != nil || tbl.NumRows() != 1 {
			t.Fatalf("%s: table has %d rows (check: %v), want the 1 it had", tc.name, tbl.NumRows(), err)
		}
		if n := mustExec(t, db, `SELECT COUNT(*) AS n FROM t x`).Rows[0][0].I; n != 1 {
			t.Fatalf("%s: COUNT(*) = %d, want 1", tc.name, n)
		}
	}
	if err := db.InsertRows("missing", [][]Value{good}); !errors.Is(err, hashstasherr.ErrUnknownTable) {
		t.Errorf("insert into a missing table = %v, want ErrUnknownTable", err)
	}
}

// TestShardedConcurrentStorm drives point lookups and whole-table
// queries from many goroutines at once — the race-detector workout for
// one cache shared by every query.
func TestShardedConcurrentStorm(t *testing.T) {
	db := openTPCH(t)
	queries := []string{
		`SELECT c.c_age, SUM(o.o_totalprice) AS spend FROM customer c, orders o
		   WHERE c.c_custkey = o.o_custkey AND c.c_custkey = 7 GROUP BY c.c_age`,
		`SELECT c.c_age, SUM(o.o_totalprice) AS spend FROM customer c, orders o
		   WHERE c.c_custkey = o.o_custkey GROUP BY c.c_age`,
		`SELECT o.o_orderstatus, COUNT(*) AS n FROM orders o, lineitem l
		   WHERE o.o_orderkey = l.l_orderkey GROUP BY o.o_orderstatus`,
		`SELECT c.c_name, c.c_age FROM customer c WHERE c.c_age BETWEEN 30 AND 50`,
		`SELECT c.c_age, COUNT(*) AS n FROM customer c GROUP BY c.c_age ORDER BY c.c_age LIMIT 5`,
	}
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*len(queries))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < len(queries); i++ {
				sql := queries[(w+i)%len(queries)]
				if _, err := db.Exec(sql); err != nil {
					errs <- fmt.Errorf("worker %d query %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestShardedPublishPanicReleasesPins: a panic while a query publishes
// its widened snapshot — a query pinned to one fact key, and one over
// the whole table — leaks none of its pins. The cache ends at rest —
// nothing pinned, invariants intact — and both queries answer correctly
// once the fault is disarmed.
func TestShardedPublishPanicReleasesPins(t *testing.T) {
	const seed = 1
	db := openDiffDB(t, seed, WithStrategy(AlwaysReuse), WithTuning(Tuning{Parallelism: 1}))
	ref := openDiffDB(t, seed, WithStrategy(NeverReuse), WithTuning(Tuning{Parallelism: 1}))
	run := func(sql string) error {
		_, err := db.Exec(sql)
		return err
	}
	// pin adds a point constraint on fact's key.
	pin := func(sql string) string {
		return strings.Replace(sql, " GROUP BY", " AND f.f_id = 1 GROUP BY", 1)
	}

	// Unarmed, a wider window widens the cached aggregates, so the armed
	// runs below publish.
	agg := shapeNamed("agg-int")
	for _, sql := range []string{agg.render(0, 100), agg.render(0, 160)} {
		for _, sql := range []string{sql, pin(sql)} {
			if err := run(sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	if db.CacheStats().WidenPublished == 0 {
		t.Fatal("no widened snapshot was published")
	}

	day := shapeNamed("agg-date")
	whole := func(sql string) string { return sql }
	var wides []string
	for _, place := range []func(string) string{pin, whole} {
		narrow, wide := place(day.render(0, 40)), place(day.render(0, 90))
		wides = append(wides, wide)
		if err := run(narrow); err != nil {
			t.Fatal(err)
		}
		if err := faultinject.Arm("htcache.publish=panic:once"); err != nil {
			t.Fatal(err)
		}
		err := run(wide)
		hits := faultinject.Fired(faultinject.HTCachePublish)
		faultinject.Disarm()
		if !errors.Is(err, hashstasherr.ErrInternal) {
			t.Fatalf("panicking publication = %v, want ErrInternal", err)
		}
		if hits != 1 {
			t.Fatalf("the publish point was hit %d times, want once", hits)
		}
	}

	if err := checkAtRest(db); err != nil {
		t.Errorf("after the contained panics: %v", err)
	}
	for _, sql := range wides {
		got, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameAnswer(normalize(want), normalize(got)); err != nil {
			t.Fatalf("answer after the contained panic: %v", err)
		}
	}
}

// TestDeprecatedShardingShims: the sharding options the benchmark still
// passes are ignored. A database opened with Tuning.Shards and a
// partition key answers the sharded trace's point lookups and date
// windows as a plain one does, reports no per-shard counts, and keeps
// the whole cache budget.
func TestDeprecatedShardingShims(t *testing.T) {
	const budget = 64 << 20
	shim := openTPCH(t, WithTuning(Tuning{Shards: 2, CacheBudget: budget}), WithPartitionKey("orders", "o_custkey"))
	plain := openTPCH(t)
	if got := shim.ShardQueryCounts(); got != nil {
		t.Errorf("ShardQueryCounts() = %v, want nil", got)
	}
	if got := shim.cache.Budget; got != budget {
		t.Errorf("cache budget %d, want the whole %d", got, budget)
	}
	steps := workload.GeneratePartitioned(workload.PartitionedConfig{N: 48, CrossShardFrac: 0.25, CustKeys: 300, Seed: 7})
	shapes := map[int]int{}
	for i, st := range steps {
		shapes[st.Shape]++
		got, err := shim.ExecParsed(context.Background(), st.Query)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want, err := plain.ExecParsed(context.Background(), st.Query)
		if err != nil {
			t.Fatalf("step %d reference: %v", i, err)
		}
		assertSameRows(t, fmt.Sprintf("step %d", i), got, want)
	}
	if shapes[0] == 0 || shapes[1] == 0 {
		t.Fatalf("trace shapes %v, want point lookups and date windows", shapes)
	}
}
