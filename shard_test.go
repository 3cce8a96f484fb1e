package hashstash

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"

	"hashstash/hashstasherr"
	"hashstash/internal/expr"
	"hashstash/internal/faultinject"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// tpchPartitionKeys is the placement the sharded tests run under:
// customer and orders co-partitioned on the customer key, lineitem
// partitioned on its own join key (so ORDERS ⋈ LINEITEM joins are
// deliberately not co-partitioned and run on the whole tables); part
// and supplier stay replicated.
func tpchPartitionKeys() []Option {
	return []Option{
		WithPartitionKey("customer", "c_custkey"),
		WithPartitionKey("orders", "o_custkey"),
		WithPartitionKey("lineitem", "l_orderkey"),
	}
}

func openShardedTPCH(t *testing.T, shards int, opts ...Option) *DB {
	t.Helper()
	all := append([]Option{WithTuning(Tuning{Shards: shards})}, tpchPartitionKeys()...)
	all = append(all, opts...)
	return openTPCH(t, all...)
}

// testShardCounts returns the shard counts the equivalence suite runs
// at: 1 (degenerate layout) and 4, and HASHSTASH_TEST_SHARDS adds an
// extra count — the CI race matrix uses it for its dedicated shards leg.
func testShardCounts(t *testing.T) []int {
	counts := []int{1, 4}
	if env := os.Getenv("HASHSTASH_TEST_SHARDS"); env != "" && env != "0" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 1 {
			t.Fatalf("HASHSTASH_TEST_SHARDS=%q", env)
		}
		if n != 1 && n != 4 {
			counts = append(counts, n)
		}
	}
	return counts
}

// shardGoldenQueries covers every scatter-gather merge shape plus
// queries that run on the whole tables and single-shard routing.
var shardGoldenQueries = []struct {
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
// tolerance: scatter legs sum partial aggregates in a different order
// than one global aggregation, so float sums may differ in the last
// few bits.
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

// TestShardedGoldenEquivalence: the sharded engine must return exactly
// the rows of the unsharded reference for every merge shape, at one
// shard (degenerate layout) and four. Each query runs twice so the
// second run exercises per-shard reuse of the cached artifacts.
func TestShardedGoldenEquivalence(t *testing.T) {
	ref := openTPCH(t, WithStrategy(NeverReuse))
	for _, shards := range testShardCounts(t) {
		db := openShardedTPCH(t, shards)
		if got := db.Shards(); got != shards {
			t.Fatalf("Shards() = %d, want %d", got, shards)
		}
		for _, tc := range shardGoldenQueries {
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

// TestShardedTablesHideWholeTables: a partitioned table's whole table is
// registered under a reserved name, which Tables does not list: a
// two-shard database lists exactly the tables a one-shard one does.
func TestShardedTablesHideWholeTables(t *testing.T) {
	want := openTPCH(t).Tables()
	if got := openShardedTPCH(t, 2).Tables(); !slices.Equal(got, want) {
		t.Fatalf("Tables() = %v at two shards, want %v", got, want)
	}
}

// TestShardedRouting: partition-key point queries execute on exactly
// one shard — observed through the per-shard query counters — whether
// the pin sits on customer, on orders alone, or at the far end of a
// three-relation chain of custkey joins, and answer as an unsharded
// engine does; the key space spreads across shards; unconstrained
// queries scatter to all of them.
func TestShardedRouting(t *testing.T) {
	const shards = 4
	db := openShardedTPCH(t, shards)
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
	hit := map[int]bool{}
	for key := int64(1); key <= 24; key++ {
		for _, tmpl := range pinned {
			sql := fmt.Sprintf(tmpl, key)
			before := db.ShardQueryCounts()
			got, err := db.Exec(sql)
			if err != nil {
				t.Fatal(err)
			}
			after := db.ShardQueryCounts()
			touched := -1
			for s := range after {
				switch after[s] - before[s] {
				case 0:
				case 1:
					if touched >= 0 {
						t.Fatalf("key %d touched shards %d and %d\n%s", key, touched, s, sql)
					}
					touched = s
				default:
					t.Fatalf("key %d: shard %d ran %d legs\n%s", key, s, after[s]-before[s], sql)
				}
			}
			if touched < 0 {
				t.Fatalf("key %d touched no shard\n%s", key, sql)
			}
			if want := storage.ShardOf(types.NewInt(key), shards); touched != want {
				t.Fatalf("key %d routed to shard %d, hash says %d\n%s", key, touched, want, sql)
			}
			hit[touched] = true
			want, err := ref.Exec(sql)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRows(t, sql, got, want)
		}
	}
	if len(hit) < 2 {
		t.Fatalf("24 keys all routed to %d shard(s)", len(hit))
	}

	// An unconstrained aggregate must scatter: every shard runs a leg.
	before := db.ShardQueryCounts()
	if _, err := db.Exec(`SELECT c.c_age, COUNT(*) AS n FROM customer c GROUP BY c.c_age`); err != nil {
		t.Fatal(err)
	}
	after := db.ShardQueryCounts()
	for s := range after {
		if after[s]-before[s] != 1 {
			t.Fatalf("scatter: shard %d ran %d legs, want 1", s, after[s]-before[s])
		}
	}
}

// TestShardedBaselines: the two baselines are strategies like any
// other, so they honour Tuning.Shards. At every sharded count each one
// answers q3, a co-partitioned window, the window widened (partial
// reuse under the cost model), its rerun and a customer-key lookup as
// one unsharded NeverReuse database does, and the lookup runs on
// exactly one shard. The materialized baseline never widens a cached
// table, reuses one on the rerun, and leaves every shard's cache
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
		res, err := ref.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	for _, n := range testShardCounts(t) {
		if n == 1 {
			continue
		}
		for _, s := range []Strategy{NeverReuse, Materialized} {
			t.Run(fmt.Sprintf("%v/shards=%d", s, n), func(t *testing.T) {
				db := openShardedTPCH(t, n, WithStrategy(s))
				if got := db.Shards(); got != n {
					t.Fatalf("Shards() = %d, want %d", got, n)
				}
				for i, sql := range sqls {
					hits, counts := db.CacheStats().Hits, db.ShardQueryCounts()
					got, err := db.Exec(sql)
					if err != nil {
						t.Fatal(err)
					}
					assertSameRows(t, fmt.Sprintf("query %d", i), got, want[i])
					if sql == lookup {
						advanced := 0
						for sh, c := range db.ShardQueryCounts() {
							advanced += int(c - counts[sh])
						}
						if advanced != 1 {
							t.Errorf("the lookup ran %d legs, want 1", advanced)
						}
					}
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
}

// TestShardedBatch: a batch on a sharded database takes the router's
// route. Customer ⋈ orders lookups pinned to one shard merge into one
// shared plan there, scattering members stay groups of one, and every
// answer equals NeverReuse solo. A routed member advances its shard's
// query counter once and a scatter advances every shard's once. The
// batch runs twice, so the second run meets the first one's tables.
func TestShardedBatch(t *testing.T) {
	counts := []int{2}
	for _, n := range testShardCounts(t) {
		if n > 2 {
			counts = append(counts, n)
		}
	}
	const lookup = `SELECT c.c_name, o.o_totalprice FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND c.c_custkey = %d AND o.o_orderdate >= DATE '1995-01-01'`
	const window = `SELECT c.c_name, o.o_totalprice FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND o.o_orderdate >= DATE '%d-01-01'`
	ref := openTPCH(t, WithStrategy(NeverReuse))
	for _, n := range counts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			db := openShardedTPCH(t, n)
			var sqls []string
			var pinned, scattered []int
			for key := int64(1); len(pinned) < 6; key++ {
				if storage.ShardOf(types.NewInt(key), n) != 0 {
					continue
				}
				if len(pinned) == 1 || len(pinned) == 4 {
					scattered = append(scattered, len(sqls))
					sqls = append(sqls, fmt.Sprintf(window, 1993+len(pinned)))
				}
				pinned = append(pinned, len(sqls))
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
				before := db.ShardQueryCounts()
				br, err := db.ExecParsedBatch(context.Background(), queries)
				if err != nil {
					t.Fatal(err)
				}
				after := db.ShardQueryCounts()
				for s := range after {
					want := int64(len(scattered))
					if s == 0 {
						want += int64(len(pinned))
					}
					if got := after[s] - before[s]; got != want {
						t.Fatalf("run %d: shard %d counted %d queries, want %d", run, s, got, want)
					}
				}
				// On a cold cache the six lookups share one plan; on a warm
				// one the cost model may keep some solo, but only lookups
				// ever share.
				if run == 0 && !slices.ContainsFunc(br.Groups, func(g []int) bool { return slices.Equal(g, pinned) }) {
					t.Fatalf("groups %v, want the pinned lookups %v in one shared plan", br.Groups, pinned)
				}
				for _, g := range br.Groups {
					if len(g) > 1 && slices.ContainsFunc(g, func(i int) bool { return !slices.Contains(pinned, i) }) {
						t.Fatalf("run %d: group %v holds more than pinned lookups %v", run, g, pinned)
					}
				}
				for _, i := range scattered {
					if !slices.ContainsFunc(br.Groups, func(g []int) bool { return slices.Equal(g, []int{i}) }) {
						t.Fatalf("run %d: groups %v, scatter %d not alone", run, br.Groups, i)
					}
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

// TestReplicatedInsertMovesEstimates: rows inserted into a replicated
// table reach the estimates of every shard's catalog — the row count
// and a column's range — although nothing re-registers the table.
func TestReplicatedInsertMovesEstimates(t *testing.T) {
	db := Open(WithTuning(Tuning{Shards: 2}))
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
	estimate := func(s int) (int64, float64) {
		ts, ok := db.router.Shard(s).Cat.Stats("rt")
		if !ok {
			t.Fatalf("shard %d does not know rt", s)
		}
		return ts.Rows, ts.EstimateRows(upper)
	}
	insert(0, 100)
	for s := 0; s < 2; s++ {
		if rows, est := estimate(s); rows != 100 || est != 0 {
			t.Fatalf("shard %d before: rows %d, k >= 150 estimate %g; want 100, 0", s, rows, est)
		}
	}
	insert(100, 200)
	for s := 0; s < 2; s++ {
		if rows, est := estimate(s); rows != 200 || est < 40 || est > 60 {
			t.Errorf("shard %d after: rows %d, k >= 150 estimate %g; want 200, ~50", s, rows, est)
		}
	}
}

// TestShardedInsertInvalidation: inserting rows into a partitioned
// table invalidates cached artifacts only on the shards whose
// fragments received rows — the other shards' caches stay warm.
func TestShardedInsertInvalidation(t *testing.T) {
	const shards = 4
	db := Open(WithTuning(Tuning{Shards: shards}), WithPartitionKey("pt", "k"))
	if err := db.CreateTable("pt", map[string]Kind{"k": types.Int64, "g": types.Int64, "v": types.Float64}, []string{"k", "g", "v"}); err != nil {
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
	if err := db.InsertRows("pt", rows); err != nil {
		t.Fatal(err)
	}

	warm := `SELECT p.g, SUM(p.v) AS total FROM pt p GROUP BY p.g`
	for i := 0; i < 2; i++ {
		if _, err := db.Exec(warm); err != nil {
			t.Fatal(err)
		}
	}
	before := db.ShardCacheStats()
	for s, st := range before {
		if st.Entries == 0 {
			t.Fatalf("shard %d has no cached artifacts after warmup", s)
		}
	}

	// One new row lands on exactly one shard.
	key := int64(999_983)
	target := storage.ShardOf(types.NewInt(key), shards)
	err := db.InsertRows("pt", [][]Value{{types.NewInt(key), types.NewInt(3), types.NewFloat(1.5)}})
	if err != nil {
		t.Fatal(err)
	}
	after := db.ShardCacheStats()
	for s := range after {
		if s == target {
			if after[s].Entries != 0 {
				t.Fatalf("target shard %d still caches %d artifacts after insert", s, after[s].Entries)
			}
			continue
		}
		if after[s].Entries != before[s].Entries {
			t.Fatalf("untouched shard %d went from %d to %d cached artifacts", s, before[s].Entries, after[s].Entries)
		}
	}

	// And the post-insert result is correct (the stale shard rebuilt).
	res, err := db.Exec(warm)
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

	// Aggregated stats fold the per-shard caches.
	agg := db.CacheStats()
	var sum int
	for _, st := range db.ShardCacheStats() {
		sum += st.Entries
	}
	if agg.Entries != sum {
		t.Fatalf("aggregate Entries %d != per-shard sum %d", agg.Entries, sum)
	}
}

// TestShardedConcurrentStorm drives point, scatter and whole-table
// queries from many goroutines at once — the race-detector workout for
// the router, the shared scheduler run, shard 0's cache shared by the
// whole-table runs and per-shard cache lifecycles.
func TestShardedConcurrentStorm(t *testing.T) {
	db := openShardedTPCH(t, 4)
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

// TestShardedPostHocPartition: PartitionTable re-keys a loaded table;
// queries still answer correctly and a point query routes afterwards.
func TestShardedPostHocPartition(t *testing.T) {
	db := Open(WithTuning(Tuning{Shards: 4})) // no declared keys: everything replicated
	if err := db.LoadTPCH(0.002); err != nil {
		t.Fatal(err)
	}
	ref := openTPCH(t, WithStrategy(NeverReuse))
	sql := `SELECT c.c_age, COUNT(*) AS n FROM customer c WHERE c.c_custkey = 11 GROUP BY c.c_age`

	// Replicated-only queries run on shard 0.
	before := db.ShardQueryCounts()
	if _, err := db.Exec(sql); err != nil {
		t.Fatal(err)
	}
	after := db.ShardQueryCounts()
	if after[0]-before[0] != 1 {
		t.Fatalf("replicated-only query ran %d legs on shard 0", after[0]-before[0])
	}

	if err := db.PartitionTable("customer", "c_custkey"); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	before = db.ShardQueryCounts()
	got, err := db.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	after = db.ShardQueryCounts()
	legs := 0
	for s := range after {
		legs += int(after[s] - before[s])
	}
	if legs != 1 {
		t.Fatalf("point query after PartitionTable ran %d legs, want 1", legs)
	}
	assertSameRows(t, "post-hoc", got, want)

	// A one-shard database is a router of one: the observability calls
	// report its single shard, every query advances that shard's counter
	// by one (TestMaterializedBaselineTracksTheCache asserts it for the
	// materialized baseline too), and there is nothing to partition
	// across.
	un := openTPCH(t)
	if un.Shards() != 1 || len(un.ShardCacheStats()) != 1 {
		t.Fatal("one-shard shard-observability defaults wrong")
	}
	for i := int64(0); i < 3; i++ {
		if c := un.ShardQueryCounts(); len(c) != 1 || c[0] != i {
			t.Fatalf("one-shard query counts after %d queries: %v", i, c)
		}
		if _, err := un.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if err := un.PartitionTable("customer", "c_custkey"); err == nil {
		t.Fatal("PartitionTable must require more than one shard")
	}
}

// TestShardedPublishPanicReleasesPins: a scatter finishes its legs one
// after another, and a panic while leg 0 publishes its widened snapshot
// must neither skip leg 1's finish nor leak either leg's pins. Both
// shards end at rest — nothing pinned, invariants intact — and the
// query answers correctly once the fault is disarmed.
func TestShardedPublishPanicReleasesPins(t *testing.T) {
	const seed = 1
	db := openDiffDB(t, seed, WithStrategy(AlwaysReuse), WithTuning(Tuning{Shards: 2, Parallelism: 1}))
	ref := openDiffDB(t, seed, WithStrategy(NeverReuse), WithTuning(Tuning{Parallelism: 1}))
	run := func(sql string) error {
		_, err := db.Exec(sql)
		return err
	}

	// Unarmed, a wider window widens the cached aggregate on every
	// shard, so the armed run below publishes on both legs.
	agg := shapeNamed("agg-int")
	for _, sql := range []string{agg.render(0, 100), agg.render(0, 160)} {
		if err := run(sql); err != nil {
			t.Fatal(err)
		}
	}
	for s, st := range db.ShardCacheStats() {
		if st.WidenPublished == 0 {
			t.Fatalf("shard %d published no widened snapshot", s)
		}
	}

	day := shapeNamed("agg-date")
	narrow, wide := day.render(0, 40), day.render(0, 90)
	if err := run(narrow); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm("htcache.publish=panic:once"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disarm()
	if err := run(wide); !errors.Is(err, hashstasherr.ErrInternal) {
		t.Fatalf("panicking publication = %v, want ErrInternal", err)
	}
	// Leg 0's publication panics; leg 1 still reaches its own.
	if hits := faultinject.Fired(faultinject.HTCachePublish); hits != 2 {
		t.Fatalf("the publish point was hit %d times, want once per leg", hits)
	}
	faultinject.Disarm()

	for s, st := range db.ShardCacheStats() {
		if st.Pinned != 0 {
			t.Errorf("shard %d: %d entries pinned after the contained panic", s, st.Pinned)
		}
		if err := db.router.Shard(s).Cache.CheckInvariants(); err != nil {
			t.Errorf("shard %d: %v", s, err)
		}
	}
	got, err := db.Exec(wide)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Exec(wide)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAnswer(normalize(want), normalize(got)); err != nil {
		t.Fatalf("answer after the contained panic: %v", err)
	}
}
