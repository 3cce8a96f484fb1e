package hashstash

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hashstash/internal/types"
)

func openTPCH(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db := Open(opts...)
	if err := db.LoadTPCH(0.002); err != nil {
		t.Fatal(err)
	}
	return db
}

const q3SQL = `
	SELECT c.c_age, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue
	FROM customer c, orders o, lineitem l
	WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
	  AND l.l_shipdate >= DATE '1995-03-15'
	GROUP BY c.c_age`

func canonical(r *Result) []string {
	out := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		var parts []string
		for _, v := range row {
			if v.Kind == types.Float64 {
				parts = append(parts, fmt.Sprintf("%.4f", v.F))
			} else {
				parts = append(parts, v.String())
			}
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

func TestExecBasics(t *testing.T) {
	db := openTPCH(t)
	res, err := db.Exec(q3SQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if res.Columns[0] != "c.c_age" || res.Columns[1] != "revenue" {
		t.Errorf("columns = %v", res.Columns)
	}
	if db.CacheStats().Registered == 0 {
		t.Error("no hash tables cached")
	}
}

// q3Window renders a q3-shaped aggregate over the shipdate window
// [lo, hi) (hi "" leaves it open), with an AVG that the optimizer
// rewrites to SUM+COUNT.
func q3Window(lo, hi string) string {
	sql := `SELECT c.c_age, SUM(l.l_extendedprice) AS revenue, AVG(l.l_extendedprice) AS avg_price
		FROM customer c, orders o, lineitem l
		WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
		  AND l.l_shipdate >= DATE '` + lo + `'`
	if hi != "" {
		sql += ` AND l.l_shipdate < DATE '` + hi + `'`
	}
	return sql + ` GROUP BY c.c_age`
}

// spjWindow renders a join without aggregation whose build side, the
// orders table, is filtered to the orderdate window [lo, hi).
func spjWindow(lo, hi string) string {
	return `SELECT o.o_orderkey, l.l_extendedprice FROM orders o, lineitem l
		WHERE o.o_orderkey = l.l_orderkey
		  AND o.o_orderdate >= DATE '` + lo + `' AND o.o_orderdate < DATE '` + hi + `'`
}

// TestEnginesAgree runs one query sequence under the cost model and the
// materialized baseline and compares each answer, columns included,
// with NeverReuse's. The
// sequence reruns a query (exact aggregate reuse), narrows a window
// (subsuming reuse), widens past everything cached (the baseline has
// no partial reuse) and ends on a join without aggregation whose
// window narrows: the materialized baseline rebuilds its join's hash
// table from the cached one. The baseline also runs under a cache
// budget far below its working set, where LRU eviction fires.
func TestEnginesAgree(t *testing.T) {
	sqls := []string{
		q3SQL,
		q3SQL,
		q3Window("1995-01-01", "1995-12-01"),
		q3Window("1995-01-01", "1995-12-01"),
		q3Window("1995-03-01", "1995-06-01"),
		q3Window("1994-01-01", ""),
		spjWindow("1995-01-01", "1995-06-01"),
		spjWindow("1995-02-01", "1995-03-01"),
	}
	ref := openTPCH(t, WithStrategy(NeverReuse))
	want := make([]*Result, len(sqls))
	for i, sql := range sqls {
		res, err := ref.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	const smallBudget = 64 << 10
	configs := []struct {
		name string
		opts []Option
	}{
		{"hashstash", []Option{WithStrategy(CostModel)}},
		{"materialized", []Option{WithStrategy(Materialized)}},
		{"materialized/small-budget", []Option{WithStrategy(Materialized), WithTuning(Tuning{CacheBudget: smallBudget})}},
	}
	for _, cfg := range configs {
		db := openTPCH(t, cfg.opts...)
		modes := map[string]int{}
		for i, sql := range sqls {
			got, err := db.Exec(sql)
			if err != nil {
				t.Fatalf("%s query %d: %v", cfg.name, i, err)
			}
			if strings.Join(got.Columns, ",") != strings.Join(want[i].Columns, ",") {
				t.Fatalf("%s query %d: columns %v, want %v", cfg.name, i, got.Columns, want[i].Columns)
			}
			cg, cw := canonical(got), canonical(want[i])
			if len(cg) != len(cw) {
				t.Fatalf("%s query %d: %d vs %d rows", cfg.name, i, len(cg), len(cw))
			}
			for j := range cg {
				if cg[j] != cw[j] {
					t.Fatalf("%s query %d row %d: %s vs %s", cfg.name, i, j, cg[j], cw[j])
				}
			}
			for _, d := range got.Decisions {
				op := "agg"
				if strings.HasPrefix(d.Operator, "build") {
					op = "build"
				}
				modes[op+":"+d.Mode.String()]++
			}
		}
		st := db.CacheStats()
		if st.Registered == 0 || st.Hits == 0 {
			t.Errorf("%s: registered %d, hits %d; want both > 0", cfg.name, st.Registered, st.Hits)
		}
		if cfg.name == "hashstash" {
			continue
		}
		for _, m := range []string{"build:partial", "build:overlapping", "agg:partial", "agg:overlapping"} {
			if modes[m] > 0 {
				t.Errorf("%s: the baseline took %d %s decisions", cfg.name, modes[m], m)
			}
		}
		if cfg.name == "materialized" && (modes["agg:exact"] == 0 || modes["build:subsuming"] == 0) {
			t.Errorf("%s: want exact aggregate and subsuming join-input reuse, got %v", cfg.name, modes)
		}
		if cfg.name == "materialized/small-budget" && (st.Evictions == 0 || st.Bytes > smallBudget) {
			t.Errorf("%s: %d evictions, %d bytes cached; want evictions within %d bytes", cfg.name, st.Evictions, st.Bytes, smallBudget)
		}
	}
}

// TestMaterializedBaselineTracksTheCache: the baseline caches in the
// engine's one cache like every strategy, so an insert drops its stale
// aggregate and ClearCache empties it.
func TestMaterializedBaselineTracksTheCache(t *testing.T) {
	rows := make([][]Value, 20)
	for i := range rows {
		rows[i] = []Value{types.NewInt(int64(i % 2)), types.NewFloat(1)}
	}
	open := func(s Strategy) *DB {
		db := Open(WithStrategy(s))
		if err := db.CreateTable("f", map[string]Kind{"k": types.Int64, "v": types.Float64}, []string{"k", "v"}); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertRows("f", rows); err != nil {
			t.Fatal(err)
		}
		return db
	}
	const sql = `SELECT f.k, SUM(f.v) AS s FROM f f GROUP BY f.k`
	mat, ref := open(Materialized), open(NeverReuse)
	for i := 0; i < 2; i++ {
		if _, err := mat.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if mat.CacheStats().Hits == 0 {
		t.Fatal("the rerun did not reuse the cached aggregate")
	}
	for _, db := range []*DB{mat, ref} {
		if err := db.InsertRows("f", rows); err != nil {
			t.Fatal(err)
		}
	}
	got, err := mat.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if cg, cw := canonical(got), canonical(want); strings.Join(cg, ";") != strings.Join(cw, ";") {
		t.Fatalf("after the insert: %v, want %v", cg, cw)
	}

	mat.ClearCache()
	if n := mat.CacheStats().Entries; n != 0 {
		t.Fatalf("ClearCache left %d entries", n)
	}
}

func TestExecBatch(t *testing.T) {
	db := openTPCH(t)
	sqls := []string{
		strings.Replace(q3SQL, "1995-03-15", "1995-02-01", 1),
		strings.Replace(q3SQL, "1995-03-15", "1995-04-01", 1),
	}
	results, err := db.ExecBatch(sqls)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0] == nil || results[1] == nil {
		t.Fatalf("results = %v", results)
	}
	// Batch results must match individual execution.
	ref := openTPCH(t, WithStrategy(NeverReuse))
	for i, sql := range sqls {
		want, err := ref.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		cg, cw := canonical(results[i]), canonical(want)
		if len(cg) != len(cw) {
			t.Fatalf("batch query %d: %d vs %d rows", i, len(cg), len(cw))
		}
		for j := range cg {
			if cg[j] != cw[j] {
				t.Fatalf("batch query %d row %d", i, j)
			}
		}
	}
}

func TestCustomTable(t *testing.T) {
	db := Open()
	err := db.CreateTable("events",
		map[string]Kind{"user_id": types.Int64, "kind": types.String, "amount": types.Float64},
		[]string{"user_id", "kind", "amount"})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]Value
	for i := 0; i < 100; i++ {
		kind := "view"
		if i%3 == 0 {
			kind = "buy"
		}
		rows = append(rows, []Value{
			types.NewInt(int64(i % 10)),
			types.NewString(kind),
			types.NewFloat(float64(i)),
		})
	}
	if err := db.InsertRows("events", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("events", "amount"); err != nil {
		t.Fatal(err)
	}
	// The declared index is a cached tree the next range query probes
	// without building another.
	builds := db.CacheStats().Index.Builds
	if _, err := db.Exec(`SELECT user_id, amount FROM events WHERE amount >= 97`); err != nil {
		t.Fatal(err)
	}
	if st := db.CacheStats().Index; st.RangeProbes < 1 || st.Builds != builds {
		t.Errorf("range query after BuildIndex: %+v, want a probe and %d builds", st, builds)
	}
	if err := checkAtRest(db); err != nil {
		t.Error(err)
	}
	res, err := db.Exec(`SELECT user_id, COUNT(*) AS n, SUM(amount) AS total
		FROM events WHERE kind = 'buy' GROUP BY user_id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("%d groups, want 10", len(res.Rows))
	}
	// Errors:
	if err := db.CreateTable("events", nil, nil); err == nil {
		t.Error("duplicate table accepted")
	}
	if err := db.InsertRows("nope", nil); err == nil {
		t.Error("insert into unknown table accepted")
	}
	if err := db.BuildIndex("nope", "x"); err == nil {
		t.Error("index on unknown table accepted")
	}
	if err := db.BuildIndex("events", "nope"); err == nil {
		t.Error("index on unknown column accepted")
	}
	if err := db.CreateTable("bad", map[string]Kind{}, []string{"missing"}); err == nil {
		t.Error("missing column kind accepted")
	}
	if got := db.Tables(); len(got) != 1 || got[0] != "events" {
		t.Errorf("Tables = %v", got)
	}
}

func TestCacheBudgetAndClear(t *testing.T) {
	db := openTPCH(t, WithTuning(Tuning{CacheBudget: 1 << 20}))
	if _, err := db.Exec(q3SQL); err != nil {
		t.Fatal(err)
	}
	if db.CacheStats().Bytes > 1<<20 {
		t.Errorf("cache over budget: %d", db.CacheStats().Bytes)
	}
	db.SetCacheBudget(1) // evict everything
	if n := db.CacheStats().Entries; n != 0 {
		t.Errorf("%d entries survive a 1-byte budget", n)
	}
	db.SetCacheBudget(0)
	if _, err := db.Exec(q3SQL); err != nil {
		t.Fatal(err)
	}
	db.ClearCache()
	if n := db.CacheStats().Entries; n != 0 {
		t.Errorf("%d entries survive ClearCache", n)
	}
}

func TestExecParseError(t *testing.T) {
	db := openTPCH(t)
	if _, err := db.Exec("SELECT FROM"); err == nil {
		t.Error("bad SQL accepted")
	}
	if _, err := db.ExecBatch([]string{"SELECT FROM"}); err == nil {
		t.Error("bad SQL batch accepted")
	}
}

func TestStrategiesViaFacade(t *testing.T) {
	for _, s := range []Strategy{CostModel, NeverReuse, AlwaysReuse} {
		db := openTPCH(t, WithStrategy(s))
		if _, err := db.Exec(q3SQL); err != nil {
			t.Fatalf("strategy %v: %v", s, err)
		}
		if _, err := db.Exec(q3SQL); err != nil {
			t.Fatalf("strategy %v rerun: %v", s, err)
		}
	}
}

func TestAblationOptions(t *testing.T) {
	db := openTPCH(t, WithAblations(Ablations{NoBenefitOptimizations: true, NoPartialReuse: true, NoOverlappingReuse: true}))
	if _, err := db.Exec(q3SQL); err != nil {
		t.Fatal(err)
	}
	wider := strings.Replace(q3SQL, "1995-03-15", "1995-01-01", 1)
	res, err := db.Exec(wider)
	if err != nil {
		t.Fatal(err)
	}
	// Partial reuse disabled → the aggregation must not be partial.
	for _, d := range res.Decisions {
		if d.Mode.String() == "partial" || d.Mode.String() == "overlapping" {
			t.Errorf("disabled mode chosen: %v", d)
		}
	}
}

// TestRepeatedSelectColumn: a column selected twice — bare, under two
// aliases, or next to an aggregate — answers with both cells equal and
// as many rows as selecting it once.
func TestRepeatedSelectColumn(t *testing.T) {
	cases := []struct{ sql, once string }{
		{"SELECT c.c_age, c.c_age FROM customer c LIMIT 2", ""},
		{"SELECT c.c_age AS a, c.c_age AS b FROM customer c LIMIT 2", ""},
		{"SELECT c.c_age, c.c_age, COUNT(*) AS n FROM customer c GROUP BY c.c_age",
			"SELECT c.c_age, COUNT(*) AS n FROM customer c GROUP BY c.c_age"},
	}
	db := openTPCH(t)
	for _, tc := range cases {
		res, err := db.Exec(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		want := 2
		if tc.once != "" {
			once, err := db.Exec(tc.once)
			if err != nil {
				t.Fatalf("%s: %v", tc.once, err)
			}
			want = len(once.Rows)
		}
		if len(res.Rows) != want {
			t.Errorf("%s: %d rows, want %d", tc.sql, len(res.Rows), want)
		}
		for _, row := range res.Rows {
			if len(row) != len(res.Columns) || row[0] != row[1] {
				t.Errorf("%s: row %v for columns %v", tc.sql, row, res.Columns)
				break
			}
		}
	}
}
