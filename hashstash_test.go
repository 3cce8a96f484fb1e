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

func TestEnginesAgree(t *testing.T) {
	ref := openTPCH(t, WithEngine(EngineNoReuse))
	want, err := ref.Exec(q3SQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{EngineHashStash, EngineMaterialized} {
		db := openTPCH(t, WithEngine(engine))
		// Run twice so the second run exercises reuse.
		if _, err := db.Exec(q3SQL); err != nil {
			t.Fatal(err)
		}
		got, err := db.Exec(q3SQL)
		if err != nil {
			t.Fatal(err)
		}
		cg, cw := canonical(got), canonical(want)
		if len(cg) != len(cw) {
			t.Fatalf("engine %d: %d vs %d rows", engine, len(cg), len(cw))
		}
		for i := range cg {
			if cg[i] != cw[i] {
				t.Fatalf("engine %d row %d: %s vs %s", engine, i, cg[i], cw[i])
			}
		}
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
	ref := openTPCH(t, WithEngine(EngineNoReuse))
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
