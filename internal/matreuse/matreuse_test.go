package matreuse

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hashstash/internal/catalog"
	"hashstash/internal/exec"
	"hashstash/internal/expr"
	"hashstash/internal/htcache"
	"hashstash/internal/optimizer"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/tpch"
	"hashstash/internal/types"
)

func newEnv(t *testing.T) (*catalog.Catalog, *Engine, *optimizer.Optimizer) {
	t.Helper()
	db, err := tpch.Generate(tpch.Config{SF: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	for _, tbl := range db.Tables() {
		cat.Register(tbl)
	}
	ref := optimizer.New(cat, htcache.New(0), nil, optimizer.Options{Strategy: optimizer.NeverReuse})
	return cat, NewEngine(cat, 0, exec.Parallelism{}), ref
}

func ref(a, c string) storage.ColRef { return storage.ColRef{Table: a, Column: c} }

func q3(lo, hi string) *plan.Query {
	iv := expr.Interval{}
	if lo != "" {
		iv.HasLo, iv.Lo, iv.LoIncl = true, types.NewDate(types.MustParseDate(lo)), true
	}
	if hi != "" {
		iv.HasHi, iv.Hi, iv.HiIncl = true, types.NewDate(types.MustParseDate(hi)), false
	}
	return &plan.Query{
		Relations: []plan.Rel{
			{Alias: "c", Table: "customer"},
			{Alias: "o", Table: "orders"},
			{Alias: "l", Table: "lineitem"},
		},
		Joins: []plan.JoinPred{
			{Left: ref("c", "c_custkey"), Right: ref("o", "o_custkey")},
			{Left: ref("o", "o_orderkey"), Right: ref("l", "l_orderkey")},
		},
		Filter: expr.NewBox(expr.Pred{Col: ref("l", "l_shipdate"),
			Con: expr.IntervalConstraint(types.Date, iv)}),
		Select:  []storage.ColRef{ref("c", "c_age")},
		GroupBy: []storage.ColRef{ref("c", "c_age")},
		Aggs: []expr.AggSpec{
			{Func: expr.AggSum, Arg: &expr.Col{Ref: ref("l", "l_extendedprice")}, Alias: "revenue"},
			{Func: expr.AggAvg, Arg: &expr.Col{Ref: ref("l", "l_extendedprice")}, Alias: "avg_price"},
		},
	}
}

func canon(rows [][]types.Value) []string {
	out := make([]string, 0, len(rows))
	for _, row := range rows {
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

func assertSame(t *testing.T, label string, a, b *optimizer.Result) {
	t.Helper()
	ca, cb := canon(a.Rows), canon(b.Rows)
	if len(ca) != len(cb) {
		t.Fatalf("%s: %d vs %d rows", label, len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("%s row %d:\n  mat: %s\n  ref: %s", label, i, ca[i], cb[i])
		}
	}
}

func TestMatReuseCorrectFresh(t *testing.T) {
	_, eng, refOpt := newEnv(t)
	q := q3("1995-01-01", "")
	got, err := eng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refOpt.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, "fresh", got, want)
	if got.Columns[1] != "revenue" || got.Columns[2] != "avg_price" {
		t.Errorf("columns = %v", got.Columns)
	}
	if eng.Cache.Stats().Registered == 0 {
		t.Error("nothing materialized")
	}
}

func TestMatReuseExactAggregate(t *testing.T) {
	_, eng, refOpt := newEnv(t)
	q := q3("1995-01-01", "")
	if _, err := eng.Run(q); err != nil {
		t.Fatal(err)
	}
	before := eng.Cache.Stats().Hits
	got, err := eng.Run(q3("1995-01-01", ""))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Cache.Stats().Hits <= before {
		t.Error("no temp-table reuse on identical query")
	}
	want, _ := refOpt.Run(q3("1995-01-01", ""))
	assertSame(t, "exact", got, want)
}

func TestMatReuseSubsumingJoinInput(t *testing.T) {
	_, eng, refOpt := newEnv(t)
	// Wide range first, then a narrower one: the materialized build
	// input subsumes the request (post-filtered), while partial-shaped
	// requests (wider) must NOT reuse.
	if _, err := eng.Run(q3("1995-01-01", "1995-12-01")); err != nil {
		t.Fatal(err)
	}
	hits0 := eng.Cache.Stats().Hits
	got, err := eng.Run(q3("1995-03-01", "1995-06-01"))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refOpt.Run(q3("1995-03-01", "1995-06-01"))
	assertSame(t, "subsuming", got, want)
	if eng.Cache.Stats().Hits <= hits0 {
		t.Error("subsuming temp reuse did not happen")
	}

	// Wider than anything cached → no reuse possible (no partial mode).
	hits1 := eng.Cache.Stats().Hits
	got2, err := eng.Run(q3("1994-01-01", ""))
	if err != nil {
		t.Fatal(err)
	}
	want2, _ := refOpt.Run(q3("1994-01-01", ""))
	assertSame(t, "nopartial", got2, want2)
	aggHits := eng.Cache.Stats().Hits - hits1
	// Join-input temp tables for un-filtered relations (customer,
	// orders) may still hit; the lineitem-filtered ones must not.
	_ = aggHits
}

func TestMatReuseSPJ(t *testing.T) {
	_, eng, refOpt := newEnv(t)
	q := &plan.Query{
		Relations: []plan.Rel{{Alias: "o", Table: "orders"}, {Alias: "l", Table: "lineitem"}},
		Joins:     []plan.JoinPred{{Left: ref("o", "o_orderkey"), Right: ref("l", "l_orderkey")}},
		Filter: expr.NewBox(expr.Pred{Col: ref("l", "l_shipdate"),
			Con: expr.IntervalConstraint(types.Date, expr.Interval{
				HasLo: true, Lo: types.NewDate(types.MustParseDate("1995-01-01")), LoIncl: true,
				HasHi: true, Hi: types.NewDate(types.MustParseDate("1995-03-01")),
			})}),
		Select: []storage.ColRef{ref("o", "o_orderkey"), ref("l", "l_extendedprice")},
	}
	got, err := eng.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refOpt.Run(q)
	assertSame(t, "spj", got, want)
}

func TestTempCacheEviction(t *testing.T) {
	cache := NewTempCache(1000)
	mk := func(rows int) *storage.Table {
		col := storage.NewColumn("x", types.Int64)
		for i := 0; i < rows; i++ {
			col.Ints = append(col.Ints, int64(i))
		}
		return storage.NewTable("t", col)
	}
	lin := htcache.Lineage{Kind: htcache.JoinBuild, JoinSig: "x|", QidCol: -1}
	e1 := cache.Register(lin, mk(100), nil)
	_ = cache.Register(lin, mk(100), nil)
	if cache.TotalBytes() > 1000 {
		t.Errorf("budget not enforced: %d", cache.TotalBytes())
	}
	if cache.Stats().Evictions == 0 {
		t.Error("no evictions recorded")
	}
	_ = e1
	// Candidates works after eviction.
	if got := cache.Candidates(lin); len(got) == 0 {
		t.Error("no survivors")
	}
}

func TestTempCacheStats(t *testing.T) {
	cache := NewTempCache(0)
	col := storage.NewColumn("x", types.Int64)
	col.Ints = []int64{1}
	lin := htcache.Lineage{Kind: htcache.Aggregate, JoinSig: "y|", QidCol: -1}
	e := cache.Register(lin, storage.NewTable("t", col), nil)
	cache.Touch(e)
	s := cache.Stats()
	if s.Entries != 1 || s.Hits != 1 || s.Registered != 1 || s.HitRatio != 1 {
		t.Errorf("stats = %+v", s)
	}
}
