package shared

import (
	"testing"

	"hashstash/internal/catalog"
	"hashstash/internal/expr"
	"hashstash/internal/htcache"
	"hashstash/internal/optimizer"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/tpch"
	"hashstash/internal/types"
)

// newBatchEnv loads TPC-H at SF 0.002 and returns its catalog with a
// cost-model optimizer over an unlimited cache.
func newBatchEnv(t *testing.T) (*catalog.Catalog, *optimizer.Optimizer) {
	t.Helper()
	db, err := tpch.Generate(tpch.Config{SF: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	for _, tbl := range db.Tables() {
		cat.Register(tbl)
	}
	return cat, optimizer.New(cat, htcache.New(0), nil, optimizer.Options{})
}

func ref(a, c string) storage.ColRef { return storage.ColRef{Table: a, Column: c} }

func dateFilter(lo, hi string) expr.Box {
	iv := expr.Interval{}
	if lo != "" {
		iv.HasLo, iv.Lo, iv.LoIncl = true, types.NewDate(types.MustParseDate(lo)), true
	}
	if hi != "" {
		iv.HasHi, iv.Hi, iv.HiIncl = true, types.NewDate(types.MustParseDate(hi)), false
	}
	return expr.NewBox(expr.Pred{Col: ref("l", "l_shipdate"), Con: expr.IntervalConstraint(types.Date, iv)})
}

// aggQuery is a customer ⋈ orders ⋈ lineitem revenue-by-age aggregate
// over l_shipdate in [lo, hi) (an empty bound is open).
func aggQuery(lo, hi string) *plan.Query {
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
		Filter:  dateFilter(lo, hi),
		Select:  []storage.ColRef{ref("c", "c_age")},
		GroupBy: []storage.ColRef{ref("c", "c_age")},
		Aggs: []expr.AggSpec{
			{Func: expr.AggSum, Arg: &expr.Col{Ref: ref("l", "l_extendedprice")}, Alias: "revenue"},
		},
	}
}

// spjQuery is an orders ⋈ lineitem projection over l_shipdate in
// [lo, hi).
func spjQuery(lo, hi string) *plan.Query {
	return &plan.Query{
		Relations: []plan.Rel{{Alias: "o", Table: "orders"}, {Alias: "l", Table: "lineitem"}},
		Joins:     []plan.JoinPred{{Left: ref("o", "o_orderkey"), Right: ref("l", "l_orderkey")}},
		Filter:    dateFilter(lo, hi),
		Select:    []storage.ColRef{ref("o", "o_orderkey"), ref("l", "l_extendedprice")},
	}
}

func TestMergeableAndConfigKey(t *testing.T) {
	a, b := aggQuery("1995-01-01", ""), aggQuery("1995-06-01", "")
	if !mergeable(a, b) {
		t.Error("same-join-graph queries should be mergeable")
	}
	if mergeable(a, spjQuery("1995-01-01", "")) {
		t.Error("different join graphs should not be mergeable")
	}
	ordered := aggQuery("1995-01-01", "")
	ordered.Limit = 10
	if mergeable(a, ordered) {
		t.Error("a LIMIT query should never merge")
	}
}

func TestPlanBatchMergesSameShape(t *testing.T) {
	_, o := newBatchEnv(t)
	queries := []*plan.Query{
		aggQuery("1995-01-01", "1995-07-01"),
		aggQuery("1995-03-01", "1995-09-01"),
		aggQuery("1995-05-01", "1995-11-01"),
		aggQuery("1995-02-01", "1995-08-01"),
	}
	groups, err := PlanBatch(o, queries)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != 4 {
		t.Fatalf("groups cover %d queries: %v", total, groups)
	}
	// Same shape + heavy shared-scan savings: expect fewer plans than
	// queries.
	if len(groups) >= 4 {
		t.Errorf("no merging happened: %v", groups)
	}
}

func TestPlanBatchRejectsBadInput(t *testing.T) {
	_, o := newBatchEnv(t)
	if _, err := PlanBatch(o, nil); err == nil {
		t.Error("empty batch accepted")
	}
	big := make([]*plan.Query, 65)
	for i := range big {
		big[i] = aggQuery("1995-01-01", "")
	}
	if _, err := PlanBatch(o, big); err == nil {
		t.Error("65-query batch accepted")
	}
}

func TestHullFilterEstimation(t *testing.T) {
	queries := []*plan.Query{
		aggQuery("1995-01-01", "1995-03-01"),
		aggQuery("1995-02-01", "1995-05-01"),
	}
	hull := hullFilter(queries, []int{0, 1})
	con, ok := hull.Constraint(storage.ColRef{Table: "l", Column: "l_shipdate"})
	if !ok {
		t.Fatalf("hull lost the date constraint: %v", hull)
	}
	if !con.Iv.HasLo || con.Iv.Lo.I != types.MustParseDate("1995-01-01") {
		t.Errorf("hull lo = %v", con.Iv)
	}
	if !con.Iv.HasHi || con.Iv.Hi.I != types.MustParseDate("1995-05-01") {
		t.Errorf("hull hi = %v", con.Iv)
	}
}
