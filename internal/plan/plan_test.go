package plan

import (
	"strings"
	"testing"

	"hashstash/internal/catalog"
	"hashstash/internal/expr"
	"hashstash/internal/storage"
	"hashstash/internal/tpch"
	"hashstash/internal/types"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	db, err := tpch.Generate(tpch.Config{SF: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	for _, tbl := range db.Tables() {
		cat.Register(tbl)
	}
	return cat
}

func ref(a, c string) storage.ColRef { return storage.ColRef{Table: a, Column: c} }

// q3 builds the paper's seed query shape: customer ⋈ orders ⋈ lineitem
// with a shipdate filter and an aggregation.
func q3() *Query {
	return &Query{
		Relations: []Rel{{Alias: "c", Table: "customer"}, {Alias: "o", Table: "orders"}, {Alias: "l", Table: "lineitem"}},
		Joins: []JoinPred{
			{Left: ref("c", "c_custkey"), Right: ref("o", "o_custkey")},
			{Left: ref("o", "o_orderkey"), Right: ref("l", "l_orderkey")},
		},
		Filter: expr.NewBox(expr.Pred{
			Col: ref("l", "l_shipdate"),
			Con: expr.IntervalConstraint(types.Date, expr.Interval{
				HasLo: true, Lo: types.NewDate(types.MustParseDate("1995-02-01")), LoIncl: true,
			}),
		}),
		Select:  []storage.ColRef{ref("c", "c_age")},
		GroupBy: []storage.ColRef{ref("c", "c_age")},
		Aggs: []expr.AggSpec{{
			Func:  expr.AggSum,
			Arg:   &expr.Col{Ref: ref("l", "l_extendedprice")},
			Alias: "revenue",
		}},
	}
}

func TestValidateOK(t *testing.T) {
	cat := testCatalog(t)
	if err := q3().Validate(cat); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	cat := testCatalog(t)
	cases := map[string]func(*Query){
		"no relations":        func(q *Query) { q.Relations = nil },
		"duplicate alias":     func(q *Query) { q.Relations = append(q.Relations, Rel{Alias: "c", Table: "customer"}) },
		"unknown table":       func(q *Query) { q.Relations[0].Table = "nope" },
		"unknown join alias":  func(q *Query) { q.Joins[0].Left.Table = "zz" },
		"unknown join column": func(q *Query) { q.Joins[0].Left.Column = "zz" },
		"join kind mismatch":  func(q *Query) { q.Joins[0].Left = ref("c", "c_name") },
		"unknown filter col":  func(q *Query) { q.Filter[0].Col.Column = "zz" },
		"select not grouped":  func(q *Query) { q.Select = append(q.Select, ref("o", "o_orderdate")) },
		"bad agg arg":         func(q *Query) { q.Aggs[0].Arg = &expr.Col{Ref: ref("l", "nope")} },
		"unknown select":      func(q *Query) { q.Select[0].Column = "nope"; q.GroupBy[0].Column = "nope" },
		"disconnected": func(q *Query) {
			q.Relations = append(q.Relations, Rel{Alias: "p", Table: "part"})
		},
	}
	for name, mutate := range cases {
		q := q3()
		mutate(q)
		if err := q.Validate(cat); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
	// Unknown group-by (with matching select removal) errors too.
	q := q3()
	q.GroupBy = []storage.ColRef{ref("c", "nope")}
	q.Select = nil
	if err := q.Validate(cat); err == nil {
		t.Error("unknown group-by accepted")
	}
	// String-kind predicate mismatch.
	q = q3()
	q.Filter = expr.NewBox(expr.Pred{Col: ref("c", "c_name"), Con: expr.IntervalConstraint(types.Int64, expr.FullInterval())})
	if err := q.Validate(cat); err == nil {
		t.Error("kind-mismatched predicate accepted")
	}
}

func TestAccessors(t *testing.T) {
	q := q3()
	if !q.IsAggregate() {
		t.Error("q3 should be aggregate")
	}
	if q.RelByAlias("o") == nil || q.RelByAlias("zz") != nil {
		t.Error("RelByAlias")
	}
	if q.AliasIndex("l") != 2 || q.AliasIndex("zz") != -1 {
		t.Error("AliasIndex")
	}
	if fl := q.FilterFor("l"); len(fl) != 1 {
		t.Errorf("FilterFor(l) = %v", fl)
	}
	if fl := q.FilterFor("c"); len(fl) != 0 {
		t.Errorf("FilterFor(c) = %v", fl)
	}
	s := q.String()
	for _, want := range []string{"SELECT", "SUM(l.l_extendedprice) AS revenue", "FROM customer c", "GROUP BY c.c_age", "l.l_shipdate"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func TestSignatures(t *testing.T) {
	q := q3()
	full := q.JoinGraphSignature()
	if !strings.Contains(full, "customer,lineitem,orders") {
		t.Errorf("signature tables: %s", full)
	}
	if !strings.Contains(full, "customer.c_custkey=orders.o_custkey") {
		t.Errorf("signature edges: %s", full)
	}
	// Alias renaming must not change the signature.
	q2 := q3()
	q2.Relations[0].Alias = "cust"
	q2.Joins[0].Left.Table = "cust"
	q2.Select[0].Table = "cust"
	q2.GroupBy[0].Table = "cust"
	if q2.JoinGraphSignature() != full {
		t.Error("alias change altered signature")
	}
	// Subgraph: customer+orders only.
	co := q.SubgraphSignature(0b011)
	if strings.Contains(co, "lineitem") {
		t.Errorf("subgraph leaked: %s", co)
	}
	if !strings.Contains(co, "customer.c_custkey=orders.o_custkey") {
		t.Errorf("subgraph edges: %s", co)
	}
	// Crossing edge (o-l) excluded from the CO subgraph.
	if strings.Contains(co, "l_orderkey") {
		t.Errorf("crossing edge included: %s", co)
	}
}

func TestQualification(t *testing.T) {
	q := q3()
	base := q.BaseQualify(q.Filter)
	if base[0].Col.Table != "lineitem" {
		t.Errorf("BaseQualify: %v", base[0].Col)
	}
	back := q.AliasQualify(base)
	if back[0].Col.Table != "l" {
		t.Errorf("AliasQualify: %v", back[0].Col)
	}
	// Unknown alias passes through unchanged.
	odd := expr.NewBox(expr.Pred{Col: ref("zz", "x"), Con: expr.IntervalConstraint(types.Int64, expr.FullInterval())})
	if got := q.BaseQualify(odd); got[0].Col.Table != "zz" {
		t.Errorf("unknown alias mangled: %v", got[0].Col)
	}
}

func TestConnectivity(t *testing.T) {
	q := q3() // chain c-o-l
	if !q.ConnectedSubgraph(0b111) {
		t.Error("full graph should be connected")
	}
	if !q.ConnectedSubgraph(0b011) { // c,o
		t.Error("c-o should be connected")
	}
	if q.ConnectedSubgraph(0b101) { // c,l without o
		t.Error("c-l should be disconnected")
	}
	if q.ConnectedSubgraph(0) {
		t.Error("empty mask should not be connected")
	}
	if !q.ConnectedSubgraph(0b100) {
		t.Error("singleton should be connected")
	}
	cross := q.CrossingJoins(0b011, 0b100) // {c,o} vs {l}
	if len(cross) != 1 || cross[0].Left.Column != "o_orderkey" {
		t.Errorf("CrossingJoins = %v", cross)
	}
	if got := q.CrossingJoins(0b001, 0b100); len(got) != 0 {
		t.Errorf("no crossing expected: %v", got)
	}
}
