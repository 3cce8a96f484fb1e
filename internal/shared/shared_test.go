package shared

import (
	"fmt"
	"sort"
	"strings"
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

func newBatchEnv(t *testing.T) (*catalog.Catalog, *Optimizer) {
	t.Helper()
	db, err := tpch.Generate(tpch.Config{SF: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	for _, tbl := range db.Tables() {
		cat.Register(tbl)
	}
	single := optimizer.New(cat, htcache.New(0), nil, optimizer.DefaultOptions())
	return cat, New(single)
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

func spjQ(lo, hi string) *plan.Query {
	return &plan.Query{
		Relations: []plan.Rel{{Alias: "o", Table: "orders"}, {Alias: "l", Table: "lineitem"}},
		Joins:     []plan.JoinPred{{Left: ref("o", "o_orderkey"), Right: ref("l", "l_orderkey")}},
		Filter:    dateFilter(lo, hi),
		Select:    []storage.ColRef{ref("o", "o_orderkey"), ref("l", "l_extendedprice")},
	}
}

func canonicalRows(r *optimizer.Result) []string {
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

// assertBatchMatchesSingles runs a batch through the shared optimizer
// and each query individually through a never-reuse optimizer, and
// compares results.
func assertBatchMatchesSingles(t *testing.T, cat *catalog.Catalog, s *Optimizer, queries []*plan.Query) *BatchResult {
	t.Helper()
	batch, err := s.RunBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	never := optimizer.New(cat, htcache.New(0), nil, optimizer.Options{Strategy: optimizer.NeverReuse})
	for i, q := range queries {
		want, err := never.Run(q)
		if err != nil {
			t.Fatalf("single %d: %v", i, err)
		}
		got := batch.Results[i]
		if got == nil {
			t.Fatalf("query %d has no result", i)
		}
		cg, cw := canonicalRows(got), canonicalRows(want)
		if len(cg) != len(cw) {
			t.Fatalf("query %d: rows %d vs %d", i, len(cg), len(cw))
		}
		for j := range cg {
			if cg[j] != cw[j] {
				t.Fatalf("query %d row %d:\n  shared: %s\n  single: %s", i, j, cg[j], cw[j])
			}
		}
	}
	return batch
}

func TestMergeableAndConfigKey(t *testing.T) {
	a, b := aggQuery("1995-01-01", ""), aggQuery("1995-06-01", "")
	if !mergeable(a, b) {
		t.Error("same-join-graph queries should be mergeable")
	}
	if mergeable(a, spjQ("1995-01-01", "")) {
		t.Error("different join graphs should not be mergeable")
	}
	k1 := configKey([][]int{{0, 1}, {2}})
	k2 := configKey([][]int{{2}, {0, 1}})
	if k1 != k2 {
		t.Error("config key should be order independent")
	}
}

func TestPlanBatchMergesSameShape(t *testing.T) {
	_, s := newBatchEnv(t)
	queries := []*plan.Query{
		aggQuery("1995-01-01", "1995-07-01"),
		aggQuery("1995-03-01", "1995-09-01"),
		aggQuery("1995-05-01", "1995-11-01"),
		aggQuery("1995-02-01", "1995-08-01"),
	}
	groups, err := s.PlanBatch(queries)
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
	_, s := newBatchEnv(t)
	if _, err := s.PlanBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	big := make([]*plan.Query, 65)
	for i := range big {
		big[i] = aggQuery("1995-01-01", "")
	}
	if _, err := s.PlanBatch(big); err == nil {
		t.Error("65-query batch accepted")
	}
}

func TestSharedAggBatchCorrect(t *testing.T) {
	cat, s := newBatchEnv(t)
	queries := []*plan.Query{
		aggQuery("1995-01-01", "1995-07-01"),
		aggQuery("1995-03-01", "1995-09-01"),
		aggQuery("1995-02-01", "1995-06-01"),
	}
	batch := assertBatchMatchesSingles(t, cat, s, queries)
	if batch.NumSharedPlans() >= 3 {
		t.Logf("note: no merging chosen (groups=%v)", batch.Groups)
	}
}

func TestSharedSPJBatchCorrect(t *testing.T) {
	cat, s := newBatchEnv(t)
	queries := []*plan.Query{
		spjQ("1995-01-01", "1995-03-01"),
		spjQ("1995-02-01", "1995-04-01"),
	}
	assertBatchMatchesSingles(t, cat, s, queries)
}

func TestSharedMixedShapesSplit(t *testing.T) {
	cat, s := newBatchEnv(t)
	queries := []*plan.Query{
		aggQuery("1995-01-01", "1995-07-01"),
		spjQ("1995-01-01", "1995-02-01"),
		aggQuery("1995-02-01", "1995-08-01"),
	}
	batch := assertBatchMatchesSingles(t, cat, s, queries)
	// The SPJ query must sit in its own group.
	for _, g := range batch.Groups {
		hasSPJ, hasAgg := false, false
		for _, qi := range g {
			if queries[qi].IsAggregate() {
				hasAgg = true
			} else {
				hasSPJ = true
			}
		}
		if hasSPJ && hasAgg {
			t.Fatalf("mixed group: %v", batch.Groups)
		}
	}
}

func TestSharedGroupingReuseAcrossBatches(t *testing.T) {
	cat, s := newBatchEnv(t)
	queries := []*plan.Query{
		aggQuery("1995-01-01", "1995-07-01"),
		aggQuery("1995-02-01", "1995-08-01"),
	}
	assertBatchMatchesSingles(t, cat, s, queries)
	before := s.Single.Cache.Stats().Hits

	// A second batch whose predicates are covered by the first batch's
	// hull ([01-01, 08-01)) — the grouping table should be re-tagged and
	// reused.
	queries2 := []*plan.Query{
		aggQuery("1995-02-01", "1995-05-01"),
		aggQuery("1995-03-01", "1995-06-01"),
	}
	assertBatchMatchesSingles(t, cat, s, queries2)
	if s.Single.Cache.Stats().Hits <= before {
		t.Error("no shared-table reuse across batches")
	}
}

func TestQueryIDRecyclingIsSafe(t *testing.T) {
	// The correctness hazard the paper calls out: query IDs are recycled
	// between batches. Batch 1 tags with queries A0,A1; batch 2 reuses
	// the table with different predicates under the same bit positions.
	// Results must reflect ONLY the new batch's predicates.
	cat, s := newBatchEnv(t)
	b1 := []*plan.Query{
		aggQuery("1995-01-01", "1995-09-01"),
		aggQuery("1995-02-01", "1995-08-01"),
	}
	assertBatchMatchesSingles(t, cat, s, b1)
	// Swap the bit-position semantics: bit 0 now has a *narrower* range.
	b2 := []*plan.Query{
		aggQuery("1995-04-01", "1995-05-01"),
		aggQuery("1995-03-01", "1995-07-01"),
	}
	assertBatchMatchesSingles(t, cat, s, b2)
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

// TestSharedResultsReportDecisions: a shared plan's results report what
// a solo result reports — plan time, row counters, estimate and one
// decision per shared join and grouping table — and a covered second
// batch names the grouping table it re-tagged.
func TestSharedResultsReportDecisions(t *testing.T) {
	cat, s := newBatchEnv(t)
	run := func(queries ...*plan.Query) []*optimizer.Result {
		t.Helper()
		batch := assertBatchMatchesSingles(t, cat, s, queries)
		if len(batch.Groups) != 1 {
			t.Fatalf("groups %v, want one shared plan", batch.Groups)
		}
		for i, res := range batch.Results {
			if res.PlanTime <= 0 || res.RowsIn <= 0 || res.RowsOut <= 0 || res.EstimatedCost <= 0 {
				t.Errorf("query %d: plan %v, rows %d/%d, estimate %v", i, res.PlanTime, res.RowsIn, res.RowsOut, res.EstimatedCost)
			}
		}
		return batch.Results
	}
	for _, res := range run(aggQuery("1995-01-01", "1995-07-01"), aggQuery("1995-02-01", "1995-08-01")) {
		d := res.Decisions
		if len(d) != 3 || d[2].Operator != "agg" {
			t.Fatalf("first batch decisions %+v, want two builds then agg", d)
		}
		for _, x := range d {
			if x.Action != 'N' || x.EntryID != -1 {
				t.Errorf("first batch decision %+v, want a fresh table", x)
			}
		}
	}
	for _, res := range run(aggQuery("1995-02-01", "1995-05-01"), aggQuery("1995-03-01", "1995-06-01")) {
		d := res.Decisions
		if len(d) != 1 || d[0].Operator != "agg" || d[0].Action != 'S' {
			t.Fatalf("covered batch decisions %+v, want the grouping table re-tagged", d)
		}
		if e := s.Single.Cache.Get(d[0].EntryID); e == nil || e.Lineage.Kind != htcache.SharedGrouping {
			t.Errorf("re-tag names entry %d, not a cached shared grouping table", d[0].EntryID)
		}
	}
}
