package shared

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"hashstash/internal/catalog"
	"hashstash/internal/htcache"
	"hashstash/internal/optimizer"
	"hashstash/internal/plan"
	"hashstash/internal/types"
)

// canonicalRows renders a result's answer, boxed row by row,
// order-independently.
func canonicalRows(r *optimizer.Result) []string {
	r.Box()
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

// assertBatchMatchesSingles runs a batch through Run on o and each
// query individually through a never-reuse optimizer, and compares
// results.
func assertBatchMatchesSingles(t *testing.T, cat *catalog.Catalog, o *optimizer.Optimizer, queries []*plan.Query) *BatchResult {
	t.Helper()
	batch, err := Run(context.Background(), o, queries)
	if err != nil {
		t.Fatal(err)
	}
	never := optimizer.New(cat, htcache.New(0), nil, optimizer.Options{Strategy: optimizer.NeverReuse, NoBenefitOptimizations: true, NoPartialReuse: true, NoOverlappingReuse: true})
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

func TestSharedAggBatchCorrect(t *testing.T) {
	cat, o := newBatchEnv(t)
	queries := []*plan.Query{
		aggQuery("1995-01-01", "1995-07-01"),
		aggQuery("1995-03-01", "1995-09-01"),
		aggQuery("1995-02-01", "1995-06-01"),
	}
	batch := assertBatchMatchesSingles(t, cat, o, queries)
	if len(batch.Groups) >= 3 {
		t.Logf("note: no merging chosen (groups=%v)", batch.Groups)
	}
}

func TestSharedSPJBatchCorrect(t *testing.T) {
	cat, o := newBatchEnv(t)
	queries := []*plan.Query{
		spjQuery("1995-01-01", "1995-03-01"),
		spjQuery("1995-02-01", "1995-04-01"),
	}
	assertBatchMatchesSingles(t, cat, o, queries)
}

func TestSharedMixedShapesSplit(t *testing.T) {
	cat, o := newBatchEnv(t)
	queries := []*plan.Query{
		aggQuery("1995-01-01", "1995-07-01"),
		spjQuery("1995-01-01", "1995-02-01"),
		aggQuery("1995-02-01", "1995-08-01"),
	}
	batch := assertBatchMatchesSingles(t, cat, o, queries)
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
	cat, o := newBatchEnv(t)
	queries := []*plan.Query{
		aggQuery("1995-01-01", "1995-07-01"),
		aggQuery("1995-02-01", "1995-08-01"),
	}
	assertBatchMatchesSingles(t, cat, o, queries)
	before := o.Cache.Stats().Hits

	// A second batch whose predicates are covered by the first batch's
	// hull ([01-01, 08-01)) — the grouping table should be re-tagged and
	// reused.
	queries2 := []*plan.Query{
		aggQuery("1995-02-01", "1995-05-01"),
		aggQuery("1995-03-01", "1995-06-01"),
	}
	assertBatchMatchesSingles(t, cat, o, queries2)
	if o.Cache.Stats().Hits <= before {
		t.Error("no shared-table reuse across batches")
	}
}

func TestQueryIDRecyclingIsSafe(t *testing.T) {
	// The correctness hazard the paper calls out: query IDs are recycled
	// between batches. Batch 1 tags with queries A0,A1; batch 2 reuses
	// the table with different predicates under the same bit positions.
	// Results must reflect ONLY the new batch's predicates.
	cat, o := newBatchEnv(t)
	b1 := []*plan.Query{
		aggQuery("1995-01-01", "1995-09-01"),
		aggQuery("1995-02-01", "1995-08-01"),
	}
	assertBatchMatchesSingles(t, cat, o, b1)
	// Swap the bit-position semantics: bit 0 now has a *narrower* range.
	b2 := []*plan.Query{
		aggQuery("1995-04-01", "1995-05-01"),
		aggQuery("1995-03-01", "1995-07-01"),
	}
	assertBatchMatchesSingles(t, cat, o, b2)
}

// TestSharedResultsReportDecisions: a shared plan's results report what
// a solo result reports — plan time, row counters, estimate and one
// decision per shared join and grouping table — and a covered second
// batch names the grouping table it re-tagged.
func TestSharedResultsReportDecisions(t *testing.T) {
	cat, o := newBatchEnv(t)
	run := func(queries ...*plan.Query) []*optimizer.Result {
		t.Helper()
		batch := assertBatchMatchesSingles(t, cat, o, queries)
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
		if e := o.Cache.Get(d[0].EntryID); e == nil || e.Lineage.Kind != htcache.SharedGrouping {
			t.Errorf("re-tag names entry %d, not a cached shared grouping table", d[0].EntryID)
		}
	}
}
