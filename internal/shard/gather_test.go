package shard

import (
	"fmt"
	"testing"

	"hashstash/internal/expr"
	"hashstash/internal/optimizer"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// leg is a scatter leg's answer with the given column names and
// columns.
func leg(columns []string, vecs ...storage.Vec) *optimizer.Result {
	return &optimizer.Result{Columns: columns, Vecs: vecs}
}

func ints(v ...int64) storage.Vec     { return storage.Vec{Kind: types.Int64, Ints: v} }
func floats(v ...float64) storage.Vec { return storage.Vec{Kind: types.Float64, Floats: v} }
func strs(v ...string) storage.Vec    { return storage.Vec{Kind: types.String, Strs: v} }

// TestMergeAggregatesFoldsColumns: the columnar aggregate merge groups
// the legs' partial rows by key in order of first appearance and folds
// every partial by its function and kind — COUNT and SUM add, MIN and
// MAX compare ints, floats and strings — finalizes AVG as SUM/COUNT
// (0 for an empty count), projects to the SELECT list and applies the
// query's ORDER BY/LIMIT.
func TestMergeAggregatesFoldsColumns(t *testing.T) {
	g := storage.ColRef{Table: "t", Column: "g"}
	col := func(c string) expr.Expr { return &expr.Col{Ref: storage.ColRef{Table: "t", Column: c}} }
	q := &plan.Query{
		GroupBy: []storage.ColRef{g},
		Select:  []storage.ColRef{g},
		Aggs: []expr.AggSpec{
			{Func: expr.AggCount},
			{Func: expr.AggSum, Arg: col("v")},
			{Func: expr.AggMin, Arg: col("k")},
			{Func: expr.AggMax, Arg: col("k")},
			{Func: expr.AggMin, Arg: col("s")},
			{Func: expr.AggMax, Arg: col("s")},
			{Func: expr.AggMin, Arg: col("v")},
			{Func: expr.AggMax, Arg: col("v")},
			{Func: expr.AggAvg, Arg: col("w")},
		},
	}
	partials, srcIdx := expr.RewriteAvg(q.Aggs)
	names := []string{"t.g"}
	for _, p := range partials {
		names = append(names, p.Name())
	}
	// Partials: COUNT(*), SUM(v), MIN(k), MAX(k), MIN(s), MAX(s),
	// MIN(v), MAX(v), SUM(w), COUNT(w).
	legs := []*optimizer.Result{
		leg(names, strs("b", "a"),
			ints(2, 1), floats(1.5, 2), ints(7, -3), ints(9, -3), strs("m", "q"), strs("p", "q"),
			floats(0.5, 2), floats(1, 2), floats(6, 0), ints(3, 0)),
		leg(names, strs("a", "c"),
			ints(4, 1), floats(0.25, 8), ints(-5, 11), ints(-4, 11), strs("a", "z"), strs("r", "z"),
			floats(-1, 8), floats(3, 8), floats(5, 0), ints(2, 0)),
		leg(names, strs(), ints(), floats(), ints(), ints(), strs(), strs(), floats(), floats(), floats(), ints()),
	}

	got, err := mergeAggregates(q, legs, partials, srcIdx)
	if err != nil {
		t.Fatal(err)
	}
	got.Box()
	want := "[[b 2 1.5 7 9 m p 0.5 1 2] [a 5 2.25 -5 -3 a r -1 3 2.5] [c 1 8 11 11 z z 8 8 0]]"
	if fmt.Sprint(got.Rows) != want {
		t.Fatalf("merged rows\n got %v\nwant %s", got.Rows, want)
	}
	wantKinds := []types.Kind{types.String, types.Int64, types.Float64, types.Int64, types.Int64,
		types.String, types.String, types.Float64, types.Float64, types.Float64}
	for c, v := range got.Vecs {
		if v.Kind != wantKinds[c] {
			t.Errorf("column %d (%s) is %v, want %v", c, got.Columns[c], v.Kind, wantKinds[c])
		}
	}

	// ORDER BY an aggregate, DESC, LIMIT 2 applies after the fold.
	q.OrderBy = &plan.OrderSpec{Col: storage.ColRef{Column: q.Aggs[1].Name()}, Desc: true}
	q.Limit = 2
	got, err = mergeAggregates(q, legs, partials, srcIdx)
	if err != nil {
		t.Fatal(err)
	}
	got.Box()
	if want := "[[c 1 8 11 11 z z 8 8 0] [a 5 2.25 -5 -3 a r -1 3 2.5]]"; fmt.Sprint(got.Rows) != want {
		t.Fatalf("ordered rows\n got %v\nwant %s", got.Rows, want)
	}

	// A leg whose column kinds disagree is refused.
	bad := leg(names, strs("a"), floats(1), floats(1), ints(1), ints(1), strs("a"), strs("a"),
		floats(1), floats(1), floats(1), ints(1))
	if _, err := mergeAggregates(q, []*optimizer.Result{legs[0], bad}, partials, srcIdx); err == nil {
		t.Fatal("a leg with a float COUNT column merged")
	}
}

// TestMergeRowsSplicesAndOrders: unordered legs splice in leg order and
// are cut to the LIMIT; ordered legs come out as the stable sort of the
// splice, equal keys in leg order.
func TestMergeRowsSplicesAndOrders(t *testing.T) {
	names := []string{"t.k", "t.s"}
	legs := []*optimizer.Result{
		leg(names, ints(1, 4, 6), strs("a", "b", "c")),
		leg(names, ints(), strs()),
		leg(names, ints(2, 4, 5), strs("d", "e", "f")),
	}
	q := &plan.Query{Limit: 4}
	got := mergeRows(q, legs)
	got.Box()
	if want := "[[1 a] [4 b] [6 c] [2 d]]"; fmt.Sprint(got.Rows) != want {
		t.Fatalf("spliced rows %v, want %s", got.Rows, want)
	}
	q.OrderBy = &plan.OrderSpec{Col: storage.ColRef{Table: "t", Column: "k"}}
	got = mergeRows(q, legs)
	got.Box()
	if want := "[[1 a] [2 d] [4 b] [4 e]]"; fmt.Sprint(got.Rows) != want {
		t.Fatalf("ordered rows %v, want %s", got.Rows, want)
	}
	// One leg with rows is the answer as it is.
	got = mergeRows(&plan.Query{}, legs[:2])
	if &got.Vecs[0] != &legs[0].Vecs[0] {
		t.Error("a single non-empty leg was copied")
	}
}
