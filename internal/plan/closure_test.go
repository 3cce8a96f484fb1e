package plan

import (
	"testing"

	"hashstash/internal/expr"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

func intPred(col storage.ColRef, iv expr.Interval) expr.Pred {
	return expr.Pred{Col: col, Con: expr.IntervalConstraint(types.Int64, iv)}
}

func point(v int64) expr.Interval { return expr.PointInterval(types.NewInt(v)) }

// atLeast and below build the half-open bounds [lo, +inf) and (-inf, hi).
func atLeast(lo int64) expr.Interval {
	return expr.Interval{HasLo: true, Lo: types.NewInt(lo), LoIncl: true}
}

func below(hi int64) expr.Interval {
	return expr.Interval{HasHi: true, Hi: types.NewInt(hi)}
}

// withFilter is q3's join graph under another filter.
func withFilter(preds ...expr.Pred) *Query {
	q := q3()
	q.Filter = expr.NewBox(preds...)
	return q
}

// TestCloseFilterUnchanged: a query whose filter constrains no join
// column comes back as the same pointer, without allocating.
func TestCloseFilterUnchanged(t *testing.T) {
	for _, q := range []*Query{q3(), withFilter(), {Relations: []Rel{{Alias: "c", Table: "customer"}}}} {
		if got := CloseFilter(q); got != q {
			t.Errorf("%s: closed to a new query %s", q, got)
		}
		if n := testing.AllocsPerRun(100, func() { CloseFilter(q) }); n != 0 {
			t.Errorf("%s: %v allocs per closure", q, n)
		}
	}
}

// TestCloseFilter: each join class carries the intersection of its
// members' constraints, other predicates stay, the input is not
// modified, and contradictory pins close to an empty box.
func TestCloseFilter(t *testing.T) {
	ship := q3().Filter[0]
	cases := []struct {
		name string
		in   *Query
		want expr.Box
	}{
		{"point reaches the other side",
			withFilter(ship, intPred(ref("c", "c_custkey"), point(42))),
			expr.NewBox(ship, intPred(ref("c", "c_custkey"), point(42)), intPred(ref("o", "o_custkey"), point(42)))},
		{"ranges intersect",
			withFilter(intPred(ref("c", "c_custkey"), atLeast(10)), intPred(ref("o", "o_custkey"), below(20))),
			expr.NewBox(intPred(ref("c", "c_custkey"), atLeast(10)), intPred(ref("c", "c_custkey"), below(20)),
				intPred(ref("o", "o_custkey"), atLeast(10)), intPred(ref("o", "o_custkey"), below(20)))},
		{"classes stay apart",
			withFilter(intPred(ref("l", "l_orderkey"), point(7))),
			expr.NewBox(intPred(ref("o", "o_orderkey"), point(7)), intPred(ref("l", "l_orderkey"), point(7)))},
	}
	for _, tc := range cases {
		before := tc.in.Filter.String()
		got := CloseFilter(tc.in)
		if !got.Filter.Equal(tc.want) {
			t.Errorf("%s: closed filter %s, want %s", tc.name, got.Filter, tc.want)
		}
		if tc.in.Filter.String() != before {
			t.Errorf("%s: input filter changed to %s", tc.name, tc.in.Filter)
		}
		rest := *tc.in
		rest.Filter = got.Filter
		if got.String() != rest.String() {
			t.Errorf("%s: closure changed more than the filter: %s", tc.name, got)
		}
	}

	contra := CloseFilter(withFilter(intPred(ref("c", "c_custkey"), point(5)), intPred(ref("o", "o_custkey"), point(7))))
	if !contra.Filter.Empty() {
		t.Errorf("c_custkey = 5 AND o_custkey = 7 closed to %s, want an empty box", contra.Filter)
	}

	// A chain a.s = b.s = c.s of string columns: the IN-sets intersect
	// and reach the unfiltered end.
	chain := &Query{
		Relations: []Rel{{Alias: "a", Table: "x"}, {Alias: "b", Table: "x"}, {Alias: "c", Table: "x"}},
		Joins:     []JoinPred{{Left: ref("a", "s"), Right: ref("b", "s")}, {Left: ref("c", "s"), Right: ref("b", "s")}},
		Filter: expr.NewBox(
			expr.Pred{Col: ref("a", "s"), Con: expr.SetConstraint("p", "q")},
			expr.Pred{Col: ref("b", "s"), Con: expr.SetConstraint("q", "r")}),
	}
	got := CloseFilter(chain).Filter
	for _, alias := range []string{"a", "b", "c"} {
		if con, ok := got.Constraint(ref(alias, "s")); !ok || !con.Equal(expr.SetConstraint("q")) {
			t.Errorf("chain: %s.s closed to %v (%v), want IN {q}", alias, con, ok)
		}
	}
}

// TestJoinClasses: columns joined directly or through a chain share a
// root; unrelated join columns do not.
func TestJoinClasses(t *testing.T) {
	q := q3()
	cls := JoinClasses(q)
	if len(cls) != 4 {
		t.Fatalf("%d join columns classed, want 4: %v", len(cls), cls)
	}
	if cls[ref("c", "c_custkey")] != cls[ref("o", "o_custkey")] {
		t.Error("c_custkey and o_custkey in different classes")
	}
	if cls[ref("o", "o_custkey")] == cls[ref("o", "o_orderkey")] {
		t.Error("o_custkey and o_orderkey share a class")
	}
	q.Joins = append(q.Joins, JoinPred{Left: ref("l", "l_orderkey"), Right: ref("c", "c_custkey")})
	cls = JoinClasses(q)
	if cls[ref("c", "c_custkey")] != cls[ref("o", "o_orderkey")] {
		t.Error("a third edge did not merge the two classes")
	}
}
