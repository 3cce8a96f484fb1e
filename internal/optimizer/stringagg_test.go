package optimizer

import (
	"testing"

	"hashstash/internal/expr"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// String group-by keys exercise the intern-encode path in AggHT and the
// string-decode path in the readout; reuse must survive both.
func TestStringGroupByWithReuse(t *testing.T) {
	env := newEnv(t, Options{})
	q := func(lo string) *plan.Query {
		return &plan.Query{
			Relations: []plan.Rel{
				{Alias: "c", Table: "customer"},
				{Alias: "o", Table: "orders"},
			},
			Joins: []plan.JoinPred{
				{Left: ref("c", "c_custkey"), Right: ref("o", "o_custkey")},
			},
			Filter: expr.NewBox(expr.Pred{
				Col: ref("o", "o_orderdate"),
				Con: expr.IntervalConstraint(types.Date, expr.Interval{
					HasLo: true, Lo: types.NewDate(types.MustParseDate(lo)), LoIncl: true,
				}),
			}),
			Select:  []storage.ColRef{ref("c", "c_mktsegment")},
			GroupBy: []storage.ColRef{ref("c", "c_mktsegment")},
			Aggs: []expr.AggSpec{
				{Func: expr.AggSum, Arg: &expr.Col{Ref: ref("o", "o_totalprice")}, Alias: "total"},
				{Func: expr.AggMin, Arg: &expr.Col{Ref: ref("o", "o_orderdate")}, Alias: "first"},
				{Func: expr.AggMax, Arg: &expr.Col{Ref: ref("o", "o_totalprice")}, Alias: "maxp"},
			},
		}
	}
	runBoth(t, env, []*plan.Query{
		q("1995-02-01"),
		q("1995-02-01"), // exact reuse, string keys decoded from the heap
		q("1995-01-01"), // partial reuse folds residual into string groups
	}, []ReuseMode{ModeNew, ModeExact, ModePartial})

	// Five market segments → five groups.
	res, err := env.opt.Run(q("1995-01-01"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsOf(res)) != 5 {
		t.Fatalf("groups = %d, want 5", len(rowsOf(res)))
	}
	if rowsOf(res)[0][0].Kind != types.String {
		t.Errorf("group key kind = %v", rowsOf(res)[0][0].Kind)
	}
	// MIN over a date column must come back as a date-comparable int.
	for _, row := range rowsOf(res) {
		if row[2].I < types.MustParseDate("1995-01-01") {
			t.Errorf("MIN(first) = %v below the filter bound", row[2])
		}
	}
}

// A string filter on the build side forces post-filter columns through
// the heap during subsuming reuse.
func TestStringFilterSubsumingReuse(t *testing.T) {
	env := newEnv(t, Options{})
	q := func(segs ...string) *plan.Query {
		return &plan.Query{
			Relations: []plan.Rel{
				{Alias: "c", Table: "customer"},
				{Alias: "o", Table: "orders"},
			},
			Joins: []plan.JoinPred{
				{Left: ref("c", "c_custkey"), Right: ref("o", "o_custkey")},
			},
			Filter: expr.NewBox(expr.Pred{
				Col: ref("c", "c_mktsegment"),
				Con: expr.SetConstraint(segs...),
			}),
			Select: []storage.ColRef{ref("o", "o_orderkey"), ref("c", "c_mktsegment")},
		}
	}
	wide := q("BUILDING", "AUTOMOBILE", "MACHINERY")
	narrow := q("BUILDING")
	runBoth(t, env, []*plan.Query{wide, narrow}, nil)

	// The IN-set complement is inexpressible, so a *wider* follow-up
	// must not claim partial reuse of the narrow table; correctness is
	// what matters (runBoth asserts it).
	wider := q("BUILDING", "FURNITURE", "HOUSEHOLD", "AUTOMOBILE")
	runBoth(t, env, []*plan.Query{wider}, nil)
}
