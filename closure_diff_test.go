package hashstash

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hashstash/internal/htcache"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
)

// The join-closure differential harness. Seeded query sequences over
// customer ⋈ orders and customer ⋈ orders ⋈ lineitem put point and range
// filters on either side of a join edge — repeated keys, pins that only
// the closure carries across an edge, and now and then pins that
// contradict each other — and run under CostModel, AlwaysReuse and
// NeverReuse at Parallelism {1, 4}. The reference is the
// same engine with plan.CloseFilter replaced by the identity: answers
// must be equal as row multisets (floats within 1e-9), and after every
// step the caches hold their invariants with no entry left pinned.

// closureShapes render one query of a shape under a filter conjunction.
var closureShapes = []struct {
	name   string
	render func(filter string) string
}{
	{"co-agg", func(f string) string {
		return `SELECT c.c_age, SUM(o.o_totalprice) AS spend, COUNT(*) AS n FROM customer c, orders o
			WHERE c.c_custkey = o.o_custkey AND ` + f + ` GROUP BY c.c_age`
	}},
	{"co-spj", func(f string) string {
		return `SELECT c.c_name, o.o_orderkey, o.o_totalprice FROM customer c, orders o
			WHERE c.c_custkey = o.o_custkey AND ` + f
	}},
	{"col-agg", func(f string) string {
		return `SELECT c.c_age, SUM(l.l_extendedprice) AS rev, COUNT(*) AS n FROM customer c, orders o, lineitem l
			WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey AND ` + f + ` GROUP BY c.c_age`
	}},
}

// closureFilter draws one filter conjunction for a shape. Keys come
// from small pools so that keys repeat; co-* shapes constrain the
// custkey edge, col-agg either edge.
func closureFilter(rng *rand.Rand, shape string, custs, orders []int) string {
	cust := custs[rng.Intn(len(custs))]
	order := orders[rng.Intn(len(orders))]
	side := []string{"c.c_custkey", "o.o_custkey"}[rng.Intn(2)]
	other := map[string]string{"c.c_custkey": "o.o_custkey", "o.o_custkey": "c.c_custkey"}[side]
	if shape == "col-agg" && rng.Intn(2) == 0 {
		side = []string{"o.o_orderkey", "l.l_orderkey"}[rng.Intn(2)]
		other = map[string]string{"o.o_orderkey": "l.l_orderkey", "l.l_orderkey": "o.o_orderkey"}[side]
		cust = order
	}
	var f string
	switch r := rng.Intn(10); {
	case r < 5:
		f = fmt.Sprintf("%s = %d", side, cust)
	case r < 7:
		f = fmt.Sprintf("%s BETWEEN %d AND %d", side, cust, cust+rng.Intn(20))
	case r < 9:
		f = fmt.Sprintf("%s >= %d AND %s < %d", side, cust, other, cust+1+rng.Intn(30))
	default:
		f = fmt.Sprintf("%s = %d AND %s = %d", side, cust, other, cust+1)
	}
	if rng.Intn(3) == 0 {
		f += fmt.Sprintf(" AND o.o_totalprice >= %d", 1000+rng.Intn(300000))
	}
	return f
}

// closureSequence generates one seed's steps: mostly solo queries, and
// a few two-query batches of one shape (the batch interface closes its
// queries too).
func closureSequence(rng *rand.Rand, n int) []diffStep {
	custs := make([]int, 8)
	for i := range custs {
		custs[i] = 1 + rng.Intn(300)
	}
	orders := make([]int, 8)
	for i := range orders {
		orders[i] = 1 + rng.Intn(3000)
	}
	var steps []diffStep
	for len(steps) < n {
		sh := closureShapes[rng.Intn(len(closureShapes))]
		st := diffStep{shape: sh.name, sqls: []string{sh.render(closureFilter(rng, sh.name, custs, orders))}}
		if rng.Intn(8) == 0 {
			st.sqls = append(st.sqls, sh.render(closureFilter(rng, sh.name, custs, orders)))
			st.batch = true
		}
		steps = append(steps, st)
	}
	return steps
}

// withoutClosure runs f with the engine's filter closure replaced by the
// identity.
func withoutClosure(f func()) {
	orig := plan.CloseFilter
	plan.CloseFilter = func(q *plan.Query) *plan.Query { return q }
	defer func() { plan.CloseFilter = orig }()
	f()
}

// hasCustkeyIndex reports whether the cache holds a secondary index
// over orders.o_custkey.
func hasCustkeyIndex(db *DB) bool {
	lin := htcache.IndexLineage(storage.ColRef{Table: "orders", Column: "o_custkey"})
	return len(db.cache.Candidates(lin, nil)) > 0
}

func TestJoinClosureDifferential(t *testing.T) {
	var indexed, exactAggs int
	for _, seed := range []int64{1, 2} {
		steps := closureSequence(rand.New(rand.NewSource(seed)), 70)
		for _, strategy := range []Strategy{CostModel, AlwaysReuse, NeverReuse} {
			for _, par := range []int{1, 4} {
				name := fmt.Sprintf("seed=%d/%v/par=%d", seed, strategy, par)
				opts := []Option{WithStrategy(strategy), WithTuning(Tuning{Parallelism: par, MorselRows: 256})}
				db := openTPCH(t, opts...)
				ref := openTPCH(t, opts...)
				for i, st := range steps {
					fail := func(format string, args ...any) {
						t.Helper()
						t.Fatalf("%s step %d (%s): %s\n%s", name, i, st.shape, fmt.Sprintf(format, args...), strings.Join(st.sqls, "\n"))
					}
					got, _, err := runStep(db, st)
					if err != nil {
						fail("%v", err)
					}
					var want []*Result
					withoutClosure(func() { want, _, err = runStep(ref, st) })
					if err != nil {
						fail("reference: %v", err)
					}
					for j := range got {
						if err := sameAnswer(normalize(want[j]), normalize(got[j])); err != nil {
							fail("query %d: %v", j, err)
						}
						for _, d := range got[j].Decisions {
							if d.Operator == "agg" && d.Mode.String() == "exact" {
								exactAggs++
							}
						}
					}
					for _, d := range []*DB{db, ref} {
						if err := checkAtRest(d); err != nil {
							fail("%v", err)
						}
					}
				}
				if hasCustkeyIndex(db) {
					indexed++
				}
			}
		}
	}
	t.Logf("configurations with an o_custkey index: %d of 12; exact aggregate reuses: %d", indexed, exactAggs)
	if indexed != 12 {
		t.Errorf("%d of 12 configurations built an o_custkey index, want all", indexed)
	}
	if exactAggs == 0 {
		t.Error("no aggregate was ever reused exactly")
	}
}

// TestShardedContradictoryPins: pins that disagree across the custkey
// join close to an empty filter, and the query answers no rows, cold
// and warm.
func TestShardedContradictoryPins(t *testing.T) {
	db := openTPCH(t)
	const sql = `SELECT c.c_age, SUM(o.o_totalprice) AS spend FROM customer c, orders o
		WHERE c.c_custkey = o.o_custkey AND c.c_custkey = 5 AND o.o_custkey = 6 GROUP BY c.c_age`
	for run := 0; run < 2; run++ {
		if res := mustExec(t, db, sql); len(res.Rows) != 0 {
			t.Errorf("run %d: %d rows, want none", run, len(res.Rows))
		}
	}
}
