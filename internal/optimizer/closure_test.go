package optimizer

import (
	"fmt"
	"testing"

	"hashstash/internal/htcache"
	"hashstash/internal/plan"
	"hashstash/internal/workload"
)

// TestDecisionsIndependentOfClosure: no filter of the explore or
// dashboard traces constrains a join column, so closing the filters over
// the join classes must hand every query back unchanged, and replaying
// the traces with and without the closure must reproduce every query's
// reuse decisions.
func TestDecisionsIndependentOfClosure(t *testing.T) {
	env := newEnv(t, Options{})
	var explore []workload.Step
	for i, level := range []workload.Level{workload.High, workload.Medium, workload.Low} {
		explore = append(explore, workload.Generate(workload.Config{Level: level, N: 48, Seed: uint64(21 + i)})...)
	}
	traces := []struct {
		name  string
		steps []workload.Step
	}{
		{"explore", explore},
		{"dashboard", workload.GenerateSkewed(workload.SkewConfig{N: 200, Shapes: 48, S: 1.1, OneShotFrac: 0.2, Seed: 3})},
	}
	replay := func(steps []workload.Step, close func(*plan.Query) *plan.Query) ([]string, int) {
		opt := New(env.cat, htcache.New(0), nil, Options{})
		out, reused := make([]string, len(steps)), 0
		for i, st := range steps {
			res, err := opt.Run(close(st.Query))
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			out[i] = fmt.Sprintf("%+v", res.Decisions)
			for _, d := range res.Decisions {
				if d.Action == 'S' {
					reused++
					break
				}
			}
		}
		return out, reused
	}
	identity := func(q *plan.Query) *plan.Query { return q }
	for _, tr := range traces {
		for i, st := range tr.steps {
			if plan.CloseFilter(st.Query) != st.Query {
				t.Errorf("%s query %d: the closure rewrote %s", tr.name, i, st.Query)
			}
		}
		closed, reused := replay(tr.steps, plan.CloseFilter)
		open, _ := replay(tr.steps, identity)
		for i := range closed {
			if closed[i] != open[i] {
				t.Errorf("%s query %d: decisions %s with the closure, %s without", tr.name, i, closed[i], open[i])
			}
		}
		t.Logf("%s: %d of %d queries reused a table", tr.name, reused, len(closed))
		if reused == 0 {
			t.Errorf("%s: no query reused anything; the comparison proves nothing", tr.name)
		}
	}
}

// TestClosedPointJoinEstimate: the sharded workload's point lookup,
// closed so that c_custkey and o_custkey both carry the pin, estimates
// its join rows within 2x of the mean actual count. Without scaling each
// key's NDV by its own constraint the pin's selectivity would count
// twice, and the estimate would fall short by the customer count.
func TestClosedPointJoinEstimate(t *testing.T) {
	env := newEnv(t, Options{})
	custkeys := env.cat.Table("orders").Column("o_custkey").Ints
	nCust := int64(env.cat.Table("customer").NumRows())
	perKey := map[int64]int{}
	for _, k := range custkeys {
		perKey[k]++
	}
	steps := workload.GeneratePartitioned(workload.PartitionedConfig{N: 50, CrossShardFrac: 0, CustKeys: nCust, Seed: 9})
	var est, actual float64
	for _, st := range steps {
		q := plan.CloseFilter(st.Query)
		if q == st.Query {
			t.Fatalf("point query %s was not closed", st.Query)
		}
		est += env.opt.EstimateMaskRows(q, 3, q.Filter)
		actual += float64(perKey[st.Lo])
	}
	if actual == 0 || est < actual/2 || est > actual*2 {
		t.Errorf("estimated %.2f join rows over %d point lookups, actual %.0f", est, len(steps), actual)
	}
	t.Logf("estimated %.2f join rows over %d point lookups, actual %.0f", est, len(steps), actual)
}
