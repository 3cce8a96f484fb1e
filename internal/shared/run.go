package shared

import (
	"context"
	"fmt"

	"hashstash/internal/optimizer"
	"hashstash/internal/plan"
)

// BatchResult is the outcome of executing a batch.
type BatchResult struct {
	// Results holds one result per query, in input order.
	Results []*optimizer.Result
	// Groups records the merge configuration: each element is the list
	// of query indexes executed by one plan (len>1 → shared plan).
	Groups [][]int
}

// Run runs a batch of queries through the query-batch interface
// (Section 4 of the paper) on o and returns their results in input
// order. Each query's filter is closed over its join classes
// (plan.CloseFilter), as a solo query's is; PlanBatch then splits the
// batch into groups. Groups run in the order of their first member: a
// group of one as a solo query (optimizer.RunContext), a larger group as
// one shared plan (optimizer.RunSharedContext). Cancellation aborts the
// in-flight group's morsel dispatch.
func Run(ctx context.Context, o *optimizer.Optimizer, queries []*plan.Query) (*BatchResult, error) {
	closed := make([]*plan.Query, len(queries))
	for i, q := range queries {
		closed[i] = plan.CloseFilter(q)
	}
	groups, err := PlanBatch(o, closed)
	if err != nil {
		return nil, err
	}
	out := &BatchResult{Results: make([]*optimizer.Result, len(queries)), Groups: groups}
	for _, g := range groups {
		if len(g) == 1 {
			res, err := o.RunContext(ctx, closed[g[0]])
			if err != nil {
				return nil, fmt.Errorf("query %d: %w", g[0], err)
			}
			out.Results[g[0]] = res
			continue
		}
		members := make([]*plan.Query, len(g))
		for j, qi := range g {
			members[j] = closed[qi]
		}
		results, err := o.RunSharedContext(ctx, members, SharedPlanCost(o, closed, g))
		if err != nil {
			return nil, err
		}
		for j, qi := range g {
			out.Results[qi] = results[j]
		}
	}
	return out, nil
}
