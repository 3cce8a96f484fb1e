package shard

import (
	"context"
	"fmt"
	"slices"

	"hashstash/internal/optimizer"
	"hashstash/internal/plan"
	"hashstash/internal/shared"
)

// BatchResult is the outcome of executing a batch.
type BatchResult struct {
	// Results holds one result per query, in input order.
	Results []*optimizer.Result
	// Groups records the merge configuration: each element is the list
	// of query indexes executed by one plan (len>1 → shared plan).
	Groups [][]int
}

// RunBatchContext runs a batch of queries through the query-batch
// interface (Section 4 of the paper) and returns their results in input
// order. Each query is closed and routed as RunContext closes and routes
// it. The queries routed to one shard form a sub-batch that
// shared.PlanBatch splits into groups over that shard's optimizer; a
// query pinned to no shard is a group of one. Groups run in the order of their
// first member: a group of one exactly as RunContext runs its query, a
// larger group as one shared plan (optimizer.RunSharedContext).
// Cancellation aborts the in-flight group's morsel dispatch.
func (e *Engine) RunBatchContext(ctx context.Context, queries []*plan.Query) (*BatchResult, error) {
	closed := make([]*plan.Query, len(queries))
	route := make([]int, len(queries))
	subs := make([][]int, len(e.shards)) // each shard's routed members
	var groups [][]int
	for i, q := range queries {
		if closed[i], route[i] = e.route(q); route[i] < 0 {
			groups = append(groups, []int{i})
		} else {
			subs[route[i]] = append(subs[route[i]], i)
		}
	}
	for s, sub := range subs {
		if len(sub) == 0 {
			continue
		}
		gs, err := shared.PlanBatch(e.shards[s].Opt, pick(closed, sub))
		if err != nil {
			return nil, err
		}
		for _, g := range gs {
			groups = append(groups, pick(sub, g))
		}
	}
	slices.SortFunc(groups, func(a, b []int) int { return a[0] - b[0] })

	out := &BatchResult{Results: make([]*optimizer.Result, len(queries)), Groups: groups}
	for _, g := range groups {
		if len(g) == 1 {
			res, err := e.run(ctx, closed[g[0]], route[g[0]])
			if err != nil {
				return nil, fmt.Errorf("query %d: %w", g[0], err)
			}
			out.Results[g[0]] = res
			continue
		}
		sh := e.shards[route[g[0]]]
		sh.Queries.Add(int64(len(g)))
		results, err := sh.Opt.RunSharedContext(ctx, pick(closed, g), shared.SharedPlanCost(sh.Opt, closed, g))
		if err != nil {
			return nil, err
		}
		for i, qi := range g {
			out.Results[qi] = results[i]
		}
	}
	return out, nil
}

// pick returns the elements of xs at the indexes idx, in order.
func pick[T any](xs []T, idx []int) []T {
	out := make([]T, len(idx))
	for j, i := range idx {
		out[j] = xs[i]
	}
	return out
}
