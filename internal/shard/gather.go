package shard

import (
	"context"
	"slices"
	"time"

	"hashstash/internal/exec"
	"hashstash/internal/faultinject"
	"hashstash/internal/optimizer"
	"hashstash/internal/plan"
)

// RunContext executes a query: it closes the filter over the join
// classes (plan.CloseFilter), then a single-partition query — every
// query, on a router of one — goes straight to its shard's optimizer and
// any other runs on the whole tables. Cancellation aborts the run's
// morsel dispatch.
func (e *Engine) RunContext(ctx context.Context, q *plan.Query) (*optimizer.Result, error) {
	q, s := e.route(q)
	return e.run(ctx, q, s)
}

// run executes a closed query on shard s; when s < 0 it runs the query
// on the whole tables.
func (e *Engine) run(ctx context.Context, q *plan.Query, s int) (*optimizer.Result, error) {
	if s < 0 {
		return e.runWhole(ctx, q)
	}
	e.shards[s].Queries.Add(1)
	return e.shards[s].Opt.RunContext(ctx, q)
}

// runWhole runs a query that no shard holds alone as one plan on shard
// 0: every partitioned relation is retargeted at its whole table, and
// the plan runs under the engine's full worker pool. No row moves, and
// the hash tables the plan builds stay in shard 0's cache for reuse.
func (e *Engine) runWhole(ctx context.Context, q *plan.Query) (*optimizer.Result, error) {
	if err := faultinject.Inject(faultinject.ShardExchange); err != nil {
		return nil, err
	}
	qw := *q
	qw.Relations = slices.Clone(q.Relations)
	for i, rel := range qw.Relations {
		if _, ok := e.keys[rel.Table]; ok {
			qw.Relations[i].Table = wholeName(rel.Table)
		}
	}
	sh := e.shards[0]
	sh.Queries.Add(1)
	p, err := sh.Opt.Prepare(&qw)
	if err != nil {
		return nil, err
	}
	par := e.par
	par.Ctx = ctx
	t0 := time.Now()
	runErr := exec.RunParallel(p.Pipelines(), par)
	return p.Finish(runErr, time.Since(t0))
}
