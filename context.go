package hashstash

import (
	"context"
	"fmt"

	"hashstash/hashstasherr"
	"hashstash/internal/plan"
	"hashstash/internal/shared"
	"hashstash/internal/sqlparser"
)

// Query is a parsed, validated logical query. Parse produces one; the
// ExecParsed* entry points execute them without re-parsing (the serving
// front-end parses once at admission and executes at dispatch). A
// Query is immutable after Parse and safe to execute concurrently.
type Query = plan.Query

// BatchResult is the outcome of a batch execution: per-query results
// in input order plus the merge configuration (which queries shared a
// plan).
type BatchResult = shared.BatchResult

// Parse compiles SQL into a Query, resolving and validating every
// reference against the catalog. Failures are typed: parse failures
// are *hashstasherr.ParseError, unresolvable references wrap
// hashstasherr.ErrUnknownTable / ErrUnknownColumn.
func (db *DB) Parse(sql string) (*Query, error) {
	return sqlparser.Parse(sql, db.router.Catalog())
}

// ExecContext parses and runs one SQL query under a context:
// cancellation or deadline expiry aborts morsel dispatch (in-flight
// morsels finish, queued ones are skipped) and returns an error
// wrapping hashstasherr.ErrCanceled plus the context's own cause.
// Exec is the context.Background() shorthand.
func (db *DB) ExecContext(ctx context.Context, sql string) (*Result, error) {
	q, err := db.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.runContext(ctx, q)
}

// ExecParsed runs an already-parsed query under a context (the
// parse-once, execute-many path).
func (db *DB) ExecParsed(ctx context.Context, q *Query) (*Result, error) {
	return db.runContext(ctx, q)
}

// ExecBatchContext is ExecBatch under a context: the batch's shared
// and solo plans all run with the context, and cancellation aborts the
// in-flight plan's morsel dispatch.
func (db *DB) ExecBatchContext(ctx context.Context, sqls []string) ([]*Result, error) {
	queries := make([]*Query, len(sqls))
	for i, sql := range sqls {
		q, err := db.Parse(sql)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		queries[i] = q
	}
	batch, err := db.ExecParsedBatch(ctx, queries)
	if err != nil {
		return nil, err
	}
	return batch.Results, nil
}

// ExecParsedBatch runs a batch of already-parsed queries through the
// query-batch interface, returning per-query results plus the merge
// configuration. On engines without shared plans (the baselines, a
// multi-shard router) every query runs solo and the groups are
// singletons. Either way each query's filter is closed over its join
// classes (plan.CloseFilter) once, as a solo Exec closes it.
func (db *DB) ExecParsedBatch(ctx context.Context, queries []*Query) (*BatchResult, error) {
	if !db.SupportsSharedPlans() {
		out := &BatchResult{Results: make([]*Result, len(queries)), Groups: make([][]int, len(queries))}
		for i, q := range queries {
			r, err := db.runContext(ctx, q)
			if err != nil {
				return nil, fmt.Errorf("query %d: %w", i, err)
			}
			out.Results[i] = r
			out.Groups[i] = []int{i}
		}
		return out, nil
	}
	closed := make([]*Query, len(queries))
	for i, q := range queries {
		closed[i] = plan.CloseFilter(q)
	}
	return db.batch.RunBatchContext(ctx, closed)
}

// SupportsSharedPlans reports whether ExecParsedBatch can merge
// mergeable queries into shared plans (the HashStash engine on one
// shard; the baselines and a multi-shard router run query-at-a-time).
func (db *DB) SupportsSharedPlans() bool {
	return db.engine == EngineHashStash && db.Shards() == 1
}

// BatchShape classifies a query for shared-plan admission: queries
// with equal shapes (same table/join spine) are mergeable into one
// shared plan. ok is false for queries that never merge (ORDER BY /
// LIMIT). The serving front-end keys its admission queues on this.
func BatchShape(q *Query) (shape string, ok bool) {
	return shared.ShapeKey(q)
}

// EstimateCost plans q (reuse-aware, against the current cache state
// of the shard or shards it would run on) and returns the optimizer's
// cost estimate in model nanoseconds without executing. Serving
// admission uses it to judge whether a query fits inside a deadline.
func (db *DB) EstimateCost(q *Query) (float64, error) {
	return db.router.EstimateCost(q)
}

// EstimateSharingGain models the saving (model ns) of executing k
// queries of q's shape as one shared plan instead of k solo plans;
// <= 0 means modeled sharing does not pay. Engines without shared
// plans always report 0.
func (db *DB) EstimateSharingGain(q *Query, k int) float64 {
	if !db.SupportsSharedPlans() {
		return 0
	}
	return db.batch.SharingGain(q, k)
}

// runContext routes a parsed query to the configured engine under ctx.
// It is the outermost panic boundary on the query path: the engines'
// own recover sites (scheduler hooks, serial exec, optimizer
// prepare/finish) unwind their cache state precisely, so anything
// reaching here is merge/route bookkeeping — converted to a typed
// InternalError so one query's failure never unwinds the caller.
func (db *DB) runContext(ctx context.Context, q *plan.Query) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, hashstasherr.Internal("query", r)
		}
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, hashstasherr.Canceled(err)
	}
	return db.router.RunContext(ctx, q)
}
