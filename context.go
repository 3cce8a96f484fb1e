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
// front-end's sessions parse each statement text once). A Query is
// immutable after Parse and safe to execute concurrently.
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
	return sqlparser.Parse(sql, db.cat)
}

// ExecContext parses and runs one SQL query under a context:
// cancellation or deadline expiry aborts morsel dispatch (in-flight
// morsels stop at their next batch, queued ones are skipped) and
// returns an error wrapping hashstasherr.ErrCanceled plus the
// context's own cause.
// Exec is the context.Background() shorthand.
func (db *DB) ExecContext(ctx context.Context, sql string) (*Result, error) {
	q, err := db.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecParsed(ctx, q)
}

// ExecParsed runs an already-parsed query under a context (the
// parse-once, execute-many path). The answer comes back both as
// columns (Result.Vecs) and boxed row by row (Result.Rows): every
// library entry point that runs one query ends here, and this is where
// its answer is boxed.
func (db *DB) ExecParsed(ctx context.Context, q *Query) (*Result, error) {
	res, err := db.ExecParsedColumnar(ctx, q)
	if err != nil {
		return nil, err
	}
	res.Box()
	return res, nil
}

// ExecParsedColumnar is ExecParsed without the boxing: the answer is in
// Result.Vecs only and Result.Rows is nil. The serving front-end runs
// every query through it and encodes the columns straight to the wire.
// The query's filter is closed over its join classes (plan.CloseFilter)
// before it plans, so a pin on one side of a key join filters the other
// side's scan too.
func (db *DB) ExecParsedColumnar(ctx context.Context, q *Query) (*Result, error) {
	return contained(ctx, func(ctx context.Context) (*Result, error) {
		return db.opt.RunContext(ctx, plan.CloseFilter(q))
	})
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
// configuration (shared.Run): each query's filter is closed as a solo
// query's is, queries merge into shared plans where the cost model says
// sharing pays, and the rest run as solo queries do. Each answer is
// boxed into Result.Rows, as ExecParsed boxes it.
func (db *DB) ExecParsedBatch(ctx context.Context, queries []*Query) (*BatchResult, error) {
	batch, err := contained(ctx, func(ctx context.Context) (*BatchResult, error) {
		return shared.Run(ctx, db.opt, queries)
	})
	if err != nil {
		return nil, err
	}
	for _, res := range batch.Results {
		res.Box()
	}
	return batch, nil
}

// BatchShape classifies a query for the query-batch interface: queries
// with equal shapes (same table/join spine) are mergeable into one
// shared plan. ok is false for queries that never merge (ORDER BY /
// LIMIT).
func BatchShape(q *Query) (shape string, ok bool) {
	return shared.ShapeKey(q)
}

// contained runs fn under ctx as the outermost panic boundary on the
// query path: the engines' own recover sites (scheduler hooks, serial
// exec, optimizer prepare/finish) unwind their cache state precisely,
// so anything reaching here is batch or closure bookkeeping — converted to a
// typed InternalError so one query's failure never unwinds the caller.
func contained[T any](ctx context.Context, fn func(context.Context) (*T, error)) (res *T, err error) {
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
	return fn(ctx)
}
