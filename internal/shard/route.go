package shard

import (
	"hashstash/internal/expr"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// pointValue extracts the single value of a point-equality constraint
// (a degenerate closed interval, or a one-element string set).
func pointValue(c expr.Constraint) (types.Value, bool) {
	if c.Kind == types.String {
		if len(c.Set) == 1 {
			return types.NewString(c.Set[0]), true
		}
		return types.Value{}, false
	}
	iv := c.Iv
	if iv.HasLo && iv.HasHi && iv.LoIncl && iv.HiIncl && iv.Lo.Compare(iv.Hi) == 0 {
		return iv.Lo, true
	}
	return types.Value{}, false
}

// route closes q's filter over the join equivalence classes
// (plan.CloseFilter) and decides whether q is a single-partition query:
// one whose partition-key constraints pin every partitioned relation's
// matching rows to the same shard. It returns the closed query with
// that shard, or with -1 when the query runs on the whole tables.
//
// The pins are read from the closed filter: a point constraint on any
// member of a chain of key = key joins sits on every member, so the
// co-partitioned customer ⋈ orders lookup pinned on c_custkey alone
// finds o_custkey pinned too. A filter that closed to an empty box
// (pins that disagree across a join) has an empty answer on every
// shard, so one shard computes it.
//
// A query that references no partitioned table at all runs entirely on
// replicas; it is pinned to shard 0.
func (e *Engine) route(q *plan.Query) (*plan.Query, int) {
	q = plan.CloseFilter(q)
	n := len(e.shards)
	if n == 1 || q.Filter.Empty() {
		return q, 0
	}
	target := -1
	for _, rel := range q.Relations {
		key, ok := e.keys[rel.Table]
		if !ok {
			continue
		}
		con, ok := q.Filter.Constraint(storage.ColRef{Table: rel.Alias, Column: key})
		v, isPoint := pointValue(con)
		if !ok || !isPoint {
			return q, -1
		}
		s := storage.ShardOf(v, n)
		if target >= 0 && s != target {
			// Two partition keys of different join classes pinned to
			// different shards: each shard holds only part of the rows.
			return q, -1
		}
		target = s
	}
	return q, max(target, 0)
}
