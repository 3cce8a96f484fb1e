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

// routeShard decides whether q is a single-partition query: one whose
// partition-key constraints pin every partitioned relation's matching
// rows to the same shard. It returns (shard, true) when so.
//
// The pins are read from q's filter, which plan.CloseFilter has closed
// over the join equivalence classes: a point constraint on any member
// of a chain of key = key joins already sits on every member, so the
// co-partitioned customer ⋈ orders lookup pinned on c_custkey alone
// finds o_custkey pinned too. A filter that closed to an empty box
// (pins that disagree across a join) has an empty answer on every
// shard, so one shard computes it.
//
// A query that references no partitioned table at all runs entirely on
// replicas; it is pinned to shard 0 (scattering it would duplicate
// rows).
func (e *Engine) routeShard(q *plan.Query) (int, bool) {
	n := len(e.shards)
	if n == 1 || q.Filter.Empty() {
		return 0, true
	}
	target := -1
	var fragRows float64
	for _, rel := range q.Relations {
		key, ok := e.keys[rel.Table]
		if !ok {
			continue
		}
		con, ok := q.Filter.Constraint(storage.ColRef{Table: rel.Alias, Column: key})
		v, isPoint := pointValue(con)
		if !ok || !isPoint {
			return 0, false
		}
		s := storage.ShardOf(v, n)
		if target >= 0 && s != target {
			// Two partition keys of different join classes pinned to
			// different shards: each shard holds only part of the rows.
			return 0, false
		}
		target = s
		if st := e.shards[s].Cat.Stats(rel.Table); st != nil {
			fragRows += float64(st.Rows)
		}
	}
	if target < 0 {
		return 0, true
	}
	if !e.model.RouteSingleShard(fragRows, n) {
		return 0, false
	}
	return target, true
}
