// Package shared plans multi-query reuse (Section 4 of the paper):
// reuse-aware shared plans over query batches. A batch is partitioned
// into groups by a dynamic-programming merge process; each multi-query
// group executes one shared plan built on the Data-Query model — shared
// scans evaluate every query's predicates in one pass and tag rows with
// query-id bitmasks, shared reuse-aware hash joins (SRHJ) carry the tags
// through qid-aware probes, and shared reuse-aware hash aggregates
// (SRHA) materialize the grouping phase as tagged tuples so each query's
// aggregates are computed from the shared grouping table. PlanBatch
// forms the groups and Run executes a batch group by group on one
// optimizer: the optimizer's compiler lowers and runs each shared plan
// (optimizer.RunSharedContext), and a group of one runs as a solo query.
//
// Cached shared tables are reused after re-tagging every stored tuple
// against the new batch's predicates (the correctness requirement the
// paper stresses: stale tags from recycled query IDs would corrupt
// results).
package shared

import (
	"fmt"

	"hashstash/internal/expr"
	"hashstash/internal/optimizer"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// mergeable reports whether two queries may share a plan: both have a
// shape (ShapeKey) and it is the same.
func mergeable(a, b *plan.Query) bool {
	ka, oka := ShapeKey(a)
	kb, okb := ShapeKey(b)
	return oka && okb && ka == kb
}

// ShapeKey classifies a query for batch admission: queries with equal
// keys are mergeable into one shared plan — one join graph, and all
// aggregating or all not (a shared plan ends in grouping tables or in
// one collected spine, never both). The second return is false for
// queries that never merge: ORDER BY / LIMIT — ordering and truncation
// are per-query properties the qid-tagged union cannot express — and
// self-joins, whose members' relations a shared plan could not match
// instance for instance by base table.
func ShapeKey(q *plan.Query) (string, bool) {
	if q.OrderBy != nil || q.Limit > 0 || q.RepeatsTable(1<<uint(len(q.Relations))-1) {
		return "", false
	}
	if q.IsAggregate() {
		return q.JoinGraphSignature() + "|agg", true
	}
	return q.JoinGraphSignature(), true
}

// PlanBatch runs the dynamic-programming merge process of Section 4.2:
// starting from the best configuration over the first k-1 queries, query
// k is either kept separate or merged into each existing compatible
// group; the cheapest configuration per level survives. Costs come from
// the single-query optimizer's estimates and the shared-plan cost model;
// a batch of one is not planned. Costing resolves frozen snapshots, so
// concurrent widening queries never disturb it.
func PlanBatch(o *optimizer.Optimizer, queries []*plan.Query) ([][]int, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("shared: empty batch")
	}
	if len(queries) > 64 {
		return nil, fmt.Errorf("shared: batch of %d exceeds the 64-query tag limit", len(queries))
	}
	if len(queries) == 1 {
		return [][]int{{0}}, nil
	}
	singleCost := make([]float64, len(queries))
	for i, q := range queries {
		p, err := o.PlanQuery(q)
		if err != nil {
			return nil, fmt.Errorf("shared: query %d: %w", i, err)
		}
		singleCost[i] = p.EstimatedCost
	}

	best := [][]int{{0}}
	bestCost := singleCost[0]
	for k := 1; k < len(queries); k++ {
		// Alternative 1: Qk separate.
		cand := append(cloneGroups(best), []int{k})
		candCost := bestCost + singleCost[k]

		// Alternative 2..n: merge Qk into an existing group.
		for gi, g := range best {
			if !mergeable(queries[g[0]], queries[k]) {
				continue
			}
			merged := cloneGroups(best)
			merged[gi] = append(merged[gi], k)
			cost := 0.0
			for _, grp := range merged {
				cost += groupCost(o, queries, grp, singleCost)
			}
			if cost < candCost {
				cand, candCost = merged, cost
			}
		}
		best, bestCost = cand, candCost
	}
	return best, nil
}

func cloneGroups(groups [][]int) [][]int {
	out := make([][]int, len(groups))
	for i, g := range groups {
		out[i] = append([]int(nil), g...)
	}
	return out
}

// groupCost estimates the runtime of executing a group with one plan.
func groupCost(o *optimizer.Optimizer, queries []*plan.Query, group []int, singleCost []float64) float64 {
	if len(group) == 1 {
		return singleCost[group[0]]
	}
	return SharedPlanCost(o, queries, group)
}

// SharedPlanCost models a group's shared plan on o: every relation is
// scanned fully once (shared scans evaluate all predicates in one
// pass), each join is paid once over the union of qualifying rows, and
// each query pays its own aggregation readout. The estimate
// deliberately mirrors the shape of the single-query model so the DP
// compares like with like.
func SharedPlanCost(o *optimizer.Optimizer, queries []*plan.Query, group []int) float64 {
	rep := queries[group[0]]
	var cost float64
	for _, rel := range rep.Relations {
		ts, ok := o.Cat.Stats(rel.Table)
		if !ok {
			continue
		}
		cost += o.Model.ScanCost(float64(ts.Rows), 64)
	}
	// Join work: one pass over the hull of all queries' predicates.
	hull := hullFilter(queries, group)
	full := (1 << uint(len(rep.Relations))) - 1
	unionRows := o.EstimateMaskRows(rep, full, hull)
	cost += unionRows * 80 // per-row probe chain through the join spine
	// Per-query aggregation readout.
	for range group {
		cost += unionRows * 8
	}
	return cost
}

// hullFilter returns a filter box covering every query in the group
// (used only for cardinality estimation, so hull overclaim is fine).
func hullFilter(queries []*plan.Query, group []int) expr.Box {
	cols := map[storage.ColRef][]expr.Constraint{}
	for _, qi := range group {
		for _, p := range queries[qi].Filter {
			cols[p.Col] = append(cols[p.Col], p.Con)
		}
	}
	var preds []expr.Pred
	for col, cons := range cols {
		if len(cons) != len(group) {
			continue // some query leaves the column unconstrained
		}
		hull := cons[0]
		exact := true
		for _, c := range cons[1:] {
			h, ok := hullConstraint(hull, c)
			if !ok {
				exact = false
				break
			}
			hull = h
		}
		if exact {
			preds = append(preds, expr.Pred{Col: col, Con: hull})
		}
	}
	return expr.NewBox(preds...)
}

// hullConstraint is a permissive hull for estimation purposes.
func hullConstraint(a, b expr.Constraint) (expr.Constraint, bool) {
	if a.Kind != b.Kind {
		return expr.Constraint{}, false
	}
	if a.Kind == types.String {
		return expr.SetConstraint(append(append([]string{}, a.Set...), b.Set...)...), true
	}
	iv := a.Iv
	o := b.Iv
	if !o.HasLo {
		iv.HasLo = false
	} else if iv.HasLo && o.Lo.Compare(iv.Lo) < 0 {
		iv.Lo, iv.LoIncl = o.Lo, o.LoIncl
	}
	if !o.HasHi {
		iv.HasHi = false
	} else if iv.HasHi && o.Hi.Compare(iv.Hi) > 0 {
		iv.Hi, iv.HiIncl = o.Hi, o.HiIncl
	}
	return expr.Constraint{Kind: a.Kind, Iv: iv}, true
}
