// Package shared implements multi-query reuse (Section 4 of the paper):
// reuse-aware shared plans over query batches. A batch is partitioned
// into groups by a dynamic-programming merge process; each multi-query
// group executes one shared plan built on the Data-Query model — shared
// scans evaluate every query's predicates in one pass and tag rows with
// query-id bitmasks, shared reuse-aware hash joins (SRHJ) carry the tags
// through qid-aware probes, and shared reuse-aware hash aggregates
// (SRHA) materialize the grouping phase as tagged tuples so each query's
// aggregates are computed from the shared grouping table.
//
// Cached shared tables are reused after re-tagging every stored tuple
// against the new batch's predicates (the correctness requirement the
// paper stresses: stale tags from recycled query IDs would corrupt
// results).
package shared

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"hashstash/internal/expr"
	"hashstash/internal/optimizer"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// Optimizer plans and runs query batches.
type Optimizer struct {
	Single *optimizer.Optimizer
}

// New wraps a single-query optimizer.
func New(single *optimizer.Optimizer) *Optimizer { return &Optimizer{Single: single} }

// BatchResult is the outcome of executing a batch.
type BatchResult struct {
	// Results holds one result per query, in input order.
	Results []*optimizer.Result
	// Groups records the merge configuration: each element is the list
	// of query indexes executed by one plan (len>1 → shared plan).
	Groups [][]int
}

// NumSharedPlans counts the executed plans (shared or single).
func (b *BatchResult) NumSharedPlans() int { return len(b.Groups) }

// mergeable reports whether two queries may share a plan: the paper
// requires identical join graphs. ORDER BY / LIMIT queries never merge —
// ordering and truncation are per-query properties the shared plan's
// qid-tagged union cannot express, so they run as singletons (which
// route through the single-query executor and its order/limit paths).
func mergeable(a, b *plan.Query) bool {
	ka, oka := ShapeKey(a)
	kb, okb := ShapeKey(b)
	return oka && okb && ka == kb
}

// ShapeKey classifies a query for batch admission: queries with equal
// keys are mergeable into one shared plan. The second return is false
// for queries that never merge (ORDER BY / LIMIT — ordering and
// truncation are per-query properties the qid-tagged union cannot
// express). The serving front-end keys its admission queues on this.
func ShapeKey(q *plan.Query) (string, bool) {
	if q.OrderBy != nil || q.Limit > 0 {
		return "", false
	}
	return q.JoinGraphSignature(), true
}

// SharingGain models the saving (ns) of executing k queries of q's
// shape as one shared plan instead of k solo plans: k times the single
// plan's estimated cost minus the shared plan's estimate over k copies.
// Negative or zero means modeled sharing does not pay. The serving
// front-end's admission policy gates queueing on it.
func (s *Optimizer) SharingGain(q *plan.Query, k int) float64 {
	if k < 2 {
		return 0
	}
	if _, ok := ShapeKey(q); !ok {
		return 0
	}
	p, err := s.Single.PlanQuery(q)
	if err != nil {
		return 0
	}
	copies := make([]*plan.Query, k)
	group := make([]int, k)
	for i := range copies {
		copies[i] = q
		group[i] = i
	}
	return float64(k)*p.EstimatedCost - s.sharedPlanCost(copies, group)
}

// configKey canonically encodes a merge configuration.
func configKey(groups [][]int) string {
	parts := make([]string, len(groups))
	for i, g := range groups {
		s := make([]string, len(g))
		for j, q := range g {
			s[j] = fmt.Sprint(q)
		}
		parts[i] = strings.Join(s, "+")
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// PlanBatch runs the dynamic-programming merge process of Section 4.2:
// starting from the best configuration over the first k-1 queries, query
// k is either kept separate or merged into each existing compatible
// group; the cheapest configuration per level survives. Costs come from
// the single-query optimizer's estimates and the shared-plan cost model.
func (s *Optimizer) PlanBatch(queries []*plan.Query) ([][]int, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("shared: empty batch")
	}
	if len(queries) > 64 {
		return nil, fmt.Errorf("shared: batch of %d exceeds the 64-query tag limit", len(queries))
	}
	singleCost := make([]float64, len(queries))
	for i, q := range queries {
		p, err := s.Single.PlanQuery(q)
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
				cost += s.groupCost(queries, grp, singleCost)
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
func (s *Optimizer) groupCost(queries []*plan.Query, group []int, singleCost []float64) float64 {
	if len(group) == 1 {
		return singleCost[group[0]]
	}
	return s.sharedPlanCost(queries, group)
}

// sharedPlanCost models a shared plan: every relation is scanned fully
// once (shared scans evaluate all predicates in one pass), each join is
// paid once over the union of qualifying rows, and each query pays its
// own aggregation readout. The estimate deliberately mirrors the shape
// of the single-query model so the DP compares like with like.
func (s *Optimizer) sharedPlanCost(queries []*plan.Query, group []int) float64 {
	rep := queries[group[0]]
	o := s.Single
	var cost float64
	for _, rel := range rep.Relations {
		ts := o.Cat.Stats(rel.Table)
		if ts == nil {
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

// RunBatch plans and executes a batch, returning per-query results in
// input order.
func (s *Optimizer) RunBatch(queries []*plan.Query) (*BatchResult, error) {
	return s.RunBatchContext(context.Background(), queries)
}

// RunBatchContext is RunBatch under a context: cancellation or
// deadline expiry aborts the in-flight group's morsel dispatch and the
// batch returns an error wrapping hashstasherr.ErrCanceled.
func (s *Optimizer) RunBatchContext(ctx context.Context, queries []*plan.Query) (*BatchResult, error) {
	// Merge costing resolves cached snapshots, which are frozen:
	// concurrent widening queries publish successors without disturbing
	// this planning pass.
	groups, err := s.PlanBatch(queries)
	if err != nil {
		return nil, err
	}
	out := &BatchResult{Results: make([]*optimizer.Result, len(queries)), Groups: groups}
	for _, g := range groups {
		if len(g) == 1 {
			res, err := s.Single.RunContext(ctx, queries[g[0]])
			if err != nil {
				return nil, fmt.Errorf("shared: query %d: %w", g[0], err)
			}
			out.Results[g[0]] = res
			continue
		}
		results, err := s.runSharedGroup(ctx, queries, g)
		if err != nil {
			return nil, err
		}
		for i, qi := range g {
			out.Results[qi] = results[i]
		}
	}
	return out, nil
}
