package shard

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"hashstash/internal/exec"
	"hashstash/internal/expr"
	"hashstash/internal/optimizer"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// RunContext executes a query: it closes the filter over the join
// classes (plan.CloseFilter), then a single-partition query — every
// query, on a router of one — goes straight to its shard's optimizer,
// everything else runs as scatter-gather. Cancellation aborts the routed
// shard's (or every scatter leg's) morsel dispatch.
func (e *Engine) RunContext(ctx context.Context, q *plan.Query) (*optimizer.Result, error) {
	q, s := e.route(q)
	return e.run(ctx, q, s)
}

// run executes a closed query on shard s, or scatters it when s < 0.
func (e *Engine) run(ctx context.Context, q *plan.Query, s int) (*optimizer.Result, error) {
	if s < 0 {
		return e.scatter(ctx, q)
	}
	e.shards[s].Queries.Add(1)
	return e.shards[s].Opt.RunContext(ctx, q)
}

// EstimateCost plans q (reuse-aware, against the current cache state)
// where RunContext would run it and returns the optimizer's estimate in
// model nanoseconds without executing: a single-partition query is
// planned on its shard, a scattering query on every shard — the legs run
// concurrently, so the largest estimate is the query's. The filter is
// closed first, as RunContext closes it.
func (e *Engine) EstimateCost(q *plan.Query) (float64, error) {
	q, s := e.route(q)
	shards := e.shards
	if s >= 0 {
		shards = shards[s : s+1]
	}
	var worst float64
	for _, sh := range shards {
		p, err := sh.Opt.PlanQuery(q)
		if err != nil {
			return 0, err
		}
		worst = max(worst, p.EstimatedCost)
	}
	return worst, nil
}

// scatter fans a query out to every shard and merges the legs. The
// per-shard sub-query is the original query with three adjustments:
// mismatched join sides are exchanged (planExchanges/applyExchanges),
// aggregates are rewritten to additive partials over the full group-by
// key, and ORDER BY/LIMIT stay per-shard only when the merge can
// exploit them (top-k legs feeding a k-way merge). All shards' compiled
// pipelines run under one scheduler invocation, one chain per leg,
// their morsels sharing one queue.
func (e *Engine) scatter(ctx context.Context, q *plan.Query) (*optimizer.Result, error) {
	pl := e.planExchanges(q)
	qr, temps, err := e.applyExchanges(q, pl)
	defer e.dropTemps(temps)
	if err != nil {
		return nil, err
	}

	agg := qr.IsAggregate()
	var partials []expr.AggSpec
	var srcIdx [][2]int
	leg := *qr
	if agg {
		// Each leg computes additive partials over the full GROUP BY
		// key (GroupBy may be a superset of Select; the merge needs
		// every key column to fold groups across shards).
		leg.Select = append([]storage.ColRef(nil), qr.GroupBy...)
		partials, srcIdx = expr.RewriteAvg(qr.Aggs)
		leg.Aggs = partials
		leg.OrderBy = nil
		leg.Limit = 0
	}

	n := len(e.shards)
	preps := make([]*optimizer.Prepared, n)
	errs := make([]error, n)
	legs := make([]plan.Query, n)
	var wg sync.WaitGroup
	for s := range e.shards {
		legs[s] = leg
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			preps[s], errs[s] = e.shards[s].Opt.Prepare(&legs[s])
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, p := range preps {
				if p != nil {
					p.Abort()
				}
			}
			return nil, err
		}
	}

	pipelines := make([][]*exec.Pipeline, n)
	for s, p := range preps {
		pipelines[s] = p.Pipelines()
	}
	spar := e.par
	spar.Ctx = ctx
	t0 := time.Now()
	runErr := exec.RunSharded(pipelines, spar)
	execTime := time.Since(t0)

	results := make([]*optimizer.Result, n)
	var firstErr error
	for s, p := range preps {
		r, err := p.Finish(runErr, execTime)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		results[s] = r
		e.shards[s].Queries.Add(1)
	}
	if firstErr != nil {
		return nil, firstErr
	}

	var merged *optimizer.Result
	switch {
	case agg:
		merged, err = mergeAggregates(q, results, partials, srcIdx)
	case q.OrderBy != nil:
		merged = mergeOrdered(q, results)
	default:
		merged = mergeConcat(q, results)
	}
	if err != nil {
		return nil, err
	}
	foldStats(merged, results, execTime)
	return merged, nil
}

// foldStats sums the per-leg execution counters into the merged result.
func foldStats(out *optimizer.Result, legs []*optimizer.Result, execTime time.Duration) {
	out.ExecTime = execTime
	for _, r := range legs {
		if r.PlanTime > out.PlanTime {
			out.PlanTime = r.PlanTime // legs planned concurrently: max, not sum
		}
		out.RowsIn += r.RowsIn
		out.RowsOut += r.RowsOut
		out.EstimatedCost += r.EstimatedCost
		out.Decisions = append(out.Decisions, r.Decisions...)
	}
}

// mergeConcat splices unordered legs (any LIMIT is re-applied).
func mergeConcat(q *plan.Query, legs []*optimizer.Result) *optimizer.Result {
	out := &optimizer.Result{Columns: legs[0].Columns}
	for _, r := range legs {
		out.Rows = append(out.Rows, r.Rows...)
	}
	if q.Limit > 0 && len(out.Rows) > q.Limit {
		out.Rows = out.Rows[:q.Limit]
	}
	return out
}

// mergeOrdered k-way merges legs that are each already sorted on the
// ORDER BY column (each leg's collector ordered it, so with LIMIT k
// each leg is a top-k superset of its contribution) and truncates to the
// global limit.
func mergeOrdered(q *plan.Query, legs []*optimizer.Result) *optimizer.Result {
	out := &optimizer.Result{Columns: legs[0].Columns}
	idx := -1
	want := q.OrderBy.Col.String()
	for i, c := range out.Columns {
		if c == want {
			idx = i
			break
		}
	}
	if idx < 0 {
		return mergeConcat(q, legs)
	}
	desc := q.OrderBy.Desc
	cursors := make([]int, len(legs))
	total := 0
	for _, r := range legs {
		total += len(r.Rows)
	}
	if q.Limit > 0 && q.Limit < total {
		total = q.Limit
	}
	out.Rows = make([][]types.Value, 0, total)
	for len(out.Rows) < total {
		best := -1
		for s, r := range legs {
			if cursors[s] >= len(r.Rows) {
				continue
			}
			if best < 0 {
				best = s
				continue
			}
			c := r.Rows[cursors[s]][idx].Compare(legs[best].Rows[cursors[best]][idx])
			if (desc && c > 0) || (!desc && c < 0) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		out.Rows = append(out.Rows, legs[best].Rows[cursors[best]])
		cursors[best]++
	}
	return out
}

// groupKey encodes one group's key cells into a map key
// (length-prefixed, kind-tagged — collision-free across kinds).
func groupKey(buf []byte, vals []types.Value, n int) ([]byte, string) {
	buf = buf[:0]
	for _, v := range vals[:n] {
		buf = append(buf, byte(v.Kind))
		switch v.Kind {
		case types.String:
			buf = binary.AppendUvarint(buf, uint64(len(v.S)))
			buf = append(buf, v.S...)
		default:
			buf = binary.LittleEndian.AppendUint64(buf, v.Bits())
		}
	}
	return buf, string(buf)
}

// foldCell merges two partial aggregate cells for an additive function,
// mirroring the engine's own cross-partition merge semantics: counts
// add as integers, sums add in the cell's kind, min/max compare.
func foldCell(f expr.AggFunc, a, b types.Value) types.Value {
	switch f {
	case expr.AggCount:
		return types.NewInt(a.AsInt() + b.AsInt())
	case expr.AggSum:
		if a.Kind == types.Int64 && b.Kind == types.Int64 {
			return types.NewInt(a.I + b.I)
		}
		return types.NewFloat(a.AsFloat() + b.AsFloat())
	case expr.AggMin:
		if a.Compare(b) <= 0 {
			return a
		}
		return b
	default: // max
		if a.Compare(b) >= 0 {
			return a
		}
		return b
	}
}

// mergeAggregates folds the per-shard partial-aggregate legs: rows are
// grouped by the full GROUP BY key, each additive partial folds across
// shards, rewritten AVGs finalize as SUM/COUNT, and the surviving rows
// project down to the original SELECT list before the original ORDER
// BY/LIMIT applies.
func mergeAggregates(q *plan.Query, legs []*optimizer.Result, partials []expr.AggSpec, srcIdx [][2]int) (*optimizer.Result, error) {
	nGroup := len(q.GroupBy)

	// selPos[i] is SELECT column i's position within the GROUP BY key.
	selPos := make([]int, len(q.Select))
	for i, sel := range q.Select {
		selPos[i] = -1
		for g, gb := range q.GroupBy {
			if sel == gb {
				selPos[i] = g
				break
			}
		}
		if selPos[i] < 0 {
			return nil, fmt.Errorf("shard: select column %v not in group by", sel)
		}
	}

	groups := make(map[string][]types.Value)
	var order []string // deterministic emission order: first appearance
	var scratch []byte
	for _, r := range legs {
		for _, row := range r.Rows {
			if len(row) != nGroup+len(partials) {
				return nil, fmt.Errorf("shard: partial-aggregate leg row has %d cells, want %d", len(row), nGroup+len(partials))
			}
			var key string
			scratch, key = groupKey(scratch, row, nGroup)
			acc, ok := groups[key]
			if !ok {
				groups[key] = append([]types.Value(nil), row...)
				order = append(order, key)
				continue
			}
			for p := range partials {
				ci := nGroup + p
				acc[ci] = foldCell(partials[p].Func, acc[ci], row[ci])
			}
		}
	}

	columns := make([]string, 0, len(q.Select)+len(q.Aggs))
	for _, sel := range q.Select {
		columns = append(columns, sel.String())
	}
	for _, a := range q.Aggs {
		columns = append(columns, a.Name())
	}

	rows := make([][]types.Value, 0, len(order))
	for _, key := range order {
		acc := groups[key]
		row := make([]types.Value, 0, len(columns))
		for _, g := range selPos {
			row = append(row, acc[g])
		}
		for i, a := range q.Aggs {
			si, ci := srcIdx[i][0], srcIdx[i][1]
			if a.Func == expr.AggAvg {
				cnt := acc[nGroup+ci].AsFloat()
				if cnt == 0 || math.IsNaN(cnt) {
					row = append(row, types.NewFloat(0))
				} else {
					row = append(row, types.NewFloat(acc[nGroup+si].AsFloat()/cnt))
				}
				continue
			}
			row = append(row, acc[nGroup+si])
		}
		rows = append(rows, row)
	}
	out := &optimizer.Result{Columns: columns}
	out.Rows = optimizer.OrderAndLimit(rows, columns, q)
	return out, nil
}
