package shard

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"hashstash/internal/exec"
	"hashstash/internal/expr"
	"hashstash/internal/faultinject"
	"hashstash/internal/optimizer"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// RunContext executes a query: it closes the filter over the join
// classes (plan.CloseFilter), then a single-partition query — every
// query, on a router of one — goes straight to its shard's optimizer, a
// co-partitioned one runs as scatter-gather and any other runs on the
// whole tables. Cancellation aborts the routed shard's (or every scatter
// leg's) morsel dispatch.
func (e *Engine) RunContext(ctx context.Context, q *plan.Query) (*optimizer.Result, error) {
	q, s := e.route(q)
	return e.run(ctx, q, s)
}

// run executes a closed query on shard s; when s < 0 it scatters a
// co-partitioned query and runs any other on the whole tables.
func (e *Engine) run(ctx context.Context, q *plan.Query, s int) (*optimizer.Result, error) {
	switch {
	case s >= 0:
		e.shards[s].Queries.Add(1)
		return e.shards[s].Opt.RunContext(ctx, q)
	case countViolations(q, e.keys) == 0:
		return e.scatter(ctx, q)
	}
	return e.runWhole(ctx, q)
}

// countViolations scores a query's layout globally, not edge by edge: a
// result tuple materializes shard-locally only if every partitioned
// relation holding a piece of it lives on the same shard, which holds
// exactly when all partitioned relations hash on columns of one join
// equivalence class. (Edge-local co-partitioning is NOT sufficient — a
// replica bridging two partitioned relations keyed on unrelated columns
// silently drops every tuple whose two hashes disagree.) The score is
// the number of partitioned relations outside the best anchor class;
// zero means the query is co-partitioned and can scatter.
func countViolations(q *plan.Query, keys map[string]string) int {
	classes := plan.JoinClasses(q)
	frag := 0
	best := 1
	counts := map[storage.ColRef]int{}
	for _, rel := range q.Relations {
		key, ok := keys[rel.Table]
		if !ok {
			continue
		}
		frag++
		if root, ok := classes[storage.ColRef{Table: rel.Alias, Column: key}]; ok {
			counts[root]++
			best = max(best, counts[root])
		}
	}
	if frag <= 1 {
		return 0
	}
	return frag - best
}

// runWhole runs a query that is not co-partitioned as one plan on shard
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

// scatter fans a co-partitioned query out to every shard and merges the
// legs. The per-shard sub-query is the original query with two
// adjustments: aggregates are rewritten to additive partials over the
// full group-by key, and ORDER BY/LIMIT stay per-shard only when the
// merge can exploit them (top-k legs feeding a k-way merge). All shards'
// compiled pipelines run under one scheduler invocation, one chain per
// leg, their morsels sharing one queue.
func (e *Engine) scatter(ctx context.Context, q *plan.Query) (*optimizer.Result, error) {
	agg := q.IsAggregate()
	var partials []expr.AggSpec
	var srcIdx [][2]int
	leg := *q
	if agg {
		// Each leg computes additive partials over the full GROUP BY
		// key (GroupBy may be a superset of Select; the merge needs
		// every key column to fold groups across shards).
		leg.Select = append([]storage.ColRef(nil), q.GroupBy...)
		partials, srcIdx = expr.RewriteAvg(q.Aggs)
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
	if agg {
		var err error
		if merged, err = mergeAggregates(q, results, partials, srcIdx); err != nil {
			return nil, err
		}
	} else {
		merged = mergeRows(q, results)
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

// mergeRows splices the legs and applies the query's ORDER BY / LIMIT
// to the spliced columns. Under ORDER BY each leg is already sorted on
// the order column (with LIMIT k, a top-k superset of its
// contribution), and the stable sort of the splice keeps equal keys in
// leg order — what a k-way merge that breaks ties to the lower leg
// would emit.
func mergeRows(q *plan.Query, legs []*optimizer.Result) *optimizer.Result {
	out := &optimizer.Result{Columns: legs[0].Columns, Vecs: splice(legs)}
	out.Vecs = optimizer.ResultOrder(q, out.Columns).Apply(out.Vecs)
	return out
}

// splice concatenates the legs' columns in leg order. A single leg
// with rows is returned as is.
func splice(legs []*optimizer.Result) []storage.Vec {
	total, nonEmpty := 0, -1
	for i, r := range legs {
		if n := r.Len(); n > 0 {
			total += n
			nonEmpty = i
		}
	}
	if nonEmpty < 0 || total == legs[nonEmpty].Len() {
		return legs[max(nonEmpty, 0)].Vecs
	}
	cols := make([]storage.Vec, len(legs[0].Vecs))
	for c := range cols {
		cols[c].Kind = legs[0].Vecs[c].Kind
		cols[c].Grow(total)
		for _, r := range legs {
			cols[c].AppendRange(&r.Vecs[c], 0, r.Len())
		}
	}
	return cols
}

// groupKey appends row r's key cells (length-prefixed, kind-tagged —
// collision-free across kinds) to buf.
func groupKey(buf []byte, keys []storage.Vec, r int) []byte {
	for c := range keys {
		k := &keys[c]
		buf = append(buf, byte(k.Kind))
		switch k.Kind {
		case types.String:
			buf = binary.AppendUvarint(buf, uint64(len(k.Strs[r])))
			buf = append(buf, k.Strs[r]...)
		case types.Float64:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(k.Floats[r]))
		default:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(k.Ints[r]))
		}
	}
	return buf
}

// foldCell folds partial cell src[j] into acc[i] for an additive
// function, mirroring the engine's own cross-partition merge semantics:
// counts and sums add in the column's kind, min/max compare (a NaN
// never replaces the accumulator, nor is it replaced).
func foldCell(f expr.AggFunc, acc *storage.Vec, i int, src *storage.Vec, j int) {
	switch acc.Kind {
	case types.Float64:
		foldOrdered(f, &acc.Floats[i], src.Floats[j])
	case types.String:
		foldOrdered(f, &acc.Strs[i], src.Strs[j])
	default:
		foldOrdered(f, &acc.Ints[i], src.Ints[j])
	}
}

func foldOrdered[T int64 | float64 | string](f expr.AggFunc, acc *T, v T) {
	switch f {
	case expr.AggCount, expr.AggSum:
		*acc += v
	case expr.AggMin:
		if v < *acc {
			*acc = v
		}
	default: // max
		if v > *acc {
			*acc = v
		}
	}
}

// floatAt reads cell i of a numeric column as a float: AVG's partial
// SUM and COUNT are integer or float columns (the parser refuses SUM
// and AVG over strings).
func floatAt(v *storage.Vec, i int) float64 {
	if v.Kind == types.Float64 {
		return v.Floats[i]
	}
	return float64(v.Ints[i])
}

// mergeAggregates folds the per-shard partial-aggregate legs column by
// column: rows are grouped by the full GROUP BY key (groups in order of
// first appearance, each keeping its first row's key cells), each
// additive partial folds across shards, rewritten AVGs finalize as
// SUM/COUNT, and the group columns project down to the original SELECT
// list before the original ORDER BY/LIMIT applies.
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

	// acc holds one row per group: its key cells, then its partials.
	width := nGroup + len(partials)
	for _, r := range legs {
		if len(r.Vecs) != width {
			return nil, fmt.Errorf("shard: partial-aggregate leg has %d columns, want %d", len(r.Vecs), width)
		}
	}
	acc := make([]storage.Vec, width)
	for c := range acc {
		acc[c].Kind = legs[0].Vecs[c].Kind
	}
	groups := make(map[string]int)
	var key []byte
	for _, r := range legs {
		for c := range acc {
			if r.Vecs[c].Kind != acc[c].Kind {
				return nil, fmt.Errorf("shard: partial-aggregate leg column %d is %v, want %v", c, r.Vecs[c].Kind, acc[c].Kind)
			}
		}
		for row := range r.Len() {
			key = groupKey(key[:0], r.Vecs[:nGroup], row)
			g, ok := groups[string(key)]
			if !ok {
				groups[string(key)] = len(groups)
				for c := range acc {
					acc[c].AppendRange(&r.Vecs[c], row, row+1)
				}
				continue
			}
			for p := range partials {
				foldCell(partials[p].Func, &acc[nGroup+p], g, &r.Vecs[nGroup+p], row)
			}
		}
	}

	columns := make([]string, 0, len(q.Select)+len(q.Aggs))
	cols := make([]storage.Vec, 0, cap(columns))
	for i, sel := range q.Select {
		columns = append(columns, sel.String())
		cols = append(cols, acc[selPos[i]])
	}
	for i, a := range q.Aggs {
		columns = append(columns, a.Name())
		si, ci := srcIdx[i][0], srcIdx[i][1]
		if a.Func != expr.AggAvg {
			cols = append(cols, acc[nGroup+si])
			continue
		}
		sum, cnt := &acc[nGroup+si], &acc[nGroup+ci]
		avg := storage.Vec{Kind: types.Float64, Floats: make([]float64, len(groups))}
		for g := range avg.Floats {
			if c := floatAt(cnt, g); c != 0 {
				avg.Floats[g] = floatAt(sum, g) / c
			}
		}
		cols = append(cols, avg)
	}
	out := &optimizer.Result{Columns: columns}
	out.Vecs = optimizer.ResultOrder(q, columns).Apply(cols)
	return out, nil
}
