package optimizer

import (
	"sort"

	"hashstash/internal/expr"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
)

// Cardinality estimation: classic System-R style. Because every TPC-H
// column name is globally unique, a full multi-relation filter box can
// be handed to each relation's statistics — predicates on other
// relations' columns are simply not found and ignored.

// relRows estimates the rows of one relation under a filter box.
func (o *Optimizer) relRows(q *plan.Query, relIdx int, filter expr.Box) float64 {
	rel := q.Relations[relIdx]
	ts, ok := o.Cat.Stats(rel.Table)
	if !ok {
		return 1
	}
	return ts.EstimateRows(filter)
}

// keyNDV returns the distinct count of an alias-qualified join key under
// the filter box: the column's NDV, scaled by the selectivity of the
// key's own constraint when the box has one (as
// catalog.TableStats.DistinctAfterFilter scales it), and at least 1. A
// filter closed over the join classes constrains both sides of a key
// edge, and each side's row estimate already carries that selectivity;
// dividing by the unscaled NDV would apply it a second time.
func (o *Optimizer) keyNDV(q *plan.Query, ref storage.ColRef, filter expr.Box) float64 {
	rel := q.RelByAlias(ref.Table)
	if rel == nil {
		return 1
	}
	ts, ok := o.Cat.Stats(rel.Table)
	if !ok {
		return 1
	}
	cs, ok := ts.Col(ref.Column)
	if !ok || cs.NDV < 1 {
		return 1
	}
	ndv := float64(cs.NDV)
	for _, p := range filter {
		if p.Col == ref {
			ndv = max(1, ndv*ts.Selectivity(expr.Box{p}))
		}
	}
	return ndv
}

// maskRows estimates the output cardinality of joining the masked
// relations under the given alias-qualified filter box. Each join edge
// divides by the larger of its two keys' distinct counts (keyNDV).
func (o *Optimizer) maskRows(q *plan.Query, mask int, filter expr.Box) float64 {
	rows := 1.0
	for i := range q.Relations {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		rows *= o.relRows(q, i, filter)
	}
	for _, j := range q.Joins {
		a, b := q.AliasIndex(j.Left.Table), q.AliasIndex(j.Right.Table)
		if a < 0 || b < 0 || mask&(1<<uint(a)) == 0 || mask&(1<<uint(b)) == 0 {
			continue
		}
		rows /= max(o.keyNDV(q, j.Left, filter), o.keyNDV(q, j.Right, filter))
	}
	if rows < 0 {
		rows = 0
	}
	return rows
}

// maskFilter collects the query's filter predicates belonging to the
// masked relations (alias-qualified).
func maskFilter(q *plan.Query, mask int) expr.Box {
	var out expr.Box
	for _, p := range q.Filter {
		i := q.AliasIndex(p.Col.Table)
		if i >= 0 && mask&(1<<uint(i)) != 0 {
			out = append(out, p)
		}
	}
	return expr.NewBox(out...)
}

// scanCost estimates scanning relation relIdx under the union of boxes.
// Each box costs the cheaper available access path: the sequential
// scan or a cached secondary index (the enumerator thereby sees — and
// plans around — the index access path without ever triggering a
// build).
func (o *Optimizer) scanCost(q *plan.Query, relIdx int, boxes []expr.Box, emitted int) float64 {
	rel := q.Relations[relIdx]
	ts, _ := o.Cat.Stats(rel.Table)
	width := emitted * 8
	var total float64
	for _, box := range boxes {
		cost := o.Model.ScanCost(float64(ts.Rows), width)
		if c := o.cachedIndexCost(q, relIdx, box, width); c >= 0 && c < cost {
			cost = c
		}
		total += cost
	}
	return total
}

// neededCols computes, per alias, the sorted set of columns a plan for
// the query must carry: join keys, select/group-by columns, aggregate
// arguments, and — with the benefit-oriented "additional attributes"
// optimization — every selection attribute, so that the hash tables
// built by this query stay post-filterable and re-taggable for future
// reuse.
func (o *Optimizer) neededCols(q *plan.Query) map[string][]string {
	return o.neededColsOf(q, []*plan.Query{q}, !o.Opts.NoBenefitOptimizations)
}

// neededColsOf is neededCols over the union of members' needs, keyed by
// q's aliases (a member's relation maps to q's relation over the same
// base table); filters adds every selection attribute.
func (o *Optimizer) neededColsOf(q *plan.Query, members []*plan.Query, filters bool) map[string][]string {
	set := make(map[string]map[string]bool)
	for _, m := range members {
		add := func(ref storage.ColRef) {
			rel := m.RelByAlias(ref.Table)
			if rel == nil {
				return
			}
			alias := ref.Table
			if m != q {
				alias = aliasIn(q, 1<<uint(len(q.Relations))-1, rel.Table)
			}
			if set[alias] == nil {
				set[alias] = make(map[string]bool)
			}
			set[alias][ref.Column] = true
		}
		for _, j := range m.Joins {
			add(j.Left)
			add(j.Right)
		}
		for _, s := range m.Select {
			add(s)
		}
		for _, g := range m.GroupBy {
			add(g)
		}
		for _, a := range m.Aggs {
			if a.Arg != nil {
				a.Arg.Walk(add)
			}
		}
		if filters {
			for _, p := range m.Filter {
				add(p.Col)
			}
		}
	}
	out := make(map[string][]string, len(set))
	for alias, cols := range set {
		list := make([]string, 0, len(cols))
		for c := range cols {
			list = append(list, c)
		}
		sort.Strings(list)
		out[alias] = list
	}
	// Every relation must emit at least its join keys; a relation with
	// no needed columns (rare) still contributes its first column so a
	// scan schema exists.
	for _, rel := range q.Relations {
		if len(out[rel.Alias]) == 0 {
			tbl := o.Cat.Table(rel.Table)
			if tbl != nil && len(tbl.Cols) > 0 {
				out[rel.Alias] = []string{tbl.Cols[0].Name}
			}
		}
	}
	return out
}

// unionIfBox delegates to the expr package's exact box union.
func unionIfBox(a, b expr.Box) (expr.Box, bool) { return expr.UnionIfBox(a, b) }
