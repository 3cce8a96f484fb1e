// Package exec implements the push-based execution engine of
// HashStash: pipelines of a source, a chain of batch transforms, and a
// sink. Pipeline breakers (hash-join builds and hash aggregations) are
// sinks that materialize the chained hash tables the rest of the
// system caches and reuses.
//
// Every source is iterated as its morsel list: Source.Morsels splits it
// into cursors over disjoint row ranges, and a Cursor streams one range.
// A query's pipelines run in compile order through RunParallel, one
// scheduler job each. At two or more workers with a mergeable sink,
// every cursor is a task on the worker pool, and pipeline-breaker sinks
// build per-worker partial hash tables merged at pipeline end, keeping
// probes lock-free. Otherwise the job is one task that streams the
// cursors in order into the real sink — a serial pipeline is a pool of
// one, and Pipeline.Run is that task. Base tables are read by one
// row-id scan, TableScan, whose runs are either table ranges or btree
// permutation runs. The scan hands row ids downstream with every column
// deferred (storage.Batch), and each operator gathers only the columns
// it reads, for the rows still alive when it reads them.
package exec

import (
	"fmt"

	"hashstash/internal/expr"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// batchMatcher evaluates a predicate box against rows of a batch with a
// fixed schema; constraints are pre-bound to column positions.
type batchMatcher struct {
	cols []int
	cons []expr.Constraint
}

// newBatchMatcher binds a box against a schema. Every constrained column
// must be present in the schema.
func newBatchMatcher(box expr.Box, schema storage.Schema) (*batchMatcher, error) {
	m := &batchMatcher{}
	for _, p := range box {
		i := schema.IndexOf(p.Col)
		if i < 0 {
			return nil, fmt.Errorf("exec: predicate column %v not in schema %v", p.Col, schema)
		}
		m.cols = append(m.cols, i)
		m.cons = append(m.cons, p.Con)
	}
	return m, nil
}

// match reports whether row i of the batch satisfies the box.
func (m *batchMatcher) match(b *storage.Batch, i int) bool {
	for j, ci := range m.cols {
		vec := b.Cols[ci]
		con := m.cons[j]
		switch vec.Kind {
		case types.Int64, types.Date:
			if !con.MatchInt(vec.Ints[i]) {
				return false
			}
		case types.Float64:
			if !con.MatchFloat(vec.Floats[i]) {
				return false
			}
		case types.String:
			if !con.MatchString(vec.Strs[i]) {
				return false
			}
		}
	}
	return true
}

// filterSel refines a selection through one constraint over raw column
// data — the kind dispatch shared by the batch and base-table matchers;
// it happens once per constraint, then a tight typed kernel drops the
// non-matching positions.
func filterSel(con expr.Constraint, kind types.Kind, ints []int64, floats []float64, strs []string, sel []int32) []int32 {
	switch kind {
	case types.Int64, types.Date:
		return con.FilterInts(ints, sel)
	case types.Float64:
		return con.FilterFloats(floats, sel)
	case types.String:
		return con.FilterStrings(strs, sel)
	}
	return sel
}

// filter refines a selection vector over the batch and returns the
// shortened selection.
func (m *batchMatcher) filter(b *storage.Batch, sel []int32) []int32 {
	for j, ci := range m.cols {
		if len(sel) == 0 {
			return sel
		}
		vec := b.Cols[ci]
		sel = filterSel(m.cons[j], vec.Kind, vec.Ints, vec.Floats, vec.Strs, sel)
	}
	return sel
}

// tableMatcher evaluates a box against base-table rows; constraints are
// pre-bound to columns. Predicates use alias-qualified references whose
// Column names must exist in the table.
type tableMatcher struct {
	cols []*storage.Column
	cons []expr.Constraint
}

// newTableMatcher binds a box against a table. A box without predicates
// yields a nil matcher: there is nothing to filter.
func newTableMatcher(box expr.Box, t *storage.Table) (*tableMatcher, error) {
	if len(box) == 0 {
		return nil, nil
	}
	m := &tableMatcher{}
	for _, p := range box {
		col := t.Column(p.Col.Column)
		if col == nil {
			return nil, fmt.Errorf("exec: predicate column %v not in table %q", p.Col, t.Name)
		}
		m.cols = append(m.cols, col)
		m.cons = append(m.cons, p.Con)
	}
	return m, nil
}

// filter refines a selection of table row ids, dropping rows that fail
// any constraint — the base-table counterpart of batchMatcher.filter.
func (m *tableMatcher) filter(sel []int32) []int32 {
	for j, col := range m.cols {
		if len(sel) == 0 {
			return sel
		}
		sel = filterSel(m.cons[j], col.Kind, col.Ints, col.Floats, col.Strs, sel)
	}
	return sel
}

func (m *tableMatcher) match(row int32) bool {
	for j, col := range m.cols {
		con := m.cons[j]
		switch col.Kind {
		case types.Int64, types.Date:
			if !con.MatchInt(col.Ints[row]) {
				return false
			}
		case types.Float64:
			if !con.MatchFloat(col.Floats[row]) {
				return false
			}
		case types.String:
			if !con.MatchString(col.Strs[row]) {
				return false
			}
		}
	}
	return true
}
