// Package storage implements the in-memory column store that HashStash
// executes over: typed columns, tables, the column-vector batches that
// flow through the push-based execution pipelines, and the morsels (row
// ranges) that partition a table into independent parallel scan units.
// Secondary indexes live outside the table: they are btrees over a
// column's SortedPerm (internal/btree), cached like hash tables.
//
// A column also owns its statistics (Column.Stats): min, max and exact
// NDV, computed in one pass on the first read and kept while the row
// count holds.
//
// Apart from that statistics cache, none of these structures
// synchronize internally: tables are immutable while queries run,
// batches are owned by one worker at a time, and the execution layer
// coordinates everything else.
package storage

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"hashstash/internal/types"
)

// Column is a typed base-table column. Exactly one of the data slices is
// populated, selected by Kind (Ints also backs Date columns).
type Column struct {
	Name   string
	Kind   types.Kind
	Ints   []int64
	Floats []float64
	Strs   []string

	// statsMu guards stats, the cached result of Stats; concurrent
	// first reads share one pass.
	statsMu sync.Mutex
	stats   *colStats
}

// ColumnStats summarizes a column for the optimizer. An empty column
// has NDV 0 and zero Min and Max.
type ColumnStats struct {
	Min, Max types.Value
	NDV      int64 // exact number of distinct values
}

// colStats is a ColumnStats with the row count it was computed at.
type colStats struct {
	ColumnStats
	rows int
}

// NewColumn returns an empty column of the given kind.
func NewColumn(name string, kind types.Kind) *Column {
	return &Column{Name: name, Kind: kind}
}

// Len reports the number of rows in the column.
func (c *Column) Len() int {
	switch c.Kind {
	case types.Int64, types.Date:
		return len(c.Ints)
	case types.Float64:
		return len(c.Floats)
	case types.String:
		return len(c.Strs)
	}
	return 0
}

// Accepts reports whether Append takes a value of kind k: its own kind,
// or Int64 for a Date column (dates are day numbers).
func (c *Column) Accepts(k types.Kind) bool {
	return k == c.Kind || (c.Kind == types.Date && k == types.Int64)
}

// Append adds one value; its kind must match the column kind.
func (c *Column) Append(v types.Value) {
	if !c.Accepts(v.Kind) {
		panic(fmt.Sprintf("storage: append %v value to %v column %q", v.Kind, c.Kind, c.Name))
	}
	switch c.Kind {
	case types.Int64, types.Date:
		c.Ints = append(c.Ints, v.I)
	case types.Float64:
		c.Floats = append(c.Floats, v.F)
	case types.String:
		c.Strs = append(c.Strs, v.S)
	}
}

// Stats returns the column's min, max and exact NDV. The first call
// computes them in one pass; later calls return that result while the
// row count is the one it was computed at. Columns only grow, so a new
// length is the only invalidation. Concurrent calls are safe (the
// package's one internally synchronized method); like every read, a
// call must not race with an append.
func (c *Column) Stats() ColumnStats {
	n := c.Len()
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	if c.stats == nil || c.stats.rows != n {
		s := &colStats{rows: n}
		switch c.Kind {
		case types.Int64, types.Date:
			s.ColumnStats = summarize(c.Ints, func(v int64) types.Value { return types.FromBits(c.Kind, uint64(v)) })
		case types.Float64:
			s.ColumnStats = summarize(c.Floats, types.NewFloat)
		case types.String:
			s.ColumnStats = summarize(c.Strs, types.NewString)
		}
		c.stats = s
	}
	return c.stats.ColumnStats
}

// summarize is the one min/max/NDV pass, generic over the column kinds.
func summarize[T cmp.Ordered](vals []T, value func(T) types.Value) ColumnStats {
	if len(vals) == 0 {
		return ColumnStats{}
	}
	distinct := make(map[T]struct{}, 1024)
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		distinct[v] = struct{}{}
	}
	return ColumnStats{Min: value(lo), Max: value(hi), NDV: int64(len(distinct))}
}

// view returns a Vec aliasing the column's data slices; Column and Vec
// share the same layout, so the Vec bulk kernels serve both.
func (c *Column) view() Vec {
	return Vec{Kind: c.Kind, Ints: c.Ints, Floats: c.Floats, Strs: c.Strs}
}

// AppendVec bulk-appends every row of a batch vector of the same kind —
// the kind dispatch happens once per batch instead of once per row.
func (c *Column) AppendVec(v *Vec) {
	dst := c.view()
	dst.AppendRange(v, 0, v.Len())
	c.Ints, c.Floats, c.Strs = dst.Ints, dst.Floats, dst.Strs
}

// Value returns the value at row i.
func (c *Column) Value(i int) types.Value {
	switch c.Kind {
	case types.Int64:
		return types.NewInt(c.Ints[i])
	case types.Date:
		return types.NewDate(c.Ints[i])
	case types.Float64:
		return types.NewFloat(c.Floats[i])
	case types.String:
		return types.NewString(c.Strs[i])
	}
	panic("storage: bad column kind")
}

// OrderPerm returns row ids 0..n-1 sorted by order, which must be a
// total order over row ids (as RowOrder's are), cut to the first limit
// ids when 0 < limit < n. A cut keeps a bounded max-heap of the best
// limit rows — O(n log limit) comparisons, limit ids of memory — and,
// because order is total, returns exactly the full sort's prefix.
func OrderPerm(n, limit int, order func(a, b int32) int) []int32 {
	if limit <= 0 || limit >= n {
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		slices.SortFunc(perm, order)
		return perm
	}
	heap := make([]int32, limit) // heap[0] is the worst row kept
	for i := range heap {
		heap[i] = int32(i)
	}
	for i := limit/2 - 1; i >= 0; i-- {
		siftDown(heap, i, order)
	}
	for r := int32(limit); r < int32(n); r++ {
		if order(r, heap[0]) < 0 {
			heap[0] = r
			siftDown(heap, 0, order)
		}
	}
	slices.SortFunc(heap, order)
	return heap
}

// siftDown restores the max-heap property below position i.
func siftDown(heap []int32, i int, order func(a, b int32) int) {
	for {
		worst, l := i, 2*i+1
		if l < len(heap) && order(heap[l], heap[worst]) > 0 {
			worst = l
		}
		if r := l + 1; r < len(heap) && order(heap[r], heap[worst]) > 0 {
			worst = r
		}
		if worst == i {
			return
		}
		heap[i], heap[worst] = heap[worst], heap[i]
		i = worst
	}
}

// SortedPerm returns the row ids of the column ordered by value, equal
// keys in row-id order — range lookups over the permutation return runs
// that scan the base table mostly forward.
func SortedPerm(col *Column) []int32 {
	v := col.view()
	return OrderPerm(col.Len(), 0, v.RowOrder(false))
}
