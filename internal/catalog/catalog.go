// Package catalog is the schema registry plus the System-R estimation
// formulas (selectivity, row and distinct-value estimates) that drive
// both classic cost estimation and the reuse-aware parts of the
// HashStash cost model (contribution and overhead ratios of candidate
// hash tables). It keeps no statistics of its own: a TableStats reads
// the table's current row count and the min/max/NDV each column
// computes and caches itself (storage.Column.Stats), so registering a
// table counts nothing and an append needs no re-registration.
//
// A catalog owns the one string dictionary (storage.Dict) that every
// string column registered in it is coded against.
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"hashstash/hashstasherr"
	"hashstash/internal/expr"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// TableStats is the optimizer's view of one registered table: its row
// count when Catalog.Stats was called, and its columns' statistics,
// read through Col.
type TableStats struct {
	Rows  int64
	table *storage.Table
}

// Col returns the named column's statistics, or false if the table has
// no such column.
func (ts TableStats) Col(name string) (storage.ColumnStats, bool) {
	c := ts.table.Column(name)
	if c == nil {
		return storage.ColumnStats{}, false
	}
	return c.Stats(), true
}

// Catalog is the registry of base tables. Methods are safe for
// concurrent use: the registry takes a read-write lock, so a lookup
// never races a registration. The dictionary is not under that lock:
// it grows only in schema changes, which never run while queries do.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*storage.Table
	dict   *storage.Dict
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*storage.Table), dict: storage.NewDict()}
}

// Dict returns the catalog's string dictionary.
func (c *Catalog) Dict() *storage.Dict { return c.dict }

// Register adds (or replaces) a table. String columns coded against
// another dictionary are re-coded against the catalog's first
// (storage.Column.Recode), so every registered string column shares it.
// A table belongs to one catalog: registering it in a second would
// re-code its columns away from the first's dictionary.
func (c *Catalog) Register(t *storage.Table) {
	for _, col := range t.Cols {
		col.Recode(c.dict)
	}
	c.mu.Lock()
	c.tables[t.Name] = t
	c.mu.Unlock()
}

// Table returns the named base table, or nil.
func (c *Catalog) Table(name string) *storage.Table {
	c.mu.RLock()
	t := c.tables[name]
	c.mu.RUnlock()
	return t
}

// Stats returns the statistics of the named table, or false if no such
// table is registered.
func (c *Catalog) Stats(name string) (TableStats, bool) {
	t := c.Table(name)
	if t == nil {
		return TableStats{}, false
	}
	return TableStats{Rows: int64(t.NumRows()), table: t}, true
}

// TableNames lists registered tables in sorted order.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	c.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Resolve finds the kind of a column in the named table.
func (c *Catalog) Resolve(table, column string) (types.Kind, error) {
	t := c.Table(table)
	if t == nil {
		return 0, fmt.Errorf("catalog: %w %q", hashstasherr.ErrUnknownTable, table)
	}
	col := t.Column(column)
	if col == nil {
		return 0, fmt.Errorf("catalog: %w %q in table %q", hashstasherr.ErrUnknownColumn, column, table)
	}
	return col.Kind, nil
}

// Selectivity estimates the fraction of the table's rows satisfying the
// box, assuming independent columns and uniform value distributions (the
// classic System-R model). Predicates on columns the table lacks are
// ignored (they belong to other relations of the enumerated sub-plan).
func (ts TableStats) Selectivity(box expr.Box) float64 {
	sel := 1.0
	for _, p := range box {
		cs, ok := ts.Col(p.Col.Column)
		if !ok {
			continue
		}
		sel *= constraintSelectivity(&cs, p.Con)
	}
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

func constraintSelectivity(cs *storage.ColumnStats, con expr.Constraint) float64 {
	if con.Empty() {
		return 0
	}
	if cs.NDV == 0 {
		return 1 // empty table; anything times zero rows is zero
	}
	if con.Kind == types.String {
		s := float64(len(con.Set)) / float64(cs.NDV)
		if s > 1 {
			s = 1
		}
		return s
	}
	lo, hi := cs.Min.AsFloat(), cs.Max.AsFloat()
	width := hi - lo
	if !(width > 0) {
		// Single-valued column (an all-NaN one too, whose width is
		// NaN): the constraint either admits the value or not.
		if con.Iv.Contains(cs.Min) {
			return 1
		}
		return 0
	}
	cLo, cHi := lo, hi
	if con.Iv.HasLo {
		if v := con.Iv.Lo.AsFloat(); v > cLo {
			cLo = v
		}
	}
	if con.Iv.HasHi {
		if v := con.Iv.Hi.AsFloat(); v < cHi {
			cHi = v
		}
	}
	if cHi < cLo {
		return 0
	}
	if cHi == cLo {
		// Point constraint on a range: one value out of NDV.
		return 1 / float64(cs.NDV)
	}
	return (cHi - cLo) / width
}

// EstimateRows estimates the number of rows of table satisfying box.
func (ts TableStats) EstimateRows(box expr.Box) float64 {
	return float64(ts.Rows) * ts.Selectivity(box)
}

// DistinctAfterFilter estimates the number of distinct values of column
// col among rows satisfying box, with the standard capped-linear
// heuristic: distinct values cannot exceed either the column NDV or the
// filtered row count.
func (ts TableStats) DistinctAfterFilter(col string, box expr.Box) float64 {
	cs, ok := ts.Col(col)
	if !ok {
		return 1
	}
	rows := ts.EstimateRows(box)
	ndv := float64(cs.NDV)
	// If the filter constrains col itself, scale its NDV by the
	// constraint's own selectivity (uniformity assumption).
	for _, p := range box {
		if p.Col.Column == col {
			ndv *= constraintSelectivity(&cs, p.Con)
		}
	}
	if ndv > rows {
		ndv = rows
	}
	if ndv < 1 {
		ndv = 1
	}
	return ndv
}
