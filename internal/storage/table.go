package storage

import (
	"fmt"

	"hashstash/internal/types"
)

// Table is an in-memory columnar table.
type Table struct {
	Name   string
	Cols   []*Column
	byName map[string]int
}

// NewTable creates an empty table with the given columns.
func NewTable(name string, cols ...*Column) *Table {
	t := &Table{Name: name, byName: make(map[string]int)}
	for _, c := range cols {
		t.AddColumn(c)
	}
	return t
}

// AddColumn appends a column definition. All columns must stay the same
// length; Table.Check verifies this.
func (t *Table) AddColumn(c *Column) {
	if _, dup := t.byName[c.Name]; dup {
		panic(fmt.Sprintf("storage: duplicate column %q in table %q", c.Name, t.Name))
	}
	t.byName[c.Name] = len(t.Cols)
	t.Cols = append(t.Cols, c)
}

// Column returns the named column or nil.
func (t *Table) Column(name string) *Column {
	if i, ok := t.byName[name]; ok {
		return t.Cols[i]
	}
	return nil
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.byName[name]; ok {
		return i
	}
	return -1
}

// NumRows reports the row count (0 for a table with no columns).
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// AppendRow adds one row; values must match the column kinds in order.
func (t *Table) AppendRow(vals ...types.Value) {
	if len(vals) != len(t.Cols) {
		panic(fmt.Sprintf("storage: AppendRow got %d values for %d columns", len(vals), len(t.Cols)))
	}
	for i, v := range vals {
		t.Cols[i].Append(v)
	}
}

// Check validates that all columns have equal length.
func (t *Table) Check() error {
	n := t.NumRows()
	for _, c := range t.Cols {
		if c.Len() != n {
			return fmt.Errorf("storage: table %q column %q has %d rows, want %d", t.Name, c.Name, c.Len(), n)
		}
	}
	return nil
}
