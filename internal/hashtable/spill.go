package hashtable

// Spill is the compact cold-tier representation of a hash table: the
// rows flattened into one contiguous cell array. There is no slot array
// and no per-entry hash or link array — a spilled table is pure
// payload, typically a fraction of the live table's footprint and
// invisible to the garbage collector's pointer graph. String cells stay
// codes: the catalog's dictionary never drops or changes a code, so a
// spill stays valid however long it stays cold.
type Spill struct {
	layout Layout
	n      int
	// cells holds n rows × len(layout.Cols) cells, row-major.
	cells []uint64
}

// Spill flattens the table's rows into a compact spill. The table
// itself is untouched; callers demote by dropping their reference to it
// after capturing the spill.
func (t *Table) Spill() *Spill {
	nCols := len(t.layout.Cols)
	s := &Spill{layout: t.layout, n: t.Len(), cells: make([]uint64, 0, t.Len()*nCols)}
	for e := range int32(t.Len()) {
		for c := 0; c < nCols; c++ {
			s.cells = append(s.cells, t.Cell(e, c))
		}
	}
	return s
}

// Rows reports the number of rows captured in the spill.
func (s *Spill) Rows() int { return s.n }

// Layout returns the spilled table's column layout.
func (s *Spill) Layout() Layout { return s.layout }

// ByteSize approximates the spill's memory footprint.
func (s *Spill) ByteSize() int64 { return int64(len(s.cells)) * 8 }

// Restore rebuilds a frozen, probe-ready hash table from the spill.
// The table is sized for the spill's rows up front and every row is
// re-inserted under its recomputed key hash.
func (s *Spill) Restore() *Table {
	t := New(s.layout)
	t.reserve(s.n)
	nCols := len(s.layout.Cols)
	for r := 0; r < s.n; r++ {
		row := s.cells[r*nCols : (r+1)*nCols]
		t.insertHashed(HashKey(row[:s.layout.KeyCols]), row)
	}
	return t.Freeze()
}
