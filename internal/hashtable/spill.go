package hashtable

import "hashstash/internal/types"

// Spill is the compact cold-tier representation of a hash table: the
// rows flattened into one contiguous cell array plus a string
// dictionary serialized as a single byte blob with an offset array.
// There is no slot array and no per-entry hash or link array
// — a spilled table is ~pure payload, typically a fraction of the live
// table's footprint and invisible to the garbage collector's pointer
// graph.
//
// Hashes are deliberately not preserved: string cells are re-interned
// into a fresh heap on restore, which changes their ids, so the restore
// path recomputes HashKey per row (identical bits for numeric cells,
// correct by construction for the new string ids).
type Spill struct {
	layout Layout
	n      int
	// cells holds n rows × len(layout.Cols) cells, row-major. String
	// cells store dictionary indexes, not heap ids.
	cells []uint64
	// strCols lists the column positions whose cells are dictionary
	// indexes (empty for all-numeric layouts).
	strCols []int
	// blob and offs are the string dictionary: value i is
	// blob[offs[i]:offs[i+1]].
	blob []byte
	offs []uint32
}

// Spill flattens the table's rows into a compact spill. The table
// itself is untouched; callers demote by dropping their reference to it
// after capturing the spill.
func (t *Table) Spill() *Spill {
	nCols := len(t.layout.Cols)
	s := &Spill{layout: t.layout, offs: []uint32{0}}
	for c, meta := range t.layout.Cols {
		if meta.Kind == types.String {
			s.strCols = append(s.strCols, c)
		}
	}
	s.cells = make([]uint64, 0, t.Len()*nCols)
	var dict map[uint64]uint64 // heap id → dictionary index
	if len(s.strCols) > 0 {
		dict = make(map[uint64]uint64)
	}
	for e := range int32(t.Len()) {
		base := len(s.cells)
		for c := 0; c < nCols; c++ {
			s.cells = append(s.cells, t.Cell(e, c))
		}
		for _, c := range s.strCols {
			id := s.cells[base+c]
			di, ok := dict[id]
			if !ok {
				di = uint64(len(s.offs) - 1)
				dict[id] = di
				s.blob = append(s.blob, t.strs.At(id)...)
				s.offs = append(s.offs, uint32(len(s.blob)))
			}
			s.cells[base+c] = di
		}
		s.n++
	}
	return s
}

// Rows reports the number of rows captured in the spill.
func (s *Spill) Rows() int { return s.n }

// Layout returns the spilled table's column layout.
func (s *Spill) Layout() Layout { return s.layout }

// ByteSize approximates the spill's memory footprint.
func (s *Spill) ByteSize() int64 {
	return int64(len(s.cells))*8 + int64(len(s.blob)) + int64(len(s.offs))*4 +
		int64(len(s.strCols))*8
}

// Restore rebuilds a frozen, probe-ready hash table from the spill.
// The table is sized for the spill's rows up front; dictionary strings
// are interned into the fresh heap and every row is re-inserted under a
// recomputed key hash.
func (s *Spill) Restore() *Table {
	t := New(s.layout)
	t.reserve(s.n)
	nCols := len(s.layout.Cols)
	ids := make([]uint64, len(s.offs)-1)
	for i := range ids {
		ids[i] = t.strs.Intern(string(s.blob[s.offs[i]:s.offs[i+1]]))
	}
	row := make([]uint64, nCols)
	for r := 0; r < s.n; r++ {
		copy(row, s.cells[r*nCols:(r+1)*nCols])
		for _, c := range s.strCols {
			row[c] = ids[row[c]]
		}
		t.insertHashed(HashKey(row[:s.layout.KeyCols]), row)
	}
	return t.Freeze()
}
