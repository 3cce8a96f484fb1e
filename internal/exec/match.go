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
//
// Every predicate box is evaluated on one path, in this file: a binder
// resolves the box once against the column form it reads — a batch
// schema (Filter), a base table (the scans' residuals and SharedScan's
// per-query boxes) or a hash-table layout (the HTScan and Probe
// post-filters and ReTag) — and matcher.refine narrows a selection
// through it with filterSel's typed kernels: batch and table columns
// directly, hash-table cells after keepCells decodes them a chunk at a
// time, compacting the probe's input rows together with the entries. So a
// reused table's post-filter and a re-tagged table's masks keep exactly
// the rows a scan under the same box keeps. A string constraint's set
// resolves to dictionary codes at binding, and a literal that no column
// holds has no code, so it matches nothing; the kernels then compare
// integers only.
package exec

import (
	"fmt"
	"math"
	"slices"

	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// boundCon is one constraint of a box bound to a column of its
// matcher's form: a batch position, an index into the table's Cols or
// a layout position. codes is a string constraint's set as sorted
// dictionary codes.
type boundCon struct {
	pos   int
	kind  types.Kind
	con   expr.Constraint
	codes []uint32
}

// matcher is a predicate box bound once against one column form: a
// batch schema (table and ht nil), a base table or a hash table. A box
// without predicates binds to a nil matcher, which keeps every row.
// Matchers are read-only after binding, so morsel workers share them.
type matcher struct {
	cons  []boundCon
	table *storage.Table
	ht    *hashtable.Table
}

// bind resolves every constraint of box through find, which returns
// the position and kind of a column reference or -1, and every string
// set through dict, the dictionary of the form's string columns; where
// names the form in the error for an unresolved column.
func bind(box expr.Box, where string, dict *storage.Dict, find func(storage.ColRef) (int, types.Kind)) (*matcher, error) {
	if len(box) == 0 {
		return nil, nil
	}
	m := &matcher{cons: make([]boundCon, len(box))}
	for i, p := range box {
		pos, kind := find(p.Col)
		if pos < 0 {
			return nil, fmt.Errorf("exec: predicate column %v not in %s", p.Col, where)
		}
		m.cons[i] = boundCon{pos: pos, kind: kind, con: p.Con}
		if kind == types.String {
			m.cons[i].codes = setCodes(p.Con.Set, dict)
		}
	}
	return m, nil
}

// setCodes resolves a string set to the sorted codes of its members
// that dict holds; the others are in no column and match nothing.
func setCodes(set []string, dict *storage.Dict) []uint32 {
	if dict == nil {
		return nil
	}
	codes := make([]uint32, 0, len(set))
	for _, s := range set {
		if code, ok := dict.Lookup(s); ok {
			codes = append(codes, code)
		}
	}
	slices.Sort(codes)
	return codes
}

// bindSchema binds a box against the batches of a schema whose string
// columns are codes of dict.
func bindSchema(box expr.Box, schema storage.Schema, dict *storage.Dict) (*matcher, error) {
	return bind(box, "schema", dict, func(ref storage.ColRef) (int, types.Kind) {
		if i := schema.IndexOf(ref); i >= 0 {
			return i, schema[i].Kind
		}
		return -1, 0
	})
}

// bindTable binds a box against a base table's rows. Predicates use
// alias-qualified references whose Column names must exist in the table.
func bindTable(box expr.Box, t *storage.Table) (*matcher, error) {
	m, err := bind(box, "table", tableDict(t), func(ref storage.ColRef) (int, types.Kind) {
		if i := t.ColumnIndex(ref.Column); i >= 0 {
			return i, t.Cols[i].Kind
		}
		return -1, 0
	})
	if m != nil {
		m.table = t
	}
	return m, err
}

// tableDict returns the dictionary of t's string columns (nil when it
// has none). A registered table's string columns all share its
// catalog's.
func tableDict(t *storage.Table) *storage.Dict {
	for _, c := range t.Cols {
		if c.Dict != nil {
			return c.Dict
		}
	}
	return nil
}

// bindHT binds a box against a hash table's entries. Every predicate
// column must be stored in the layout (the optimizer's "additional
// attributes" add selection attributes to payloads for exactly this).
func bindHT(box expr.Box, ht *hashtable.Table) (*matcher, error) {
	layout := ht.Layout()
	m, err := bind(box, "hash table layout", layout.Dict, func(ref storage.ColRef) (int, types.Kind) {
		if i := layout.ColIndex(ref); i >= 0 {
			return i, layout.Cols[i].Kind
		}
		return -1, 0
	})
	if m != nil {
		m.ht = ht
	}
	return m, err
}

// refine narrows sel to the rows that satisfy every constraint: in the
// batch form sel holds positions of b, in the table form row ids, in
// the hash-table form entries, with aligned (nil or as long as sel,
// the probe's input row of each entry) compacted in step. The
// constraint kind dispatch happens once per constraint, not per row.
func (m *matcher) refine(b *storage.Batch, sel, aligned []int32) ([]int32, []int32) {
	if m == nil {
		return sel, aligned
	}
	for i := range m.cons {
		if len(sel) == 0 {
			break
		}
		c := &m.cons[i]
		switch {
		case m.ht != nil:
			sel, aligned = c.keepCells(m.ht, sel, aligned)
		case m.table != nil:
			col := m.table.Cols[c.pos]
			sel = c.filterSel(col.Ints, col.Floats, col.Strs, sel)
		default:
			vec := b.Cols[c.pos]
			sel = c.filterSel(vec.Ints, vec.Floats, vec.Strs, sel)
		}
	}
	return sel, aligned
}

// filterSel refines a selection through the constraint over raw column
// data with the typed kernel of the column's kind.
func (c *boundCon) filterSel(ints []int64, floats []float64, codes []uint32, sel []int32) []int32 {
	switch c.kind {
	case types.Int64, types.Date:
		return c.con.FilterInts(ints, sel)
	case types.Float64:
		return c.con.FilterFloats(floats, sel)
	case types.String:
		return expr.FilterCodes(c.codes, codes, sel)
	}
	return sel
}

// cellChunk is how many entries keepCells decodes at a time.
const cellChunk = 128

// keepCells keeps the entries whose cell in c's layout column satisfies
// c, compacting aligned (when non-nil) in step with them. It decodes the
// cells of a chunk of entries into stack vectors, the way
// hashtable.Table.AppendColumn does, and runs the filterSel kernel a
// scan of those values would.
func (c *boundCon) keepCells(ht *hashtable.Table, ents, aligned []int32) ([]int32, []int32) {
	var (
		ints   [cellChunk]int64
		floats [cellChunk]float64
		codes  [cellChunk]uint32
		pos    [cellChunk]int32
	)
	kept := 0
	for lo := 0; lo < len(ents); lo += cellChunk {
		chunk := ents[lo:min(lo+cellChunk, len(ents))]
		switch c.kind {
		case types.Int64, types.Date:
			for i, e := range chunk {
				ints[i] = int64(ht.Cell(e, c.pos))
			}
		case types.Float64:
			for i, e := range chunk {
				floats[i] = math.Float64frombits(ht.Cell(e, c.pos))
			}
		case types.String:
			for i, e := range chunk {
				codes[i] = uint32(ht.Cell(e, c.pos))
			}
		}
		for _, p := range c.filterSel(ints[:], floats[:], codes[:], fillRange(pos[:len(chunk)], 0)) {
			ents[kept] = chunk[p]
			if aligned != nil {
				aligned[kept] = aligned[lo+int(p)]
			}
			kept++
		}
	}
	if aligned != nil {
		aligned = aligned[:kept]
	}
	return ents[:kept], aligned
}

// tagRows ORs query q's bit into masks[r-start] for every row r of
// [start, start+len(masks)) that ms[q] keeps: the table rows of a
// SharedScan chunk or the entries of a ReTag chunk. sel is scratch at
// least as long as masks.
func tagRows[M int64 | uint64](masks []M, ms []*matcher, start int32, sel []int32) {
	for q, m := range ms {
		kept, _ := m.refine(nil, fillRange(sel[:len(masks)], start), nil)
		bit := M(1) << uint(q)
		for _, r := range kept {
			masks[r-start] |= bit
		}
	}
}
