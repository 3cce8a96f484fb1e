package exec

import (
	"hashstash/internal/btree"
	"hashstash/internal/expr"
	"hashstash/internal/storage"
)

// IndexOrderScan walks a secondary index in key order (or reverse),
// applying the query's predicate box as a residual filter and stopping
// after Limit surviving rows — the bounded top-k scan that serves
// ORDER BY <col> LIMIT k without a sort. Order and limit span the whole
// walk, so the scan is its own single cursor: its pipeline runs as one
// task and rows reach the sink in index order.
type IndexOrderScan struct {
	tree *btree.Tree
	// desc walks the permutation from the high end.
	desc bool
	// limit bounds the rows emitted after filtering (<= 0: unbounded).
	limit int

	cols    []*storage.Column
	schema  storage.Schema
	matcher *matcher // the query's full predicate on the table
	pos     int      // positions consumed from the walk end
	emitted int
}

// NewIndexOrderScan constructs a bounded index-order scan; box is the
// query's full predicate on the table, applied as a residual filter.
func NewIndexOrderScan(t *storage.Table, alias string, tree *btree.Tree, desc bool, limit int, box expr.Box, cols []string) (*IndexOrderScan, error) {
	rcols, schema, err := resolveCols(t, alias, cols)
	if err != nil {
		return nil, err
	}
	m, err := bindTable(box, t)
	if err != nil {
		return nil, err
	}
	return &IndexOrderScan{tree: tree, desc: desc, limit: limit, cols: rcols, schema: schema, matcher: m}, nil
}

// Schema implements Source.
func (s *IndexOrderScan) Schema() storage.Schema { return s.schema }

// Morsels implements Source: the whole walk is one cursor, the scan
// itself.
func (s *IndexOrderScan) Morsels(int, int) ([]Cursor, error) { return []Cursor{s}, nil }

// Open implements Cursor.
func (s *IndexOrderScan) Open() {
	s.pos = 0
	s.emitted = 0
}

// Next implements Cursor.
func (s *IndexOrderScan) Next(out *storage.Batch) bool {
	perm := s.tree.Perm()
	n := len(perm)
	produced := out.Len()
	start := produced
	var scanned int64
	for s.pos < n && produced < storage.BatchSize && (s.limit <= 0 || s.emitted < s.limit) {
		chunk := storage.BatchSize - produced
		if rem := n - s.pos; rem < chunk {
			chunk = rem
		}
		sel := out.Scratch().Sel(chunk)
		if s.desc {
			for i := range sel {
				sel[i] = perm[n-1-s.pos-i]
			}
		} else {
			copy(sel, perm[s.pos:s.pos+chunk])
		}
		sel, _ = s.matcher.refine(nil, sel, nil)
		if s.limit > 0 && s.emitted+len(sel) > s.limit {
			sel = sel[:s.limit-s.emitted]
		}
		for i, col := range s.cols {
			out.Cols[i].AppendColumnGather(col, sel)
		}
		produced += len(sel)
		s.emitted += len(sel)
		s.pos += chunk
		scanned += int64(chunk)
	}
	if scanned > 0 {
		s.tree.NoteGathered(scanned)
	}
	return produced > start
}
