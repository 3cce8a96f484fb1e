package exec

import (
	"fmt"
	"sync/atomic"

	"hashstash/internal/btree"
	"hashstash/internal/expr"
	"hashstash/internal/storage"
)

// IndexScan scans a base table through a cached secondary index: the
// driving constraint resolves — once, at construction — to leaf runs of
// the index permutation, and iteration materializes those row ids with
// the vectorized gather kernels, applying the box's remaining
// predicates as a residual filter. Like TableScan it splits into
// morsels for the morsel scheduler; unlike TableScan it touches
// only the matching rows.
type IndexScan struct {
	Table *storage.Table
	// Alias qualifies emitted column references.
	Alias string
	// Tree is the resolved index snapshot; immutable, shared lock-free.
	Tree *btree.Tree
	// Driving is the constraint on the indexed column that the tree
	// resolves; Residual holds the box's remaining predicates.
	Driving  expr.Constraint
	Residual expr.Box
	// Cols lists the table columns to emit, aliased.
	Cols []string

	cols    []*storage.Column
	schema  storage.Schema
	matcher *tableMatcher
	runs    [][2]int32 // leaf position runs, resolved once
	runIdx  int
	pos     int32
	// stats
	rowsScanned int64
}

// NewIndexScan constructs an index-driven scan. The driving constraint
// is resolved against the tree here, so Open only rewinds cursors and
// steady-state iteration does not allocate.
func NewIndexScan(t *storage.Table, alias string, tree *btree.Tree, driving expr.Constraint, residual expr.Box, cols []string) (*IndexScan, error) {
	s := &IndexScan{Table: t, Alias: alias, Tree: tree, Driving: driving, Residual: residual, Cols: cols}
	for _, c := range cols {
		col := t.Column(c)
		if col == nil {
			return nil, fmt.Errorf("exec: table %q has no column %q", t.Name, c)
		}
		s.cols = append(s.cols, col)
		s.schema = append(s.schema, storage.ColMeta{
			Ref:  storage.ColRef{Table: alias, Column: c},
			Kind: col.Kind,
		})
	}
	if len(residual) > 0 {
		m, err := newTableMatcher(residual, t)
		if err != nil {
			return nil, err
		}
		s.matcher = m
	}
	s.runs = tree.ConstraintRuns(driving)
	return s, nil
}

// Schema implements Source.
func (s *IndexScan) Schema() storage.Schema { return s.schema }

// Open implements Source.
func (s *IndexScan) Open() error {
	s.runIdx = 0
	if len(s.runs) > 0 {
		s.pos = s.runs[0][0]
	}
	return nil
}

// emitRowIDs gathers the leaf positions [start, end) of one run through
// the permutation under the residual matcher, appending survivors to
// out and returning the number emitted.
func (s *IndexScan) emitRowIDs(out *storage.Batch, start, end int32) int {
	ids := s.Tree.Perm()[start:end]
	sel := ids
	if s.matcher != nil {
		sel = out.Scratch().Sel(len(ids))
		copy(sel, ids)
		sel = s.matcher.filter(sel)
	}
	for i, col := range s.cols {
		out.Cols[i].AppendColumnGather(col, sel)
	}
	return len(sel)
}

// Next implements Source.
func (s *IndexScan) Next(out *storage.Batch) bool {
	produced := out.Len()
	start := produced
	var scanned int64
	for s.runIdx < len(s.runs) && produced < storage.BatchSize {
		run := s.runs[s.runIdx]
		if s.pos >= run[1] {
			s.runIdx++
			if s.runIdx < len(s.runs) {
				s.pos = s.runs[s.runIdx][0]
			}
			continue
		}
		chunk := int32(storage.BatchSize - produced)
		if rem := run[1] - s.pos; rem < chunk {
			chunk = rem
		}
		produced += s.emitRowIDs(out, s.pos, s.pos+chunk)
		s.pos += chunk
		scanned += int64(chunk)
	}
	if scanned > 0 {
		atomic.AddInt64(&s.rowsScanned, scanned)
		s.Tree.NoteGathered(scanned)
	}
	return produced > start
}

// Morsels implements MorselSource: every resolved leaf run is chunked
// into independent position ranges that share the read-only tree and
// residual matcher. Total row count across runs sets the granularity,
// so highly selective probes still split into several morsels per
// worker.
func (s *IndexScan) Morsels(rows, workers int) []Source {
	total := 0
	for _, r := range s.runs {
		total += int(r[1] - r[0])
	}
	var out []Source
	granule := storage.BalancedMorselRows(total, rows, workers)
	for _, r := range s.runs {
		for _, m := range storage.MorselRange(int(r[1]-r[0]), granule) {
			out = append(out, &indexScanMorsel{
				scan: s,
				m:    storage.Morsel{Start: r[0] + m.Start, End: r[0] + m.End},
			})
		}
	}
	return out
}

// RowsScanned reports how many indexed rows the scan touched.
func (s *IndexScan) RowsScanned() int64 { return atomic.LoadInt64(&s.rowsScanned) }

// indexScanMorsel scans one position range of one leaf run.
type indexScanMorsel struct {
	scan *IndexScan
	m    storage.Morsel
	pos  int32
}

// Schema implements Source.
func (t *indexScanMorsel) Schema() storage.Schema { return t.scan.schema }

// Open implements Source.
func (t *indexScanMorsel) Open() error {
	t.pos = t.m.Start
	return nil
}

// Next implements Source.
func (t *indexScanMorsel) Next(out *storage.Batch) bool {
	produced := out.Len()
	start := produced
	var scanned int64
	for t.pos < t.m.End && produced < storage.BatchSize {
		chunk := int32(storage.BatchSize - produced)
		if rem := t.m.End - t.pos; rem < chunk {
			chunk = rem
		}
		produced += t.scan.emitRowIDs(out, t.pos, t.pos+chunk)
		t.pos += chunk
		scanned += int64(chunk)
	}
	if scanned > 0 {
		atomic.AddInt64(&t.scan.rowsScanned, scanned)
		t.scan.Tree.NoteGathered(scanned)
	}
	return produced > start
}

// IndexOrderScan walks a secondary index in key order (or reverse),
// applying the query's predicate box as a residual filter and stopping
// after Limit surviving rows — the bounded top-k scan that serves
// ORDER BY <col> LIMIT k without a sort. It deliberately does not
// implement MorselSource: the pipeline runner's serial fallback
// preserves the emission order.
type IndexOrderScan struct {
	Table *storage.Table
	Alias string
	Tree  *btree.Tree
	// Desc walks the permutation from the high end.
	Desc bool
	// Limit bounds the rows emitted after filtering (<= 0: unbounded).
	Limit int
	// Box is the query's full predicate on the table (residual filter).
	Box expr.Box
	// Cols lists the table columns to emit, aliased.
	Cols []string

	cols    []*storage.Column
	schema  storage.Schema
	matcher *tableMatcher
	pos     int // positions consumed from the walk end
	emitted int
}

// NewIndexOrderScan constructs a bounded index-order scan.
func NewIndexOrderScan(t *storage.Table, alias string, tree *btree.Tree, desc bool, limit int, box expr.Box, cols []string) (*IndexOrderScan, error) {
	s := &IndexOrderScan{Table: t, Alias: alias, Tree: tree, Desc: desc, Limit: limit, Box: box, Cols: cols}
	for _, c := range cols {
		col := t.Column(c)
		if col == nil {
			return nil, fmt.Errorf("exec: table %q has no column %q", t.Name, c)
		}
		s.cols = append(s.cols, col)
		s.schema = append(s.schema, storage.ColMeta{
			Ref:  storage.ColRef{Table: alias, Column: c},
			Kind: col.Kind,
		})
	}
	if len(box) > 0 {
		m, err := newTableMatcher(box, t)
		if err != nil {
			return nil, err
		}
		s.matcher = m
	}
	return s, nil
}

// Schema implements Source.
func (s *IndexOrderScan) Schema() storage.Schema { return s.schema }

// Open implements Source.
func (s *IndexOrderScan) Open() error {
	s.pos = 0
	s.emitted = 0
	return nil
}

// Next implements Source.
func (s *IndexOrderScan) Next(out *storage.Batch) bool {
	perm := s.Tree.Perm()
	n := len(perm)
	produced := out.Len()
	start := produced
	var scanned int64
	for s.pos < n && produced < storage.BatchSize && (s.Limit <= 0 || s.emitted < s.Limit) {
		chunk := storage.BatchSize - produced
		if rem := n - s.pos; rem < chunk {
			chunk = rem
		}
		sel := out.Scratch().Sel(chunk)
		if s.Desc {
			for i := range sel {
				sel[i] = perm[n-1-s.pos-i]
			}
		} else {
			copy(sel, perm[s.pos:s.pos+chunk])
		}
		if s.matcher != nil {
			sel = s.matcher.filter(sel)
		}
		if s.Limit > 0 && s.emitted+len(sel) > s.Limit {
			sel = sel[:s.Limit-s.emitted]
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
		s.Tree.NoteGathered(scanned)
	}
	return produced > start
}
