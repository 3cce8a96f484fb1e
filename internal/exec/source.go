package exec

import (
	"fmt"
	"slices"
	"sync/atomic"

	"hashstash/internal/btree"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
)

// Source produces batches for a pipeline. A source is iterated only
// through its morsels: the runner asks for its cursors when the
// pipeline's turn comes and either streams them in order as one task or
// hands them to the pool as one task each.
type Source interface {
	// Schema describes the batches the source emits.
	Schema() storage.Schema
	// Morsels splits the source into cursors over disjoint parts of at
	// most rows positions each (rows <= 0 uses
	// storage.DefaultMorselRows), re-balanced for a pool of workers via
	// storage.BalancedMorselRows so short scans still split into several
	// morsels per worker — except, under the default, a source below
	// storage.MinSpreadRows, which stays whole. Draining the cursors in
	// order yields the source's rows in source order.
	Morsels(rows, workers int) ([]Cursor, error)
}

// Cursor iterates one morsel of a source.
type Cursor interface {
	// Open rewinds the cursor to the start of its morsel.
	Open()
	// Next appends rows to out (which is Reset by the caller) and
	// reports whether any rows were produced. It may produce fewer than
	// BatchSize rows.
	Next(out *storage.Batch) bool
}

// emitter is what a cursor walks: emit appends the rows of positions
// [lo, hi) to out and returns how many it appended; account records the
// positions one Next consumed. Emitters are read-only during a scan, so
// every cursor of a source shares them across workers.
type emitter interface {
	emit(out *storage.Batch, lo, hi int32) int
	account(consumed int64)
}

// cursor is the one Cursor implementation of the scans: it walks the
// positions [m.Start, m.End) in chunks sized to fill a batch, handing
// each chunk to its emitter.
type cursor struct {
	e   emitter
	m   storage.Morsel
	pos int32
}

// Open implements Cursor.
func (c *cursor) Open() { c.pos = c.m.Start }

// Next implements Cursor.
func (c *cursor) Next(out *storage.Batch) bool {
	produced := out.Len()
	start := produced
	var consumed int64
	for c.pos < c.m.End && produced < storage.BatchSize {
		chunk := int32(storage.BatchSize - produced)
		if rem := c.m.End - c.pos; rem < chunk {
			chunk = rem
		}
		produced += c.e.emit(out, c.pos, c.pos+chunk)
		c.pos += chunk
		consumed += int64(chunk)
	}
	if consumed > 0 {
		c.e.account(consumed)
	}
	return produced > start
}

// appendCursors splits the positions [lo, hi) into granule-sized
// cursors over e.
func appendCursors(out []Cursor, e emitter, lo, hi int32, granule int) []Cursor {
	for start := lo; start < hi; start += int32(granule) {
		end := min(start+int32(granule), hi)
		out = append(out, &cursor{e: e, m: storage.Morsel{Start: start, End: end}})
	}
	return out
}

// resolveCols looks up the named columns of t and builds the
// alias-qualified schema that emits them. Every column must exist.
func resolveCols(t *storage.Table, alias string, names []string) ([]*storage.Column, storage.Schema, error) {
	cols := make([]*storage.Column, 0, len(names))
	schema := make(storage.Schema, 0, len(names))
	for _, c := range names {
		col := t.Column(c)
		if col == nil {
			return nil, nil, fmt.Errorf("exec: table %q has no column %q", t.Name, c)
		}
		cols = append(cols, col)
		schema = append(schema, storage.ColMeta{
			Ref:  storage.ColRef{Table: alias, Column: c},
			Kind: col.Kind,
		})
	}
	return cols, schema, nil
}

// fillRange fills sel with the consecutive row ids [start, start+len).
func fillRange(sel []int32, start int32) []int32 {
	for i := range sel {
		sel[i] = start + int32(i)
	}
	return sel
}

// TableScan reads a base table through runs of row ids. A run is a
// residual matcher over the positions [lo, hi) of either the table
// itself or a btree permutation, whose positions map to row ids.
// NewTableScan makes one table run per predicate box (normally one;
// partial-reuse residuals may add more), NewIndexScan one permutation
// run per leaf run of its driving constraint; the optimizer picks
// between the two. Every run splits into morsels with one emit, which
// gathers nothing: it writes the row ids that pass the residual filter
// (a plain id range for a table run without residual) and defers every
// column to its base column at those ids.
type TableScan struct {
	table  *storage.Table
	cols   []*storage.Column // resolved emit columns
	schema storage.Schema
	// boxes are a table scan's predicate boxes, resolved into table
	// runs by each Morsels call; runs are an index scan's permutation
	// runs, resolved at construction.
	boxes       []expr.Box
	runs        []*rowRun
	rowsScanned atomic.Int64
}

// rowRun is one run of a TableScan: positions [lo, hi) of the table
// (tree nil) or of tree's permutation, filtered by m (nil: no
// residual). Read-only once built, so its morsels share it.
type rowRun struct {
	scan   *TableScan
	m      *matcher
	tree   *btree.Tree
	lo, hi int32
}

// NewTableScan constructs a sequential scan of t under a disjoint union
// of predicate boxes, applying each box's predicates as a residual
// filter. An empty boxes slice scans everything. Every requested column
// must exist; boxes resolve against the table when the scan is split.
func NewTableScan(t *storage.Table, alias string, boxes []expr.Box, cols []string) (*TableScan, error) {
	s, err := newScan(t, alias, cols)
	if err != nil {
		return nil, err
	}
	s.boxes = boxes
	if len(boxes) == 0 {
		s.boxes = []expr.Box{nil}
	}
	return s, nil
}

// NewIndexScan constructs a scan through a cached secondary index: the
// driving constraint on the indexed column resolves here — once — to
// leaf runs of tree's permutation, and residual holds the box's
// remaining predicates. The scan touches only the matching rows, and
// steady-state iteration does not allocate.
func NewIndexScan(t *storage.Table, alias string, tree *btree.Tree, driving expr.Constraint, residual expr.Box, cols []string) (*TableScan, error) {
	s, err := newScan(t, alias, cols)
	if err != nil {
		return nil, err
	}
	m, err := bindTable(residual, t)
	if err != nil {
		return nil, err
	}
	for _, r := range tree.ConstraintRuns(driving) {
		s.runs = append(s.runs, &rowRun{scan: s, m: m, tree: tree, lo: r[0], hi: r[1]})
	}
	return s, nil
}

func newScan(t *storage.Table, alias string, names []string) (*TableScan, error) {
	cols, schema, err := resolveCols(t, alias, names)
	if err != nil {
		return nil, err
	}
	return &TableScan{table: t, cols: cols, schema: schema}, nil
}

// Schema implements Source.
func (s *TableScan) Schema() storage.Schema { return s.schema }

// Morsels implements Source: the runs, in box or key order, each
// chunked into morsels. The total row count across runs sets the
// granularity, so selective probes still split into several morsels
// per worker. A box that does not resolve against the table fails the
// call; a contradictory (empty-set) box yields no run.
func (s *TableScan) Morsels(rows, workers int) ([]Cursor, error) {
	runs := slices.Clip(s.runs)
	for _, box := range s.boxes {
		if box.Empty() {
			continue
		}
		m, err := bindTable(box, s.table)
		if err != nil {
			return nil, err
		}
		runs = append(runs, &rowRun{scan: s, m: m, hi: int32(s.table.NumRows())})
	}
	total := 0
	for _, r := range runs {
		total += int(r.hi - r.lo)
	}
	granule := storage.BalancedMorselRows(total, rows, workers)
	var out []Cursor
	for _, r := range runs {
		out = appendCursors(out, r, r.lo, r.hi, granule)
	}
	return out, nil
}

// emit appends the rows of run positions [lo, hi) to out as row ids:
// the ids that pass the residual filter, with every scan column
// deferred to its base column. Consumers gather only what they read.
func (r *rowRun) emit(out *storage.Batch, lo, hi int32) int {
	for i, col := range r.scan.cols {
		out.Defer(i, col)
	}
	if r.tree == nil && r.m == nil {
		out.AppendIDRange(lo, hi)
		return int(hi - lo)
	}
	var ids []int32
	if r.tree != nil {
		ids = r.tree.Perm()[lo:hi]
	}
	if r.m != nil {
		// The matcher refines its selection in place: start from a
		// scratch copy of the ids.
		sel := out.Scratch().Sel(int(hi - lo))
		if ids == nil {
			fillRange(sel, lo)
		} else {
			copy(sel, ids)
		}
		ids, _ = r.m.refine(nil, sel, nil)
	}
	out.AppendIDs(ids)
	return len(ids)
}

func (r *rowRun) account(consumed int64) {
	r.scan.rowsScanned.Add(consumed)
	if r.tree != nil {
		r.tree.NoteGathered(consumed)
	}
}

// RowsScanned reports how many base rows (table runs) or indexed rows
// (permutation runs) the scan touched. Morsel workers update the
// counter atomically.
func (s *TableScan) RowsScanned() int64 { return s.rowsScanned.Load() }

// HTScan iterates the entries of a cached hash table, decoding a subset
// of its layout columns, optionally post-filtering (subsuming and
// overlapping reuse) and optionally keeping only entries whose qid-mask
// cell intersects a mask (shared plans).
type HTScan struct {
	HT *hashtable.Table
	// OutCols lists layout column positions to emit.
	OutCols []int
	// QidCol is the layout position of the query-id bitmask column, or
	// -1; QidMask selects entries with any overlapping bit.
	QidCol  int
	QidMask uint64

	schema storage.Schema
	// post is the post-filter box bound to the layout (nil: no
	// filtering); it drops the entries outside the request, the false
	// positives of the reused table.
	post     *matcher
	filtered atomic.Int64
}

// NewHTScan constructs a hash-table scan. outRefs (optional, aligned
// with outCols) renames emitted columns. postFilter (layout refs, nil
// for none) binds here; every column it constrains must be stored in
// the layout.
func NewHTScan(ht *hashtable.Table, outCols []int, outRefs []storage.ColRef, postFilter expr.Box) (*HTScan, error) {
	if outRefs != nil && len(outRefs) != len(outCols) {
		return nil, fmt.Errorf("exec: outRefs has %d entries for %d out columns", len(outRefs), len(outCols))
	}
	post, err := bindHT(postFilter, ht)
	if err != nil {
		return nil, err
	}
	s := &HTScan{HT: ht, OutCols: outCols, QidCol: -1, post: post}
	layout := ht.Layout()
	for oi, ci := range outCols {
		if ci < 0 || ci >= len(layout.Cols) {
			return nil, fmt.Errorf("exec: HT scan column %d out of range", ci)
		}
		m := layout.Cols[ci]
		if outRefs != nil {
			m.Ref = outRefs[oi]
		}
		s.schema = append(s.schema, m)
	}
	return s, nil
}

// Schema implements Source.
func (s *HTScan) Schema() storage.Schema { return s.schema }

// Morsels implements Source: the hash table's entry arena is chunked
// into independent ranges. The table is immutable while being scanned —
// builds into it are earlier pipelines of the same query (finished
// before this one's cursors are requested, in compile order), and
// cross-query readers hold frozen snapshots that widening queries only
// copy — so morsels share it lock-free.
func (s *HTScan) Morsels(rows, workers int) ([]Cursor, error) {
	n := s.HT.Len()
	return appendCursors(nil, s, 0, int32(n), storage.BalancedMorselRows(n, rows, workers)), nil
}

// emit filters the candidate entry range [start, end) through the qid
// mask and the post-filter, and appends the survivors' columns to out.
// Both refine an entry selection vector; surviving entries decode once
// per output column.
func (s *HTScan) emit(out *storage.Batch, start, end int32) int {
	ents := fillRange(out.Scratch().Sel(int(end-start)), start)
	if s.QidCol >= 0 {
		kept := ents[:0]
		for _, e := range ents {
			if s.HT.Cell(e, s.QidCol)&s.QidMask != 0 {
				kept = append(kept, e)
			}
		}
		ents = kept
	}
	before := len(ents)
	ents, _ = s.post.refine(nil, ents, nil)
	if f := before - len(ents); f > 0 {
		s.filtered.Add(int64(f))
	}
	for i, ci := range s.OutCols {
		s.HT.AppendColumn(out.Cols[i], ci, ents)
	}
	return len(ents)
}

func (s *HTScan) account(int64) {}

// FilteredOut reports how many entries the post-filter rejected (the
// false positives of subsuming reuse). Morsel workers update the
// counter atomically.
func (s *HTScan) FilteredOut() int64 { return s.filtered.Load() }
