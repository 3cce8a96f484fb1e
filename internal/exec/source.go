package exec

import (
	"fmt"
	"sync/atomic"

	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// Source produces batches for a pipeline.
type Source interface {
	// Open prepares the source for iteration.
	Open() error
	// Next fills out (which is Reset by the caller) and reports whether
	// any rows were produced. It may produce fewer than BatchSize rows.
	Next(out *storage.Batch) bool
	// Schema describes the batches the source emits.
	Schema() storage.Schema
}

// fillRange fills sel with the consecutive row ids [start, start+len).
func fillRange(sel []int32, start int32) []int32 {
	for i := range sel {
		sel[i] = start + int32(i)
	}
	return sel
}

// TableScan scans a base table sequentially under a disjoint union of
// predicate boxes (normally one; partial-reuse residuals may add more),
// applying each box's predicates as a residual filter. Index-driven
// access is IndexScan's job; the optimizer picks between the two.
type TableScan struct {
	Table *storage.Table
	// Alias qualifies emitted column references (queries address tables
	// through aliases, e.g. "l" for lineitem).
	Alias string
	// Boxes is the disjoint union of predicate boxes to scan. An empty
	// slice means scan everything.
	Boxes []expr.Box
	// Cols lists the table columns to emit, aliased.
	Cols []string

	cols    []*storage.Column // resolved emit columns, aligned with Cols
	schema  storage.Schema
	boxIdx  int
	pos     int
	matcher *tableMatcher
	err     error // box-resolution failure mid-iteration (see Err)
	// stats
	rowsScanned int64
}

// NewTableScan constructs a scan. Every requested column must exist.
func NewTableScan(t *storage.Table, alias string, boxes []expr.Box, cols []string) (*TableScan, error) {
	s := &TableScan{Table: t, Alias: alias, Boxes: boxes, Cols: cols}
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
	if len(boxes) == 0 {
		s.Boxes = []expr.Box{nil}
	}
	return s, nil
}

// Schema implements Source.
func (s *TableScan) Schema() storage.Schema { return s.schema }

// Open implements Source.
func (s *TableScan) Open() error {
	s.boxIdx = -1
	return s.advanceBox()
}

// resolveBox compiles one box into its residual matcher (nil for a box
// without predicates); skip reports a contradictory (empty-set) box that
// produces no rows. The matcher is read-only, so morsels of the same box
// share it across workers.
func (s *TableScan) resolveBox(box expr.Box) (m *tableMatcher, skip bool, err error) {
	if box.Empty() {
		return nil, true, nil
	}
	if len(box) == 0 {
		return nil, false, nil
	}
	m, err = newTableMatcher(box, s.Table)
	return m, false, err
}

// advanceBox prepares iteration state for the next box.
func (s *TableScan) advanceBox() error {
	s.boxIdx++
	s.pos = 0
	s.matcher = nil
	if s.boxIdx >= len(s.Boxes) {
		return nil
	}
	m, skip, err := s.resolveBox(s.Boxes[s.boxIdx])
	if err != nil {
		return err
	}
	if skip {
		return s.advanceBox()
	}
	s.matcher = m
	return nil
}

// Morsels implements MorselSource: each box's pass over the table is
// chunked into the same independent row ranges, balanced so even short
// tables split into several morsels per worker; a box's morsels share
// its read-only residual matcher. It returns nil when box resolution
// fails; the runner's serial fallback then surfaces the error.
func (s *TableScan) Morsels(rows, workers int) []Source {
	n := s.Table.NumRows()
	ranges := storage.MorselRange(n, storage.BalancedMorselRows(n, rows, workers))
	var out []Source
	for _, box := range s.Boxes {
		m, skip, err := s.resolveBox(box)
		if err != nil {
			return nil
		}
		if skip {
			continue
		}
		for _, r := range ranges {
			out = append(out, &tableScanMorsel{scan: s, matcher: m, m: r})
		}
	}
	return out
}

// emitChunk scans the contiguous row range [start, end) under the
// residual matcher, appending survivors to out. It returns the number of
// rows emitted. With no matcher every column bulk-copies the range; with
// one, the matcher refines a selection vector and each column gathers
// the survivors once.
func (s *TableScan) emitChunk(out *storage.Batch, start, end int32, m *tableMatcher) int {
	if m == nil {
		for i, col := range s.cols {
			out.Cols[i].AppendColumnRange(col, start, end)
		}
		return int(end - start)
	}
	sel := m.filter(fillRange(out.Scratch().Sel(int(end-start)), start))
	for i, col := range s.cols {
		out.Cols[i].AppendColumnGather(col, sel)
	}
	return len(sel)
}

// tableScanMorsel scans one morsel of one resolved box. It shares the
// parent scan's table, column list and matcher (all read-only) and owns
// only its cursor.
type tableScanMorsel struct {
	scan    *TableScan
	matcher *tableMatcher
	m       storage.Morsel
	pos     int32
}

// Schema implements Source.
func (t *tableScanMorsel) Schema() storage.Schema { return t.scan.schema }

// Open implements Source.
func (t *tableScanMorsel) Open() error {
	t.pos = t.m.Start
	return nil
}

// Next implements Source.
func (t *tableScanMorsel) Next(out *storage.Batch) bool {
	produced := out.Len()
	start := produced
	var scanned int64
	for t.pos < t.m.End && produced < storage.BatchSize {
		chunk := int32(storage.BatchSize - produced)
		if rem := t.m.End - t.pos; rem < chunk {
			chunk = rem
		}
		produced += t.scan.emitChunk(out, t.pos, t.pos+chunk, t.matcher)
		t.pos += chunk
		scanned += int64(chunk)
	}
	if scanned > 0 {
		atomic.AddInt64(&t.scan.rowsScanned, scanned)
	}
	return produced > start
}

// Next implements Source.
func (s *TableScan) Next(out *storage.Batch) bool {
	n := s.Table.NumRows()
	for s.boxIdx < len(s.Boxes) {
		produced := out.Len()
		for s.pos < n && produced < storage.BatchSize {
			chunk := storage.BatchSize - produced
			if rem := n - s.pos; rem < chunk {
				chunk = rem
			}
			produced += s.emitChunk(out, int32(s.pos), int32(s.pos+chunk), s.matcher)
			s.pos += chunk
			s.rowsScanned += int64(chunk)
		}
		if produced > 0 {
			return true
		}
		if err := s.advanceBox(); err != nil {
			s.err = err
			return false
		}
	}
	return false
}

// Err reports a box-resolution failure that ended iteration early
// (Next has no error return); the pipeline runner checks it after the
// source is drained.
func (s *TableScan) Err() error { return s.err }

// RowsScanned reports how many base rows the scan touched (actual-cost
// statistic for the optimizer accuracy experiment). Morsel workers
// update the counter atomically.
func (s *TableScan) RowsScanned() int64 { return atomic.LoadInt64(&s.rowsScanned) }

// HTScan iterates the entries of a cached hash table, decoding a subset
// of its layout columns, optionally post-filtering (subsuming-reuse) and
// optionally keeping only entries whose qid-mask cell intersects a mask
// (shared plans).
type HTScan struct {
	HT *hashtable.Table
	// OutCols lists layout column positions to emit.
	OutCols []int
	// PostFilter is evaluated against decoded entry values; nil means no
	// filtering. Its predicates reference layout column refs.
	PostFilter expr.Box
	// QidCol is the layout position of the query-id bitmask column, or
	// -1; QidMask selects entries with any overlapping bit.
	QidCol  int
	QidMask uint64

	schema   storage.Schema
	pfCols   []int
	pfCons   []expr.Constraint
	pfKinds  []types.Kind
	pos      int32
	filtered int64
}

// NewHTScan constructs a hash-table scan. outRefs (optional, aligned
// with outCols) renames emitted columns.
func NewHTScan(ht *hashtable.Table, outCols []int, outRefs []storage.ColRef, postFilter expr.Box) (*HTScan, error) {
	if outRefs != nil && len(outRefs) != len(outCols) {
		return nil, fmt.Errorf("exec: outRefs has %d entries for %d out columns", len(outRefs), len(outCols))
	}
	s := &HTScan{HT: ht, OutCols: outCols, PostFilter: postFilter, QidCol: -1}
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
	for _, p := range postFilter {
		ci := layout.ColIndex(p.Col)
		if ci < 0 {
			return nil, fmt.Errorf("exec: post-filter column %v not in hash table layout", p.Col)
		}
		s.pfCols = append(s.pfCols, ci)
		s.pfCons = append(s.pfCons, p.Con)
		s.pfKinds = append(s.pfKinds, layout.Cols[ci].Kind)
	}
	return s, nil
}

// Schema implements Source.
func (s *HTScan) Schema() storage.Schema { return s.schema }

// Open implements Source.
func (s *HTScan) Open() error {
	s.pos = 0
	return nil
}

// emitEntries filters the candidate entry range [start, end) through
// the qid mask and the post-filter, and appends the survivors' columns
// to out. It returns (emitted, post-filtered) counts. The qid test and
// each post-filter column refine an entry selection vector with the
// kind dispatch hoisted out of the entry loop; surviving entries decode
// once per output column.
func (s *HTScan) emitEntries(out *storage.Batch, start, end int32) (int, int64) {
	ents := out.Scratch().Sel(int(end - start))
	for i := range ents {
		ents[i] = start + int32(i)
	}
	if s.QidCol >= 0 {
		kept := ents[:0]
		for _, e := range ents {
			if s.HT.Cell(e, s.QidCol)&s.QidMask != 0 {
				kept = append(kept, e)
			}
		}
		ents = kept
	}
	var filtered int64
	if len(s.pfCols) > 0 {
		before := len(ents)
		ents = s.filterEntries(ents)
		filtered = int64(before - len(ents))
	}
	for i, ci := range s.OutCols {
		s.HT.AppendColumn(out.Cols[i], ci, ents)
	}
	return len(ents), filtered
}

// filterEntries refines an entry selection through the post-filter, one
// typed loop per constrained layout column.
func (s *HTScan) filterEntries(ents []int32) []int32 {
	ht := s.HT
	for j, ci := range s.pfCols {
		if len(ents) == 0 {
			return ents
		}
		con := s.pfCons[j]
		kept := ents[:0]
		switch s.pfKinds[j] {
		case types.Int64, types.Date:
			for _, e := range ents {
				if con.MatchInt(int64(ht.Cell(e, ci))) {
					kept = append(kept, e)
				}
			}
		case types.Float64:
			for _, e := range ents {
				if con.MatchFloat(types.FromBits(types.Float64, ht.Cell(e, ci)).F) {
					kept = append(kept, e)
				}
			}
		case types.String:
			strs := ht.Strings()
			for _, e := range ents {
				if con.MatchString(strs.At(ht.Cell(e, ci))) {
					kept = append(kept, e)
				}
			}
		}
		ents = kept
	}
	return ents
}

// Next implements Source.
func (s *HTScan) Next(out *storage.Batch) bool {
	n := int32(s.HT.Len())
	produced := 0
	var filtered int64
	for s.pos < n && produced < storage.BatchSize {
		chunk := int32(storage.BatchSize - produced)
		if rem := n - s.pos; rem < chunk {
			chunk = rem
		}
		emitted, f := s.emitEntries(out, s.pos, s.pos+chunk)
		produced += emitted
		filtered += f
		s.pos += chunk
	}
	s.filtered += filtered
	return produced > 0
}

// FilteredOut reports how many entries the post-filter rejected (the
// false positives of subsuming reuse). Morsel workers update the
// counter atomically.
func (s *HTScan) FilteredOut() int64 { return atomic.LoadInt64(&s.filtered) }

// Morsels implements MorselSource: the hash table's entry arena is
// chunked into independent ranges. The table is immutable while being
// scanned — builds into it are earlier pipelines of the same query
// (finished before this one starts, in compile order), and cross-query
// readers hold frozen snapshots that widening queries only copy — so
// morsels share it lock-free.
func (s *HTScan) Morsels(rows, workers int) []Source {
	var out []Source
	n := s.HT.Len()
	for _, m := range storage.MorselRange(n, storage.BalancedMorselRows(n, rows, workers)) {
		out = append(out, &htScanMorsel{scan: s, m: m})
	}
	return out
}

// htScanMorsel scans one entry range of a hash table.
type htScanMorsel struct {
	scan *HTScan
	m    storage.Morsel
	pos  int32
}

// Schema implements Source.
func (t *htScanMorsel) Schema() storage.Schema { return t.scan.schema }

// Open implements Source.
func (t *htScanMorsel) Open() error {
	t.pos = t.m.Start
	return nil
}

// Next implements Source.
func (t *htScanMorsel) Next(out *storage.Batch) bool {
	s := t.scan
	produced := 0
	var filtered int64
	for t.pos < t.m.End && produced < storage.BatchSize {
		chunk := int32(storage.BatchSize - produced)
		if rem := t.m.End - t.pos; rem < chunk {
			chunk = rem
		}
		emitted, f := s.emitEntries(out, t.pos, t.pos+chunk)
		produced += emitted
		filtered += f
		t.pos += chunk
	}
	if filtered > 0 {
		atomic.AddInt64(&s.filtered, filtered)
	}
	return produced > 0
}
