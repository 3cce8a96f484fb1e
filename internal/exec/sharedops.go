package exec

import (
	"fmt"
	"sync/atomic"

	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// QidColumn is the reserved name of the query-id bitmask column flowing
// through shared plans (Data-Query model of SharedDB): bit i set means
// the row qualifies for query i of the batch.
const QidColumn = "_qid"

// QidRef returns the schema reference of the qid column.
func QidRef() storage.ColRef { return storage.ColRef{Column: QidColumn} }

// SharedScan evaluates the filter predicates of every query in a batch
// during one scan of the base table, tagging each emitted row with the
// bitmask of queries it satisfies. Rows satisfying no query are dropped.
type SharedScan struct {
	Table *storage.Table
	Alias string
	// QueryBoxes holds one predicate box per query; bit i of the emitted
	// mask corresponds to QueryBoxes[i]. At most 64 queries per batch.
	QueryBoxes []expr.Box
	Cols       []string

	cols     []*storage.Column // resolved emit columns, aligned with Cols
	schema   storage.Schema
	matchers []*tableMatcher
	pos      int
	rowsIn   int64
}

// NewSharedScan constructs a shared scan.
func NewSharedScan(t *storage.Table, alias string, queryBoxes []expr.Box, cols []string) (*SharedScan, error) {
	if len(queryBoxes) == 0 || len(queryBoxes) > 64 {
		return nil, fmt.Errorf("exec: shared scan supports 1-64 queries, got %d", len(queryBoxes))
	}
	s := &SharedScan{Table: t, Alias: alias, QueryBoxes: queryBoxes, Cols: cols}
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
	s.schema = append(s.schema, storage.ColMeta{Ref: QidRef(), Kind: types.Int64})
	return s, nil
}

// Schema implements Source.
func (s *SharedScan) Schema() storage.Schema { return s.schema }

// resolveMatchers binds every query box against the table (idempotent).
func (s *SharedScan) resolveMatchers() error {
	if len(s.matchers) == len(s.QueryBoxes) {
		return nil
	}
	s.matchers = s.matchers[:0]
	for _, box := range s.QueryBoxes {
		m, err := newTableMatcher(box, s.Table)
		if err != nil {
			return err
		}
		s.matchers = append(s.matchers, m)
	}
	return nil
}

// Open implements Source.
func (s *SharedScan) Open() error {
	s.pos = 0
	return s.resolveMatchers()
}

// emitChunk evaluates every query's box over rows [start, end), tags
// each surviving row with the bitmask of queries it satisfies and
// appends survivors to out. Per query, the box refines a selection
// vector with typed kernels; the per-row qid masks then OR together and
// rows with non-zero masks gather once per column.
func (s *SharedScan) emitChunk(out *storage.Batch, start, end int32) int {
	sc := out.Scratch()
	n := int(end - start)
	masks := sc.MasksN(n)
	for q, m := range s.matchers {
		qsel := m.filter(fillRange(sc.Ents(n)[:n], start))
		bit := int64(1) << uint(q)
		for _, r := range qsel {
			masks[r-start] |= bit
		}
	}
	sel := sc.Sel(n)[:0]
	cnt := 0
	for i, mask := range masks {
		if mask != 0 {
			sel = append(sel, start+int32(i))
			masks[cnt] = mask
			cnt++
		}
	}
	for i, c := range s.cols {
		out.Cols[i].AppendColumnGather(c, sel)
	}
	out.Cols[len(s.cols)].Ints = append(out.Cols[len(s.cols)].Ints, masks[:cnt]...)
	return cnt
}

// Next implements Source.
func (s *SharedScan) Next(out *storage.Batch) bool {
	n := s.Table.NumRows()
	produced := 0
	for s.pos < n && produced < storage.BatchSize {
		chunk := storage.BatchSize - produced
		if rem := n - s.pos; rem < chunk {
			chunk = rem
		}
		produced += s.emitChunk(out, int32(s.pos), int32(s.pos+chunk))
		s.pos += chunk
		atomic.AddInt64(&s.rowsIn, int64(chunk))
	}
	return produced > 0
}

// Morsels implements MorselSource: the table's row range is chunked into
// independent morsels that share the (read-only) per-query matchers, so
// shared-plan scan pipelines parallelize like ordinary scans. It returns
// nil when a box fails to bind; the serial fallback surfaces the error.
func (s *SharedScan) Morsels(rows, workers int) []Source {
	if err := s.resolveMatchers(); err != nil {
		return nil
	}
	var out []Source
	n := s.Table.NumRows()
	for _, m := range storage.MorselRange(n, storage.BalancedMorselRows(n, rows, workers)) {
		out = append(out, &sharedScanMorsel{scan: s, m: m})
	}
	return out
}

// sharedScanMorsel scans one row range of a shared scan.
type sharedScanMorsel struct {
	scan *SharedScan
	m    storage.Morsel
	pos  int32
}

// Schema implements Source.
func (t *sharedScanMorsel) Schema() storage.Schema { return t.scan.schema }

// Open implements Source.
func (t *sharedScanMorsel) Open() error {
	t.pos = t.m.Start
	return nil
}

// Next implements Source.
func (t *sharedScanMorsel) Next(out *storage.Batch) bool {
	s := t.scan
	produced := 0
	var scanned int64
	for t.pos < t.m.End && produced < storage.BatchSize {
		chunk := int32(storage.BatchSize - produced)
		if rem := t.m.End - t.pos; rem < chunk {
			chunk = rem
		}
		produced += s.emitChunk(out, t.pos, t.pos+chunk)
		t.pos += chunk
		scanned += int64(chunk)
	}
	if scanned > 0 {
		atomic.AddInt64(&s.rowsIn, scanned)
	}
	return produced > 0
}

// reTagChunk is the batch granule of ReTag's entry sweep.
const reTagChunk = storage.BatchSize

// ReTag recomputes the qid bitmask of every entry of a reused shared
// hash table against the predicate boxes of the *current* batch and
// returns a read-only view of ht carrying the new masks. The
// paper mandates this before a shared operator reuses a table: stale
// tags from a previous batch would corrupt results once query IDs are
// recycled. Entries matching no query get mask 0 (dead, but retained —
// eviction of individual entries is the garbage collector's business,
// not the operator's).
//
// The sweep is batch-at-a-time: each chunk of the entry arena decodes
// every constrained layout column once into a typed scratch vector, each
// query's box refines a selection vector with the Constraint filter
// kernels (the kind dispatch hoisted out of the entry loop), and the
// surviving entries OR their query bit into a dense mask vector. The
// masks install as the view's qid column (hashtable.Table.WithColumn):
// the view shares every arena of ht, which stays frozen and unchanged
// for the concurrent queries probing it.
//
// Every predicate column of every box must be stored in the table's
// layout (HashStash's "additional attributes" benefit optimization adds
// selection attributes to payloads for exactly this reason).
func ReTag(ht *hashtable.Table, qidCol int, queryBoxes []expr.Box) (*hashtable.Table, error) {
	layout := ht.Layout()
	if qidCol < 0 || qidCol >= len(layout.Cols) {
		return nil, fmt.Errorf("exec: qid column %d out of range", qidCol)
	}
	type boundPred struct {
		col int // decode-buffer index
		con expr.Constraint
	}
	// Bind boxes to layout positions and assign one decode buffer per
	// distinct constrained column.
	bufOf := map[int]int{} // layout col -> decode buffer
	var decodeCols []int   // layout col per buffer
	var kinds []types.Kind
	bound := make([][]boundPred, len(queryBoxes))
	for q, box := range queryBoxes {
		for _, p := range box {
			ci := layout.ColIndex(p.Col)
			if ci < 0 {
				return nil, fmt.Errorf("exec: re-tag predicate column %v not stored in hash table", p.Col)
			}
			bi, ok := bufOf[ci]
			if !ok {
				bi = len(decodeCols)
				bufOf[ci] = bi
				decodeCols = append(decodeCols, ci)
				kinds = append(kinds, layout.Cols[ci].Kind)
			}
			bound[q] = append(bound[q], boundPred{col: bi, con: p.Con})
		}
	}

	n := ht.Len()
	masks := make([]uint64, n)
	bufs := make([]*storage.Vec, len(decodeCols))
	for i, ci := range decodeCols {
		bufs[i] = storage.NewVec(layout.Cols[ci].Kind)
	}
	ents := make([]int32, 0, reTagChunk)
	sel := make([]int32, reTagChunk)

	for start := 0; start < n; start += reTagChunk {
		end := start + reTagChunk
		if end > n {
			end = n
		}
		cn := end - start
		ents = ents[:0]
		for e := start; e < end; e++ {
			ents = append(ents, int32(e))
		}
		for i := range bufs {
			bufs[i].Reset()
			ht.AppendColumn(bufs[i], decodeCols[i], ents)
		}
		for q := range bound {
			qsel := sel[:cn]
			for i := range qsel {
				qsel[i] = int32(i)
			}
			for _, bp := range bound[q] {
				if len(qsel) == 0 {
					break
				}
				switch kinds[bp.col] {
				case types.Int64, types.Date:
					qsel = bp.con.FilterInts(bufs[bp.col].Ints, qsel)
				case types.Float64:
					qsel = bp.con.FilterFloats(bufs[bp.col].Floats, qsel)
				case types.String:
					qsel = bp.con.FilterStrings(bufs[bp.col].Strs, qsel)
				}
			}
			bit := uint64(1) << uint(q)
			for _, r := range qsel {
				masks[start+int(r)] |= bit
			}
		}
	}
	return ht.WithColumn(qidCol, masks), nil
}
