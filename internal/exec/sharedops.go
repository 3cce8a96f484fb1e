package exec

import (
	"fmt"

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
	table *storage.Table
	// queryBoxes holds one predicate box per query; bit i of the emitted
	// mask corresponds to queryBoxes[i]. At most 64 queries per batch.
	queryBoxes []expr.Box
	cols       []*storage.Column // resolved emit columns
	schema     storage.Schema
}

// sharedRun is one Morsels call's resolved shared scan: the per-query
// matchers, read-only and shared by every morsel.
type sharedRun struct {
	scan     *SharedScan
	matchers []*tableMatcher
}

// NewSharedScan constructs a shared scan.
func NewSharedScan(t *storage.Table, alias string, queryBoxes []expr.Box, cols []string) (*SharedScan, error) {
	if len(queryBoxes) == 0 || len(queryBoxes) > 64 {
		return nil, fmt.Errorf("exec: shared scan supports 1-64 queries, got %d", len(queryBoxes))
	}
	rcols, schema, err := resolveCols(t, alias, cols)
	if err != nil {
		return nil, err
	}
	schema = append(schema, storage.ColMeta{Ref: QidRef(), Kind: types.Int64})
	return &SharedScan{table: t, queryBoxes: queryBoxes, cols: rcols, schema: schema}, nil
}

// Schema implements Source.
func (s *SharedScan) Schema() storage.Schema { return s.schema }

// Morsels implements Source: every query box is bound against the
// table, failing the call when one does not resolve, and the table's
// row range is chunked into morsels that share the matchers, so
// shared-plan scan pipelines parallelize like ordinary scans.
func (s *SharedScan) Morsels(rows, workers int) ([]Cursor, error) {
	run := &sharedRun{scan: s, matchers: make([]*tableMatcher, len(s.queryBoxes))}
	for q, box := range s.queryBoxes {
		m, err := newTableMatcher(box, s.table)
		if err != nil {
			return nil, err
		}
		run.matchers[q] = m
	}
	n := s.table.NumRows()
	return appendCursors(nil, run, 0, int32(n), storage.BalancedMorselRows(n, rows, workers)), nil
}

// emit evaluates every query's box over rows [start, end), tags each
// surviving row with the bitmask of queries it satisfies and appends
// survivors to out. Per query, the box refines a selection vector with
// typed kernels; the per-row qid masks then OR together and rows with
// non-zero masks gather once per column.
func (r *sharedRun) emit(out *storage.Batch, start, end int32) int {
	sc := out.Scratch()
	n := int(end - start)
	masks := sc.MasksN(n)
	for q, m := range r.matchers {
		qsel := fillRange(sc.Ents(n)[:n], start)
		if m != nil {
			qsel = m.filter(qsel)
		}
		bit := int64(1) << uint(q)
		for _, row := range qsel {
			masks[row-start] |= bit
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
	cols := r.scan.cols
	for i, c := range cols {
		out.Cols[i].AppendColumnGather(c, sel)
	}
	out.Cols[len(cols)].Ints = append(out.Cols[len(cols)].Ints, masks[:cnt]...)
	return cnt
}

func (r *sharedRun) account(int64) {}

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
