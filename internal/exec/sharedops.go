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
	matchers []*matcher
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
	ms, err := bindEach(s.queryBoxes, func(box expr.Box) (*matcher, error) { return bindTable(box, s.table) })
	if err != nil {
		return nil, err
	}
	run := &sharedRun{scan: s, matchers: ms}
	n := s.table.NumRows()
	return appendCursors(nil, run, 0, int32(n), storage.BalancedMorselRows(n, rows, workers)), nil
}

// emit evaluates every query's box over rows [start, end), tags each
// surviving row with the bitmask of queries it satisfies and appends
// survivors to out. The per-row qid masks OR together (tagRows) and
// rows with non-zero masks gather once per column.
func (r *sharedRun) emit(out *storage.Batch, start, end int32) int {
	sc := out.Scratch()
	n := int(end - start)
	masks := sc.MasksN(n)
	tagRows(masks, r.matchers, start, sc.Ents(n))
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

// ReTag recomputes the qid bitmask of every entry of a reused shared
// hash table against the predicate boxes of the *current* batch and
// returns a read-only view of ht carrying the new masks. The
// paper mandates this before a shared operator reuses a table: stale
// tags from a previous batch would corrupt results once query IDs are
// recycled. Entries matching no query get mask 0 (dead, but retained —
// eviction of individual entries is the garbage collector's business,
// not the operator's).
//
// Each box binds to the layout like a post-filter, and the entries are
// tagged the way SharedScan tags rows (tagRows), so an entry's mask is
// exactly the set of boxes a scan of its row would keep it for. The
// masks install as the view's qid column (hashtable.Table.WithColumn):
// the view shares every arena of ht, which stays frozen and unchanged
// for the concurrent queries probing it.
//
// Every predicate column of every box must be stored in the table's
// layout (HashStash's "additional attributes" benefit optimization adds
// selection attributes to payloads for exactly this reason).
func ReTag(ht *hashtable.Table, qidCol int, queryBoxes []expr.Box) (*hashtable.Table, error) {
	if qidCol < 0 || qidCol >= len(ht.Layout().Cols) {
		return nil, fmt.Errorf("exec: qid column %d out of range", qidCol)
	}
	ms, err := bindEach(queryBoxes, func(box expr.Box) (*matcher, error) { return bindHT(box, ht) })
	if err != nil {
		return nil, err
	}
	masks := make([]uint64, ht.Len())
	tagRows(masks, ms, 0, make([]int32, len(masks)))
	return ht.WithColumn(qidCol, masks), nil
}

// bindEach binds every query's box with bindOne.
func bindEach(boxes []expr.Box, bindOne func(expr.Box) (*matcher, error)) ([]*matcher, error) {
	ms := make([]*matcher, len(boxes))
	for q, box := range boxes {
		m, err := bindOne(box)
		if err != nil {
			return nil, err
		}
		ms[q] = m
	}
	return ms, nil
}
