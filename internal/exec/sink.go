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

// Sink consumes the batches at the end of a pipeline. Pipeline breakers
// (hash-table builds, aggregations) are sinks.
type Sink interface {
	// Consume processes one batch.
	Consume(b *storage.Batch)
	// Finish is called once after the last batch.
	Finish()
}

// encodeCols encodes the given input columns of b cell-wise into the
// batch's scratch columns: enc[k][i] is the 8-byte cell of row i's k-th
// column, a string's cell being its dictionary code. The kind dispatch
// happens once per column per batch. A deferred column encodes
// straight from its base column at the row ids: gather and encode are
// one pass.
func encodeCols(b *storage.Batch, cols []int, n int) [][]uint64 {
	enc := b.Scratch().Enc(len(cols), n)
	for k, ci := range cols {
		dst := enc[k]
		if col := b.Base(ci); col != nil {
			ids, _ := b.IDs()
			switch col.Kind {
			case types.Int64, types.Date:
				data := col.Ints
				for i, id := range ids {
					dst[i] = uint64(data[id])
				}
			case types.Float64:
				data := col.Floats
				for i, id := range ids {
					dst[i] = math.Float64bits(data[id])
				}
			case types.String:
				data := col.Strs
				for i, id := range ids {
					dst[i] = uint64(data[id])
				}
			}
			continue
		}
		vec := b.Materialize(ci)
		switch vec.Kind {
		case types.Int64, types.Date:
			for i, v := range vec.Ints[:n] {
				dst[i] = uint64(v)
			}
		case types.Float64:
			for i, v := range vec.Floats[:n] {
				dst[i] = math.Float64bits(v)
			}
		case types.String:
			for i, v := range vec.Strs[:n] {
				dst[i] = uint64(v)
			}
		}
	}
	return enc
}

// BuildHT inserts every row into a hash table — the build phase of a
// (reuse-aware) hash join, and the grouping phase of a shared hash
// aggregate. When the table is reused partially, the pipeline feeding
// this sink scans only the residual boxes, so the sink adds exactly the
// paper's "missing tuples".
type BuildHT struct {
	HT *hashtable.Table
	// InCols maps each layout column to an input schema position.
	InCols []int

	row      []uint64
	inserted int64
}

// NewBuildHT wires a build sink: layout column i is fed from input
// column InCols[i]. feed (optional, aligned with the layout) names the
// input column feeding each layout column; nil uses the layout's own
// refs (cached layouts are base-qualified, pipeline schemas
// alias-qualified, so reuse across queries passes an explicit feed).
func NewBuildHT(ht *hashtable.Table, in storage.Schema, feed []storage.ColRef) (*BuildHT, error) {
	layout := ht.Layout()
	if feed != nil && len(feed) != len(layout.Cols) {
		return nil, fmt.Errorf("exec: feed has %d refs for %d layout columns", len(feed), len(layout.Cols))
	}
	s := &BuildHT{HT: ht, row: make([]uint64, len(layout.Cols))}
	for li, m := range layout.Cols {
		ref := m.Ref
		if feed != nil {
			ref = feed[li]
		}
		i := in.IndexOf(ref)
		if i < 0 {
			return nil, fmt.Errorf("exec: build column %v not in input schema %v", ref, in)
		}
		if in[i].Kind != m.Kind {
			return nil, fmt.Errorf("exec: build column %v kind %v != layout kind %v", ref, in[i].Kind, m.Kind)
		}
		s.InCols = append(s.InCols, i)
	}
	return s, nil
}

// Consume implements Sink. The whole batch encodes column-wise into
// scratch cells, the key hash vector computes in one pass, and the
// insert loop only gathers each row's pre-encoded cells — no per-row
// kind dispatch or re-hashing.
func (s *BuildHT) Consume(b *storage.Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	enc := encodeCols(b, s.InCols, n)
	hashes := b.Scratch().Hash(n)
	hashtable.HashColumns(hashes, enc[:s.HT.Layout().KeyCols])
	row := s.row
	for i := 0; i < n; i++ {
		for li := range enc {
			row[li] = enc[li][i]
		}
		s.HT.InsertHashed(hashes[i], row)
	}
	s.inserted += int64(n)
}

// Finish implements Sink.
func (s *BuildHT) Finish() {}

// Inserted reports how many rows the sink added (the actual build cost
// driver in the cost-model accuracy experiment).
func (s *BuildHT) Inserted() int64 { return s.inserted }

// AggCell describes one aggregate computed by an AggHT sink.
type AggCell struct {
	Func expr.AggFunc
	// InCol is the input position of the (pre-computed) argument column;
	// -1 for COUNT(*).
	InCol int
	// Kind is the cell kind (Float64 for SUM and float MIN/MAX, Int64
	// for COUNT and integer MIN/MAX).
	Kind types.Kind
}

// AggHT upserts group keys and folds aggregates in place — the pipeline
// breaker of a (reuse-aware) hash aggregation. Layout: key columns
// first, then one cell per aggregate.
type AggHT struct {
	HT *hashtable.Table
	// GroupCols are input positions feeding the layout's key columns.
	GroupCols []int
	Aggs      []AggCell

	key      []uint64
	inserted int64 // new groups
	updated  int64 // in-place updates
}

// NewAggHT wires an aggregation sink. The hash table layout must be
// len(groupBy) key columns followed by len(aggs) cells.
func NewAggHT(ht *hashtable.Table, groupBy []storage.ColRef, aggs []AggCell, in storage.Schema) (*AggHT, error) {
	layout := ht.Layout()
	if layout.KeyCols != len(groupBy) || len(layout.Cols) != len(groupBy)+len(aggs) {
		return nil, fmt.Errorf("exec: aggregation layout mismatch: %d keys + %d aggs vs layout %d/%d",
			len(groupBy), len(aggs), layout.KeyCols, len(layout.Cols))
	}
	s := &AggHT{HT: ht, Aggs: aggs, key: make([]uint64, len(groupBy))}
	for _, ref := range groupBy {
		i := in.IndexOf(ref)
		if i < 0 {
			return nil, fmt.Errorf("exec: group-by column %v not in input schema %v", ref, in)
		}
		s.GroupCols = append(s.GroupCols, i)
	}
	for _, a := range aggs {
		if a.InCol < -1 || a.InCol >= len(in) {
			return nil, fmt.Errorf("exec: aggregate input column %d out of range", a.InCol)
		}
		if a.InCol == -1 && a.Func != expr.AggCount {
			return nil, fmt.Errorf("exec: only COUNT may aggregate *")
		}
		if a.Kind == types.String {
			return nil, fmt.Errorf("exec: string aggregates are not supported")
		}
	}
	return s, nil
}

// Consume implements Sink. Group keys encode column-wise with one bulk
// hash pass; the upsert loop records each row's entry, and each
// aggregate then folds over the whole batch in one typed loop (the
// function/kind dispatch hoisted out of the row loop).
func (s *AggHT) Consume(b *storage.Batch) {
	n := b.Len()
	if n == 0 {
		return
	}
	nKeys := len(s.GroupCols)
	enc := encodeCols(b, s.GroupCols, n)
	sc := b.Scratch()
	hashes := sc.Hash(n)
	hashtable.HashColumns(hashes, enc)
	ents := sc.Ents(n)
	key := s.key
	for i := 0; i < n; i++ {
		for k := range key {
			key[k] = enc[k][i]
		}
		e, found := s.HT.UpsertHashed(hashes[i], key)
		if !found {
			s.inserted++
			for ai, a := range s.Aggs {
				s.HT.SetCell(e, nKeys+ai, identityBits(a))
			}
		} else {
			s.updated++
		}
		ents = append(ents, e)
	}
	for ai, a := range s.Aggs {
		var vec *storage.Vec
		if a.InCol >= 0 {
			vec = b.Materialize(a.InCol)
		}
		s.foldColumn(a, nKeys+ai, ents, vec)
	}
	sc.AdoptEnts(ents)
}

// foldColumn folds one aggregate over the whole batch: ents[i] is the
// group entry of row i, vec the argument column (nil for COUNT). The
// (function, argument kind) dispatch happens once; each case is a tight
// loop over the argument column.
func (s *AggHT) foldColumn(a AggCell, cell int, ents []int32, vec *storage.Vec) {
	ht := s.HT
	switch a.Func {
	case expr.AggCount:
		for _, e := range ents {
			ht.SetCell(e, cell, ht.Cell(e, cell)+1)
		}
	case expr.AggSum:
		switch vec.Kind {
		case types.Float64:
			for i, e := range ents {
				cur := math.Float64frombits(ht.Cell(e, cell))
				ht.SetCell(e, cell, math.Float64bits(cur+vec.Floats[i]))
			}
		case types.Int64, types.Date:
			for i, e := range ents {
				cur := math.Float64frombits(ht.Cell(e, cell))
				ht.SetCell(e, cell, math.Float64bits(cur+float64(vec.Ints[i])))
			}
		default:
			panic("exec: string aggregate argument")
		}
	case expr.AggMin:
		if a.Kind == types.Float64 {
			switch vec.Kind {
			case types.Float64:
				for i, e := range ents {
					if v := vec.Floats[i]; v < math.Float64frombits(ht.Cell(e, cell)) {
						ht.SetCell(e, cell, math.Float64bits(v))
					}
				}
			case types.Int64, types.Date:
				for i, e := range ents {
					if v := float64(vec.Ints[i]); v < math.Float64frombits(ht.Cell(e, cell)) {
						ht.SetCell(e, cell, math.Float64bits(v))
					}
				}
			default:
				panic("exec: string aggregate argument")
			}
			return
		}
		ints := vec.Ints
		for i, e := range ents {
			if v := ints[i]; v < int64(ht.Cell(e, cell)) {
				ht.SetCell(e, cell, uint64(v))
			}
		}
	case expr.AggMax:
		if a.Kind == types.Float64 {
			switch vec.Kind {
			case types.Float64:
				for i, e := range ents {
					if v := vec.Floats[i]; v > math.Float64frombits(ht.Cell(e, cell)) {
						ht.SetCell(e, cell, math.Float64bits(v))
					}
				}
			case types.Int64, types.Date:
				for i, e := range ents {
					if v := float64(vec.Ints[i]); v > math.Float64frombits(ht.Cell(e, cell)) {
						ht.SetCell(e, cell, math.Float64bits(v))
					}
				}
			default:
				panic("exec: string aggregate argument")
			}
			return
		}
		ints := vec.Ints
		for i, e := range ents {
			if v := ints[i]; v > int64(ht.Cell(e, cell)) {
				ht.SetCell(e, cell, uint64(v))
			}
		}
	default:
		panic(fmt.Sprintf("exec: cannot fold %v", a.Func))
	}
}

// identityBits returns the fold identity for an aggregate cell.
func identityBits(a AggCell) uint64 {
	switch a.Func {
	case expr.AggSum:
		return types.NewFloat(0).Bits()
	case expr.AggCount:
		return 0
	case expr.AggMin:
		if a.Kind == types.Float64 {
			return types.NewFloat(math.Inf(1)).Bits()
		}
		return uint64(math.MaxInt64)
	case expr.AggMax:
		if a.Kind == types.Float64 {
			return types.NewFloat(math.Inf(-1)).Bits()
		}
		return 1 << 63 // math.MinInt64 reinterpreted as uint64
	}
	panic(fmt.Sprintf("exec: no identity for %v", a.Func))
}

// Finish implements Sink.
func (s *AggHT) Finish() {}

// Inserted reports the number of new groups created.
func (s *AggHT) Inserted() int64 { return s.inserted }

// Updated reports the number of in-place aggregate updates.
func (s *AggHT) Updated() int64 { return s.updated }

// Order is the ORDER BY / LIMIT a Collect applies when it finishes. The
// zero Order keeps every row in arrival order.
type Order struct {
	// Sort orders the rows by collected column Col, descending when
	// Desc; equal keys keep arrival order (a stable sort).
	Sort bool
	Col  int
	Desc bool
	// Limit > 0 keeps only the first Limit rows.
	Limit int
}

// Apply orders and cuts equal-length columns per the Order: under ORDER
// BY a typed permutation (a bounded heap under a LIMIT) picks the
// surviving rows and gathers them into new columns; without it a LIMIT
// keeps the first rows. It never writes cols, but its result may share
// their storage. This is the one ORDER BY / LIMIT implementation: the
// collector applies it.
func (o Order) Apply(cols []storage.Vec) []storage.Vec {
	if len(cols) == 0 {
		return cols
	}
	n := cols[0].Len()
	if !o.Sort {
		if o.Limit <= 0 || o.Limit >= n {
			return cols
		}
		out := slices.Clone(cols)
		for c := range out {
			out[c].Truncate(o.Limit)
		}
		return out
	}
	perm := storage.OrderPerm(n, o.Limit, cols[o.Col].RowOrder(o.Desc))
	out := make([]storage.Vec, len(cols))
	for c := range cols {
		out[c].Kind = cols[c].Kind
		out[c].Grow(len(perm))
		out[c].AppendGather(&cols[c], perm)
	}
	return out
}

// Collect accumulates a query's answer column by column and, at
// Finish, joins it into one exact-size typed vector per column and
// applies the Order. Nothing is boxed; the answer leaves as the columns
// themselves (optimizer.Result.Vecs).
type Collect struct {
	Schema storage.Schema
	Order  Order
	// Cols is the answer, one vector per schema column with the rows in
	// final order; complete after Finish.
	Cols []storage.Vec

	// src is the input column each collected column copies; nil copies
	// every input column in order.
	src []int
	// base is each collected column's base column when it is deferred,
	// else nil. Deferral is a property of the plan — a source defers
	// every batch's columns alike and transforms pass it through column
	// by column — so it is taken from the first batch and every other
	// batch, every worker's included, must match it.
	base []*storage.Column
	// parts holds the consumed batches in arrival order until Finish
	// (backed by first while they fit); n counts their rows (after
	// Finish, the answer's).
	parts []collectPart
	first [4]collectPart
	n     int
}

// collectPart is one consumed batch as Finish will read it: one copy of
// its row ids, read at Finish through base, and an exact-size copy of
// each column that is not deferred. Deferred columns are thus gathered
// once, at Finish, straight into the answer's exact-size vectors.
type collectPart struct {
	ids  []int32
	cols []storage.Vec // nil when every column is deferred
	n    int
}

// NewCollect returns a collect sink whose columns, described by schema,
// copy input columns cols — the query's final projection, applied as
// the rows are collected so that it needs no batch of its own. Nil cols
// collects every input column.
func NewCollect(schema storage.Schema, cols []int, order Order) *Collect {
	s := &Collect{Schema: schema, Order: order, src: cols, Cols: make([]storage.Vec, len(schema))}
	s.parts = s.first[:0]
	for c, m := range schema {
		s.Cols[c].Kind = m.Kind
	}
	return s
}

// Len reports the rows collected so far; after Finish, the answer's.
func (s *Collect) Len() int { return s.n }

// Consume implements Sink: one copy of the row ids for the deferred
// columns and one exact-size typed copy per other column. The same
// input column may be collected more than once. Under a LIMIT without
// ORDER BY the rows past the limit are not kept.
func (s *Collect) Consume(b *storage.Batch) {
	n := b.Len()
	if o := s.Order; !o.Sort && o.Limit > 0 {
		n = min(n, o.Limit-s.n)
	}
	if n <= 0 {
		return
	}
	if s.base == nil {
		s.base = make([]*storage.Column, len(s.Cols))
		for c := range s.Cols {
			s.base[c] = b.Base(s.input(c))
		}
	}
	p := collectPart{n: n}
	for c := range s.Cols {
		ci := s.input(c)
		if b.Base(ci) != s.base[c] {
			panic(fmt.Sprintf("exec: collected column %d changed deferral between batches", c))
		}
		if s.base[c] != nil {
			if p.ids == nil {
				ids, _ := b.IDs()
				p.ids = slices.Clone(ids[:n])
			}
			continue
		}
		if p.cols == nil {
			p.cols = make([]storage.Vec, len(s.Cols))
		}
		dst := &p.cols[c]
		dst.Kind = s.Cols[c].Kind
		dst.Grow(n)
		dst.AppendRange(b.Cols[ci], 0, n)
	}
	s.parts = append(s.parts, p)
	s.n += n
}

// input is the input column collected column c copies.
func (s *Collect) input(c int) int {
	if s.src != nil {
		return s.src[c]
	}
	return c
}

// absorb appends another collector's parts after this one's.
func (s *Collect) absorb(o *Collect) {
	if s.base == nil {
		s.base = o.base
	} else if o.base != nil && !slices.Equal(o.base, s.base) {
		panic("exec: worker collectors differ in deferral")
	}
	s.parts = append(s.parts, o.parts...)
	s.n += o.n
}

// Finish implements Sink: the parts join into one exact-size vector per
// column, stopping at a LIMIT without ORDER BY (a lone part's copy is
// adopted as it is), and the Order is applied.
func (s *Collect) Finish() {
	m := s.n
	if o := s.Order; !o.Sort && o.Limit > 0 {
		m = min(m, o.Limit)
	}
	for c := range s.Cols {
		if p := s.parts; len(p) == 1 && s.base[c] == nil {
			s.Cols[c] = p[0].cols[c]
			continue
		}
		dst := &s.Cols[c]
		dst.Grow(m)
		for _, p := range s.parts {
			k := min(p.n, m-dst.Len())
			if k <= 0 {
				break
			}
			if base := s.base[c]; base != nil {
				dst.AppendColumnGather(base, p.ids[:k])
			} else {
				dst.AppendRange(&p.cols[c], 0, k)
			}
		}
	}
	s.parts = nil
	s.Cols = s.Order.Apply(s.Cols)
	s.n = 0
	if len(s.Cols) > 0 {
		s.n = s.Cols[0].Len()
	}
}

// Multi fans one pipeline out to several sinks (a shared plan's
// grouping spine builds all its grouping tables from one scan).
type Multi struct {
	Sinks []Sink
}

// Consume implements Sink.
func (s *Multi) Consume(b *storage.Batch) {
	for _, sink := range s.Sinks {
		sink.Consume(b)
	}
}

// Finish implements Sink.
func (s *Multi) Finish() {
	for _, sink := range s.Sinks {
		sink.Finish()
	}
}
