package storage

import (
	"fmt"
	"slices"

	"hashstash/internal/types"
)

// BatchSize is the number of rows processed per pipeline step. 1024 rows
// keeps per-batch column vectors inside the L1/L2 caches for typical
// widths, mirroring vectorized engines.
const BatchSize = 1024

// Vec is a column vector of intermediate results. Unlike Column it is a
// transient, reusable buffer.
type Vec struct {
	Kind   types.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
}

// NewVec returns an empty vector of the given kind with capacity for one
// batch.
func NewVec(kind types.Kind) *Vec {
	v := &Vec{Kind: kind}
	switch kind {
	case types.Int64, types.Date:
		v.Ints = make([]int64, 0, BatchSize)
	case types.Float64:
		v.Floats = make([]float64, 0, BatchSize)
	case types.String:
		v.Strs = make([]string, 0, BatchSize)
	}
	return v
}

// Reset truncates the vector to zero length, keeping capacity.
func (v *Vec) Reset() {
	v.Ints = v.Ints[:0]
	v.Floats = v.Floats[:0]
	v.Strs = v.Strs[:0]
}

// Truncate keeps the first n rows (n <= Len), keeping capacity.
func (v *Vec) Truncate(n int) {
	switch v.Kind {
	case types.Int64, types.Date:
		v.Ints = v.Ints[:n]
	case types.Float64:
		v.Floats = v.Floats[:n]
	case types.String:
		v.Strs = v.Strs[:n]
	}
}

// Len reports the vector length.
func (v *Vec) Len() int {
	switch v.Kind {
	case types.Int64, types.Date:
		return len(v.Ints)
	case types.Float64:
		return len(v.Floats)
	case types.String:
		return len(v.Strs)
	}
	return 0
}

// Append adds one value of the vector's kind.
func (v *Vec) Append(val types.Value) {
	switch v.Kind {
	case types.Int64, types.Date:
		v.Ints = append(v.Ints, val.I)
	case types.Float64:
		v.Floats = append(v.Floats, val.F)
	case types.String:
		v.Strs = append(v.Strs, val.S)
	}
}

// AppendFrom copies row i of the source column into the vector.
func (v *Vec) AppendFrom(c *Column, i int32) {
	switch v.Kind {
	case types.Int64, types.Date:
		v.Ints = append(v.Ints, c.Ints[i])
	case types.Float64:
		v.Floats = append(v.Floats, c.Floats[i])
	case types.String:
		v.Strs = append(v.Strs, c.Strs[i])
	}
}

// AppendRange bulk-appends rows [start, end) of a source vector of the
// same kind. The kind dispatch happens once; the copy is one contiguous
// memmove per data slice.
func (v *Vec) AppendRange(src *Vec, start, end int) {
	switch v.Kind {
	case types.Int64, types.Date:
		v.Ints = append(v.Ints, src.Ints[start:end]...)
	case types.Float64:
		v.Floats = append(v.Floats, src.Floats[start:end]...)
	case types.String:
		v.Strs = append(v.Strs, src.Strs[start:end]...)
	}
}

// AppendGather appends the selected rows of a source vector of the same
// kind, in selection order. This is the single materialization point of
// a selection vector: operators mark surviving rows and gather once,
// instead of copying every column row by row.
func (v *Vec) AppendGather(src *Vec, sel []int32) {
	switch v.Kind {
	case types.Int64, types.Date:
		data := src.Ints
		for _, i := range sel {
			v.Ints = append(v.Ints, data[i])
		}
	case types.Float64:
		data := src.Floats
		for _, i := range sel {
			v.Floats = append(v.Floats, data[i])
		}
	case types.String:
		data := src.Strs
		for _, i := range sel {
			v.Strs = append(v.Strs, data[i])
		}
	}
}

// AppendColumnRange bulk-appends rows [start, end) of a base-table
// column of the same kind.
func (v *Vec) AppendColumnRange(c *Column, start, end int32) {
	src := c.view()
	v.AppendRange(&src, int(start), int(end))
}

// AppendColumnGather appends the selected rows of a base-table column of
// the same kind, in selection order.
func (v *Vec) AppendColumnGather(c *Column, sel []int32) {
	src := c.view()
	v.AppendGather(&src, sel)
}

// AppendRepeat appends n copies of a value of the vector's kind.
func (v *Vec) AppendRepeat(val types.Value, n int) {
	switch v.Kind {
	case types.Int64, types.Date:
		for i := 0; i < n; i++ {
			v.Ints = append(v.Ints, val.I)
		}
	case types.Float64:
		for i := 0; i < n; i++ {
			v.Floats = append(v.Floats, val.F)
		}
	case types.String:
		for i := 0; i < n; i++ {
			v.Strs = append(v.Strs, val.S)
		}
	}
}

// Grow makes room for n more rows without reallocating.
func (v *Vec) Grow(n int) {
	switch v.Kind {
	case types.Int64, types.Date:
		v.Ints = slices.Grow(v.Ints, n)
	case types.Float64:
		v.Floats = slices.Grow(v.Floats, n)
	case types.String:
		v.Strs = slices.Grow(v.Strs, n)
	}
}

// RowOrder returns a total order over the vector's row ids: by value,
// descending when desc, ties to the lower row id — the order a stable
// sort leaves rows in. Values compare like types.Value.Compare (so a
// NaN ties with everything and falls back to its row id).
func (v *Vec) RowOrder(desc bool) func(a, b int32) int {
	switch v.Kind {
	case types.Int64, types.Date:
		return rowOrder(v.Ints, desc)
	case types.Float64:
		return rowOrder(v.Floats, desc)
	case types.String:
		return rowOrder(v.Strs, desc)
	}
	panic("storage: bad vec kind")
}

func rowOrder[T int64 | float64 | string](keys []T, desc bool) func(a, b int32) int {
	if desc {
		return func(a, b int32) int {
			switch x, y := keys[a], keys[b]; {
			case x > y:
				return -1
			case x < y:
				return 1
			}
			return int(a) - int(b)
		}
	}
	return func(a, b int32) int {
		switch x, y := keys[a], keys[b]; {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return int(a) - int(b)
	}
}

// Value returns the value at row i.
func (v *Vec) Value(i int) types.Value {
	switch v.Kind {
	case types.Int64:
		return types.NewInt(v.Ints[i])
	case types.Date:
		return types.NewDate(v.Ints[i])
	case types.Float64:
		return types.NewFloat(v.Floats[i])
	case types.String:
		return types.NewString(v.Strs[i])
	}
	panic("storage: bad vec kind")
}

// ColRef names a column flowing through a pipeline: the originating table
// alias plus the column name. Computed columns use an empty Table and a
// synthetic name.
type ColRef struct {
	Table  string
	Column string
}

// String renders the reference as table.column.
func (r ColRef) String() string {
	if r.Table == "" {
		return r.Column
	}
	return r.Table + "." + r.Column
}

// ColMeta couples a column reference with its kind.
type ColMeta struct {
	Ref  ColRef
	Kind types.Kind
}

// Schema describes the columns of a Batch, in order.
type Schema []ColMeta

// IndexOf returns the position of ref in the schema, or -1.
func (s Schema) IndexOf(ref ColRef) int {
	for i, m := range s {
		if m.Ref == ref {
			return i
		}
	}
	return -1
}

// MustIndexOf is IndexOf but panics when the reference is absent; plan
// compilation uses it for references that were validated earlier.
func (s Schema) MustIndexOf(ref ColRef) int {
	i := s.IndexOf(ref)
	if i < 0 {
		panic(fmt.Sprintf("storage: schema has no column %v (schema %v)", ref, s))
	}
	return i
}

// Scratch holds the reusable working buffers of vectorized operators:
// selection vectors, hash vectors, encoded key columns and expression
// intermediates. Each buffer is valid only for the duration of one
// operator call — the next operator touching the batch may reuse it.
// Scratch is owned by its batch, and batches are owned by one worker at
// a time, so none of this synchronizes.
type Scratch struct {
	sel   []int32
	ents  []int32
	cur   []int32
	hash  []uint64
	masks []int64
	miss  []bool
	enc   [][]uint64
	f64   [][]float64
}

// Sel returns the selection-vector buffer with length n (contents
// unspecified).
func (s *Scratch) Sel(n int) []int32 {
	if cap(s.sel) < n {
		s.sel = make([]int32, n, grow(n))
	}
	s.sel = s.sel[:n]
	return s.sel
}

// SeqSel returns the selection vector [0, 1, ..., n-1] — the identity
// selection that constraint kernels refine in place.
func (s *Scratch) SeqSel(n int) []int32 {
	sel := s.Sel(n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// Ents returns a second int32 buffer (entry indices of probe matches),
// independent of Sel, with length 0 and capacity ≥ n.
func (s *Scratch) Ents(n int) []int32 {
	if cap(s.ents) < n {
		s.ents = make([]int32, 0, grow(n))
	}
	return s.ents[:0]
}

// Cur returns a third int32 buffer (per-row chain cursors of batched
// hash-table probes), independent of Sel and Ents, with length n
// (contents unspecified).
func (s *Scratch) Cur(n int) []int32 {
	if cap(s.cur) < n {
		s.cur = make([]int32, n, grow(n))
	}
	s.cur = s.cur[:n]
	return s.cur
}

// Hash returns the per-row hash buffer with length n.
func (s *Scratch) Hash(n int) []uint64 {
	if cap(s.hash) < n {
		s.hash = make([]uint64, n, grow(n))
	}
	s.hash = s.hash[:n]
	return s.hash
}

// Masks returns an int64 buffer (qid bitmasks) with length 0 and
// capacity ≥ n.
func (s *Scratch) Masks(n int) []int64 {
	if cap(s.masks) < n {
		s.masks = make([]int64, 0, grow(n))
	}
	return s.masks[:0]
}

// MasksN returns the qid bitmask buffer with length n, zeroed.
func (s *Scratch) MasksN(n int) []int64 {
	if cap(s.masks) < n {
		s.masks = make([]int64, n, grow(n))
	}
	s.masks = s.masks[:n]
	for i := range s.masks {
		s.masks[i] = 0
	}
	return s.masks
}

// Miss returns the string-key miss buffer with length n, cleared to
// false.
func (s *Scratch) Miss(n int) []bool {
	if cap(s.miss) < n {
		s.miss = make([]bool, n, grow(n))
	}
	s.miss = s.miss[:n]
	for i := range s.miss {
		s.miss[i] = false
	}
	return s.miss
}

// Enc returns k encoded-cell columns of length n each (contents
// unspecified). The k columns are stable across calls with the same or
// smaller k.
func (s *Scratch) Enc(k, n int) [][]uint64 {
	for len(s.enc) < k {
		s.enc = append(s.enc, nil)
	}
	for i := 0; i < k; i++ {
		if cap(s.enc[i]) < n {
			s.enc[i] = make([]uint64, n, grow(n))
		}
		s.enc[i] = s.enc[i][:n]
	}
	return s.enc[:k]
}

// Floats returns the float64 scratch at the given expression-tree depth
// with length n — the intermediate buffers of vectorized expression
// evaluation. Buffers at distinct depths never alias.
func (s *Scratch) Floats(depth, n int) []float64 {
	for len(s.f64) <= depth {
		s.f64 = append(s.f64, nil)
	}
	if cap(s.f64[depth]) < n {
		s.f64[depth] = make([]float64, n, grow(n))
	}
	s.f64[depth] = s.f64[depth][:n]
	return s.f64[depth]
}

// AdoptSel hands a grown selection buffer back to the scratch so its
// capacity is kept for subsequent batches (probes can emit more matches
// than input rows, growing the buffer past its initial capacity).
func (s *Scratch) AdoptSel(sel []int32) { s.sel = sel }

// AdoptEnts hands a grown entry buffer back to the scratch.
func (s *Scratch) AdoptEnts(ents []int32) { s.ents = ents }

// AdoptMasks hands a grown mask buffer back to the scratch.
func (s *Scratch) AdoptMasks(masks []int64) { s.masks = masks }

// grow rounds scratch capacities up to at least one batch so steady-state
// pipelines never reallocate.
func grow(n int) int {
	if n < BatchSize {
		return BatchSize
	}
	return n
}

// Batch is a set of equal-length columns described by a Schema. A
// column is either eager, its Vec holding the rows, or deferred: a base
// column read at the batch's row ids. Scans defer every column and
// write the ids of the rows that pass their filter; each consumer
// gathers only the columns it reads, and only for the rows still alive
// when it reads them (late materialization). A pipeline streams one
// base relation, so one id vector serves every deferred column. An id
// names the same value for the life of the batch: base columns are
// append-only, and appends never run concurrently with queries.
type Batch struct {
	Schema Schema
	Cols   []*Vec

	// ids are the base row ids of the batch's rows when hasIDs is set.
	ids    []int32
	hasIDs bool
	// base[c] is column c's base column when it is deferred, else nil;
	// gathered[c] records that Cols[c] already holds base[c] at ids.
	base     []*Column
	gathered []bool

	scratch Scratch
}

// NewBatch allocates a batch matching the schema.
func NewBatch(schema Schema) *Batch {
	b := &Batch{
		Schema:   schema,
		Cols:     make([]*Vec, len(schema)),
		base:     make([]*Column, len(schema)),
		gathered: make([]bool, len(schema)),
	}
	for i, m := range schema {
		b.Cols[i] = NewVec(m.Kind)
	}
	return b
}

// Scratch returns the batch's reusable working buffers. Operators that
// read the batch may use them for the duration of one call.
func (b *Batch) Scratch() *Scratch { return &b.scratch }

// Len reports the row count of the batch: the id count when the batch
// carries row ids, else the length of its first column.
func (b *Batch) Len() int {
	if b.hasIDs {
		return len(b.ids)
	}
	if len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// Reset truncates all vectors and clears the row ids and deferrals.
func (b *Batch) Reset() {
	for c, v := range b.Cols {
		v.Reset()
		b.base[c] = nil
		b.gathered[c] = false
	}
	b.ids = b.ids[:0]
	b.hasIDs = false
}

// IDs returns the base row ids of the batch's rows and whether the
// batch carries any.
func (b *Batch) IDs() ([]int32, bool) { return b.ids, b.hasIDs }

// AppendIDs appends row ids.
func (b *Batch) AppendIDs(ids []int32) {
	b.ids = append(b.ids, ids...)
	b.hasIDs = true
}

// AppendIDRange appends the consecutive row ids [lo, hi).
func (b *Batch) AppendIDRange(lo, hi int32) {
	for id := lo; id < hi; id++ {
		b.ids = append(b.ids, id)
	}
	b.hasIDs = true
}

// AppendIDGather appends ids[sel[i]] for every i, in selection order: a
// probe compacting (and, for multi-matches, repeating) its input's ids
// with one int32 gather instead of one gather per column.
func (b *Batch) AppendIDGather(ids, sel []int32) {
	for _, i := range sel {
		b.ids = append(b.ids, ids[i])
	}
	b.hasIDs = true
}

// Defer makes column c a deferred read of base column col at the
// batch's row ids, which the caller appends.
func (b *Batch) Defer(c int, col *Column) { b.base[c] = col }

// Base returns column c's base column when the column is deferred, or
// nil when it is eager. A consumer that reads a deferred column once
// may read col at IDs directly instead of materializing it.
func (b *Batch) Base(c int) *Column { return b.base[c] }

// Materialize returns column c as a vector, gathering a deferred
// column from its base column at the row ids on the first call.
func (b *Batch) Materialize(c int) *Vec {
	if col := b.base[c]; col != nil && !b.gathered[c] {
		b.Cols[c].AppendColumnGather(col, b.ids)
		b.gathered[c] = true
	}
	return b.Cols[c]
}
