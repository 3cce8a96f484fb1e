package storage

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"hashstash/internal/types"
)

// BatchSize is the most rows a batch inside a pipeline holds. 1024 rows
// keeps per-batch column vectors inside the L1/L2 caches for typical
// widths, mirroring vectorized engines. Sources fill at most BatchSize
// rows per batch, and a transform that multiplies rows (a join probe)
// spreads one input batch's output over several calls, so every vector
// and scratch buffer of a pipeline stays within it.
const BatchSize = 1024

// minCap is the first capacity of a growing vector or scratch buffer:
// buffers start empty and double from here, up to the rows they
// receive.
const minCap = 16

// growCap is the capacity a buffer of capacity old grows to when it
// must hold n elements: double old, at least minCap and n, and no more
// than BatchSize while n fits in one batch.
func growCap(old, n int) int {
	c := max(n, 2*old, minCap)
	if n <= BatchSize {
		c = min(c, BatchSize)
	}
	return c
}

// extend returns s with room for n more elements, growing by growCap.
func extend[T any](s []T, n int) []T {
	need := len(s) + n
	if need <= cap(s) {
		return s
	}
	out := make([]T, len(s), growCap(cap(s), need))
	copy(out, s)
	return out
}

// gather appends src[i] for every i in sel to dst.
func gather[T any](dst, src []T, sel []int32) []T {
	n := len(dst)
	dst = extend(dst, len(sel))[:n+len(sel)]
	out := dst[n:]
	for k, i := range sel {
		out[k] = src[i]
	}
	return dst
}

// Vec is a column vector of intermediate results. Unlike Column it is a
// transient, reusable buffer. A string vector holds codes of Dict in
// Strs; it takes the dictionary of the rows it receives.
type Vec struct {
	Kind   types.Kind
	Ints   []int64
	Floats []float64
	Strs   []uint32
	Dict   *Dict
}

// UseDict points a string vector at d, the dictionary of the rows it
// is about to receive. Rows coded against two dictionaries cannot share
// a vector.
func (v *Vec) UseDict(d *Dict) {
	if v.Dict != d {
		if v.Dict != nil && len(v.Strs) > 0 {
			panic("storage: string vector mixes two dictionaries")
		}
		v.Dict = d
	}
}

// intern returns s's code in the vector's dictionary, giving the vector
// a dictionary of its own when it has none. It writes the dictionary,
// so it must not run while queries read it.
func (v *Vec) intern(s string) uint32 {
	if v.Dict == nil {
		v.Dict = NewDict()
	}
	return v.Dict.Intern(s)
}

// NewVec returns an empty vector of the given kind. It allocates no
// storage: the vector grows with the rows appended to it.
func NewVec(kind types.Kind) *Vec {
	return &Vec{Kind: kind}
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

// Append adds one value of the vector's kind. A string is interned
// into the vector's dictionary (see intern).
func (v *Vec) Append(val types.Value) {
	switch v.Kind {
	case types.Int64, types.Date:
		v.Ints = append(v.Ints, val.I)
	case types.Float64:
		v.Floats = append(v.Floats, val.F)
	case types.String:
		v.Strs = append(v.Strs, v.intern(val.S))
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
		v.UseDict(c.Dict)
		v.Strs = append(v.Strs, c.Strs[i])
	}
}

// AppendRange bulk-appends rows [start, end) of a source vector of the
// same kind. The kind dispatch happens once; the copy is one contiguous
// memmove per data slice.
func (v *Vec) AppendRange(src *Vec, start, end int) {
	switch v.Kind {
	case types.Int64, types.Date:
		v.Ints = append(extend(v.Ints, end-start), src.Ints[start:end]...)
	case types.Float64:
		v.Floats = append(extend(v.Floats, end-start), src.Floats[start:end]...)
	case types.String:
		v.UseDict(src.Dict)
		v.Strs = append(extend(v.Strs, end-start), src.Strs[start:end]...)
	}
}

// AppendGather appends the selected rows of a source vector of the same
// kind, in selection order. This is the single materialization point of
// a selection vector: operators mark surviving rows and gather once,
// instead of copying every column row by row.
func (v *Vec) AppendGather(src *Vec, sel []int32) {
	switch v.Kind {
	case types.Int64, types.Date:
		v.Ints = gather(v.Ints, src.Ints, sel)
	case types.Float64:
		v.Floats = gather(v.Floats, src.Floats, sel)
	case types.String:
		v.UseDict(src.Dict)
		v.Strs = gather(v.Strs, src.Strs, sel)
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
		v.Ints = extend(v.Ints, n)
		for i := 0; i < n; i++ {
			v.Ints = append(v.Ints, val.I)
		}
	case types.Float64:
		v.Floats = extend(v.Floats, n)
		for i := 0; i < n; i++ {
			v.Floats = append(v.Floats, val.F)
		}
	case types.String:
		code := v.intern(val.S)
		v.Strs = extend(v.Strs, n)
		for i := 0; i < n; i++ {
			v.Strs = append(v.Strs, code)
		}
	}
}

// Grow makes room for exactly n more rows without reallocating (the
// bulk appends grow by growCap instead).
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
// sort leaves rows in. Values compare like types.Value.Compare: a NaN
// sorts above +Inf and ties only with NaN, and strings compare by
// their text, never by their codes.
func (v *Vec) RowOrder(desc bool) func(a, b int32) int {
	switch v.Kind {
	case types.Int64, types.Date:
		return rowOrder(v.Ints, desc)
	case types.Float64:
		return rowOrder(v.Floats, desc)
	case types.String:
		return codeOrder(v.Strs, v.Dict, desc)
	}
	panic("storage: bad vec kind")
}

// rowOrder is RowOrder over numeric keys. The comparisons are
// types.CompareNum's, written out so that the sort's closure calls
// nothing: x != x holds only for NaN, and never for an integer.
func rowOrder[T int64 | float64](keys []T, desc bool) func(a, b int32) int {
	if desc {
		return func(a, b int32) int {
			switch x, y := keys[a], keys[b]; {
			case x > y, x != x && y == y:
				return -1
			case x < y, y != y && x == x:
				return 1
			}
			return int(a) - int(b)
		}
	}
	return func(a, b int32) int {
		switch x, y := keys[a], keys[b]; {
		case x < y, y != y && x == x:
			return -1
		case x > y, x != x && y == y:
			return 1
		}
		return int(a) - int(b)
	}
}

// codeOrder is rowOrder over string codes: equal codes tie without a
// lookup, others compare their strings.
func codeOrder(codes []uint32, d *Dict, desc bool) func(a, b int32) int {
	sign := 1
	if desc {
		sign = -1
	}
	return func(a, b int32) int {
		if x, y := codes[a], codes[b]; x != y {
			if c := strings.Compare(d.At(x), d.At(y)); c != 0 {
				return sign * c
			}
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
		return types.NewString(v.Dict.At(v.Strs[i]))
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
// operator call — the next operator touching the batch may reuse it —
// except while a resumable transform spreads the batch's output over
// several calls (Resume): its buffers then keep their contents until it
// finishes. Buffers start empty and grow with the rows asked for.
// Scratch is owned by its batch, and batches are owned by one worker at
// a time, so none of this synchronizes.
type Scratch struct {
	sel   []int32
	ents  []int32
	cur   []int32
	hash  []uint64
	masks []int64
	enc   [][]uint64
	f64   [][]float64

	// resumeRow is the input row a resumable transform continues at
	// when resuming is set.
	resumeRow int
	resuming  bool
}

// sized returns buf with length n, growing it by growCap when its
// capacity is short (contents unspecified; kept while capacity
// suffices).
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, growCap(cap(buf), n))
	}
	return buf[:n]
}

// Sel returns the selection-vector buffer with length n (contents
// unspecified).
func (s *Scratch) Sel(n int) []int32 {
	s.sel = sized(s.sel, n)
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
	s.ents = sized(s.ents, n)
	return s.ents[:0]
}

// Cur returns a third int32 buffer (per-row chain cursors of batched
// hash-table probes), independent of Sel and Ents, with length n
// (contents unspecified).
func (s *Scratch) Cur(n int) []int32 {
	s.cur = sized(s.cur, n)
	return s.cur
}

// Hash returns the per-row hash buffer with length n (contents
// unspecified).
func (s *Scratch) Hash(n int) []uint64 {
	s.hash = sized(s.hash, n)
	return s.hash
}

// Masks returns an int64 buffer (qid bitmasks) with length 0 and
// capacity ≥ n.
func (s *Scratch) Masks(n int) []int64 {
	s.masks = sized(s.masks, n)
	return s.masks[:0]
}

// MasksN returns the qid bitmask buffer with length n, zeroed.
func (s *Scratch) MasksN(n int) []int64 {
	s.masks = sized(s.masks, n)
	clear(s.masks)
	return s.masks
}

// Enc returns k encoded-cell columns of length n each (contents
// unspecified). The k columns are stable across calls with the same or
// smaller k.
func (s *Scratch) Enc(k, n int) [][]uint64 {
	for len(s.enc) < k {
		s.enc = append(s.enc, nil)
	}
	for i := 0; i < k; i++ {
		s.enc[i] = sized(s.enc[i], n)
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
	s.f64[depth] = sized(s.f64[depth], n)
	return s.f64[depth]
}

// AdoptSel hands a grown selection buffer back to the scratch so its
// capacity is kept for subsequent batches.
func (s *Scratch) AdoptSel(sel []int32) { s.sel = sel }

// AdoptEnts hands a grown entry buffer back to the scratch.
func (s *Scratch) AdoptEnts(ents []int32) { s.ents = ents }

// AdoptMasks hands a grown mask buffer back to the scratch.
func (s *Scratch) AdoptMasks(masks []int64) { s.masks = masks }

// Resume reports where a resumable transform stopped in this batch: the
// input row it continues at, and whether it stopped before the batch's
// end.
func (s *Scratch) Resume() (row int, ok bool) { return s.resumeRow, s.resuming }

// SetResume records that a resumable transform stopped before the
// batch's end and continues at row (ok true), or that it finished (ok
// false; Resume then reports row 0).
func (s *Scratch) SetResume(row int, ok bool) {
	if !ok {
		row = 0
	}
	s.resumeRow, s.resuming = row, ok
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

// batchPool recycles batch shells across pipelines and queries. A
// pooled shell holds no rows, deferrals or pointers into data (Release
// clears them); it keeps the capacity of its vectors, of its column
// slices and of its scratch buffers.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// NewBatch returns an empty batch matching the schema. It reuses a
// pooled shell when one is free: its column kinds are reset to the
// schema's, and its vectors and scratch buffers keep whatever capacity
// earlier batches grew them to. Otherwise nothing is allocated up
// front beyond the column slices; vectors and buffers grow with the
// rows they receive. Hand the batch back with Release once nothing
// reads it.
func NewBatch(schema Schema) *Batch {
	b := batchPool.Get().(*Batch)
	b.reshape(schema)
	return b
}

// reshape empties a batch shell and lays it out for schema, reusing its
// vectors and column slices.
func (b *Batch) reshape(schema Schema) {
	n := len(schema)
	if cap(b.Cols) < n {
		b.Cols = append(b.Cols[:cap(b.Cols)], make([]*Vec, n-cap(b.Cols))...)
	}
	if cap(b.base) < n {
		b.base = make([]*Column, n)
		b.gathered = make([]bool, n)
	}
	b.Schema = schema
	b.Cols, b.base, b.gathered = b.Cols[:n], b.base[:n], b.gathered[:n]
	for i, m := range schema {
		v := b.Cols[i]
		if v == nil {
			v = &Vec{}
			b.Cols[i] = v
		}
		v.Kind = m.Kind
	}
	b.Reset()
}

// Release hands the batch back to the pool for a later NewBatch. It
// first clears every dictionary, base-column pointer and row id, so a
// pooled shell pins no table or dictionary. The caller must not touch
// the batch afterwards.
func (b *Batch) Release() {
	for _, v := range b.Cols {
		v.Dict = nil
	}
	b.Reset()
	b.Schema = nil
	batchPool.Put(b)
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

// Reset truncates all vectors and clears the row ids, deferrals and any
// resume point.
func (b *Batch) Reset() {
	for c, v := range b.Cols {
		v.Reset()
		b.base[c] = nil
		b.gathered[c] = false
	}
	b.ids = b.ids[:0]
	b.hasIDs = false
	b.scratch.SetResume(0, false)
}

// IDs returns the base row ids of the batch's rows and whether the
// batch carries any.
func (b *Batch) IDs() ([]int32, bool) { return b.ids, b.hasIDs }

// AppendIDs appends row ids.
func (b *Batch) AppendIDs(ids []int32) {
	b.ids = append(extend(b.ids, len(ids)), ids...)
	b.hasIDs = true
}

// AppendIDRange appends the consecutive row ids [lo, hi).
func (b *Batch) AppendIDRange(lo, hi int32) {
	b.ids = extend(b.ids, int(hi-lo))
	for id := lo; id < hi; id++ {
		b.ids = append(b.ids, id)
	}
	b.hasIDs = true
}

// AppendIDGather appends ids[sel[i]] for every i, in selection order: a
// probe compacting (and, for multi-matches, repeating) its input's ids
// with one int32 gather instead of one gather per column.
func (b *Batch) AppendIDGather(ids, sel []int32) {
	b.ids = gather(b.ids, ids, sel)
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
