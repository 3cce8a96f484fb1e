package exec

import (
	"fmt"
	"sync/atomic"

	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/storage"
)

// Transform maps an input batch to output batches. Transforms may drop
// rows (filters) or multiply them (probes); the runner takes one output
// batch per transform and reuses it across calls. No call emits more
// than storage.BatchSize rows: a transform whose output for one input
// batch could exceed that emits it over several calls, keeping its
// place in the input batch's scratch (storage.Scratch.Resume).
// Transforms are stateless with respect to the batches they process —
// working buffers and resume points live in the input batch's scratch,
// so one transform instance is safely shared by concurrent morsel
// workers over disjoint batches.
type Transform interface {
	// OutSchema describes the batches the transform emits.
	OutSchema() storage.Schema
	// Apply consumes in and appends to out (already Reset by the
	// runner). It reports more when in has output left: the runner then
	// hands out on and calls Apply again with the same in.
	Apply(in, out *storage.Batch) (more bool)
}

// Filter drops rows not satisfying a predicate box.
type Filter struct {
	matcher *matcher
	schema  storage.Schema
}

// NewFilter binds a box against the input schema, whose string columns
// are codes of dict.
func NewFilter(box expr.Box, in storage.Schema, dict *storage.Dict) (*Filter, error) {
	m, err := bindSchema(box, in, dict)
	if err != nil {
		return nil, err
	}
	return &Filter{matcher: m, schema: in}, nil
}

// OutSchema implements Transform.
func (f *Filter) OutSchema() storage.Schema { return f.schema }

// Apply implements Transform. It materializes every deferred input
// column on entry (the filter's output is eager); the matcher then
// refines a selection vector (one typed kernel per constraint) and the
// surviving rows materialize once per column via gather; no per-row
// Value boxing.
func (f *Filter) Apply(in, out *storage.Batch) bool {
	n := in.Len()
	if n == 0 {
		return false
	}
	for c := range in.Cols {
		in.Materialize(c)
	}
	sel, _ := f.matcher.refine(in, in.Scratch().SeqSel(n), nil)
	switch len(sel) {
	case 0:
	case n:
		for c := range in.Cols {
			out.Cols[c].AppendRange(in.Cols[c], 0, n)
		}
	default:
		for c := range in.Cols {
			out.Cols[c].AppendGather(in.Cols[c], sel)
		}
	}
	return false
}

// Compute appends one computed column to each row.
type Compute struct {
	Expr   expr.Expr
	Ref    storage.ColRef
	schema storage.Schema
	// reads are the input positions the expression reads.
	reads []int
}

// NewCompute constructs a compute transform producing column ref.
func NewCompute(e expr.Expr, ref storage.ColRef, in storage.Schema) *Compute {
	schema := append(storage.Schema{}, in...)
	schema = append(schema, storage.ColMeta{Ref: ref, Kind: e.ResultKind(in)})
	c := &Compute{Expr: e, Ref: ref, schema: schema}
	e.Walk(func(r storage.ColRef) { c.reads = append(c.reads, in.MustIndexOf(r)) })
	return c
}

// OutSchema implements Transform.
func (c *Compute) OutSchema() storage.Schema { return c.schema }

// Apply implements Transform. Only the columns the expression reads
// materialize; deferred input columns pass through deferred, eager ones
// copy wholesale. The computed column evaluates columnar via
// expr.EvalVec (typed loops over whole vectors, scratch intermediates
// from the input batch).
func (c *Compute) Apply(in, out *storage.Batch) bool {
	n := in.Len()
	if n == 0 {
		return false
	}
	for _, ci := range c.reads {
		in.Materialize(ci)
	}
	if ids, ok := in.IDs(); ok {
		out.AppendIDs(ids)
	}
	for ci, v := range in.Cols {
		if base := in.Base(ci); base != nil {
			out.Defer(ci, base)
			continue
		}
		out.Cols[ci].AppendRange(v, 0, n)
	}
	expr.EvalVec(c.Expr, in, out.Cols[len(in.Cols)])
	return false
}

// Project reorders/subsets the columns of a batch and may rename them.
type Project struct {
	Cols   []int
	schema storage.Schema
}

// NewProject builds a projection; outRefs (optional, aligned with cols)
// renames the projected columns.
func NewProject(cols []int, outRefs []storage.ColRef, in storage.Schema) (*Project, error) {
	p := &Project{Cols: cols}
	for i, ci := range cols {
		if ci < 0 || ci >= len(in) {
			return nil, fmt.Errorf("exec: project column %d out of range", ci)
		}
		m := in[ci]
		if outRefs != nil {
			m.Ref = outRefs[i]
		}
		p.schema = append(p.schema, m)
	}
	return p, nil
}

// OutSchema implements Transform.
func (p *Project) OutSchema() storage.Schema { return p.schema }

// Apply implements Transform: deferred columns materialize on entry,
// then one bulk column copy per projected column.
func (p *Project) Apply(in, out *storage.Batch) bool {
	n := in.Len()
	for oi, ci := range p.Cols {
		out.Cols[oi].AppendRange(in.Materialize(ci), 0, n)
	}
	return false
}

// Probe is the probe phase of a (reuse-aware) hash join: each input row
// probes the hash table and joins with every matching entry. The
// post-filter eliminates false positives when the table is reused
// subsumingly or overlappingly, and QidCol/QidInCol restrict matches in
// shared plans.
type Probe struct {
	HT *hashtable.Table
	// KeyCols are input positions forming the probe key, ordered to
	// match the hash table's key columns.
	KeyCols []int
	// EmitCols lists layout positions appended to each output row.
	EmitCols []int
	// QidCol is the layout position of the qid bitmask, or -1.
	QidCol int
	// QidInCol is the input position of the probe side's qid mask, or -1.
	// When both are set, the output mask is the AND of the two and rows
	// with empty masks are dropped; the mask column must be listed in
	// EmitCols or present on the input to be re-emitted.
	QidInCol int

	schema storage.Schema
	// post is the post-filter box bound to the layout (nil accepts
	// every entry). It narrows the match pairs, entries and input rows
	// together, before the qid masks and the gathers.
	post     *matcher
	matches  int64
	filtered int64
}

// NewProbe constructs a probe transform. The output schema is the input
// schema followed by the emitted hash-table columns; emitRefs (optional,
// aligned with emitCols) renames emitted columns — cached tables store
// base-qualified layouts, while pipelines flow alias-qualified columns.
// postFilter (layout refs, nil for none) binds here; every column it
// constrains must be stored in the layout.
func NewProbe(ht *hashtable.Table, keyCols []storage.ColRef, emitCols []int, emitRefs []storage.ColRef, postFilter expr.Box, in storage.Schema) (*Probe, error) {
	layout := ht.Layout()
	if len(keyCols) != layout.KeyCols {
		return nil, fmt.Errorf("exec: probe key has %d columns, table key has %d", len(keyCols), layout.KeyCols)
	}
	if emitRefs != nil && len(emitRefs) != len(emitCols) {
		return nil, fmt.Errorf("exec: emitRefs has %d entries for %d emit columns", len(emitRefs), len(emitCols))
	}
	post, err := bindHT(postFilter, ht)
	if err != nil {
		return nil, err
	}
	p := &Probe{HT: ht, EmitCols: emitCols, QidCol: -1, QidInCol: -1, post: post}
	for _, ref := range keyCols {
		i := in.IndexOf(ref)
		if i < 0 {
			return nil, fmt.Errorf("exec: probe key column %v not in input schema", ref)
		}
		p.KeyCols = append(p.KeyCols, i)
	}
	p.schema = append(storage.Schema{}, in...)
	for ei, ci := range emitCols {
		if ci < 0 || ci >= len(layout.Cols) {
			return nil, fmt.Errorf("exec: probe emit column %d out of range", ci)
		}
		m := layout.Cols[ci]
		if emitRefs != nil {
			m.Ref = emitRefs[ei]
		}
		p.schema = append(p.schema, m)
	}
	return p, nil
}

// OutSchema implements Transform.
func (p *Probe) OutSchema() storage.Schema { return p.schema }

// Apply implements Transform. It is safe to call concurrently from
// several workers over disjoint batches: the probe only reads the
// (immutable) hash table, its working buffers and resume point come
// from the input batch's scratch, and its stat counters are folded in
// atomically.
//
// The probe is batch-at-a-time end to end: keys encode column-wise, the
// hash vector for the whole batch computes in one pass (HashColumns),
// chain heads for the whole batch resolve up front and the chain walks
// run inside hashtable.ProbeHashedFrom (stored hashes screen candidates
// before any key compare), the post-filter (matcher.refine) and the qid
// mask refine the match pairs, and the surviving
// pairs materialize once per column via gather kernels. Of the input,
// only the key columns (and a qid column) are read: the row ids compact
// by the match selection with one int32 gather, deferred columns pass
// through deferred, and the emitted hash-table columns are eager.
//
// One call walks at most storage.BatchSize matches. A batch that fans
// out further stops at its next (input row, chain entry) — the row in
// the scratch's resume point, the entry in its chain cursors — reports
// more, and continues there on the next call, so no output batch
// outgrows one batch however many entries its keys match.
func (p *Probe) Apply(in, out *storage.Batch) bool {
	n := in.Len()
	if n == 0 {
		return false
	}
	sc := in.Scratch()
	// A resumed batch's keys, hashes and chain cursors are still in the
	// scratch from the call that stopped.
	from, resumed := sc.Resume()
	hashes, cur := sc.Hash(n), sc.Cur(n)
	var enc [][]uint64
	if resumed {
		enc = sc.Enc(len(p.KeyCols), n)
	} else {
		enc = encodeCols(in, p.KeyCols, n)
		hashtable.HashColumns(hashes, enc)
		p.HT.ProbeHeads(cur, hashes)
	}

	sel := sc.Sel(n)[:0] // input row of each match
	ents := sc.Ents(n)   // entry of each match
	sel, ents, next := p.HT.ProbeHashedFrom(cur, hashes, enc, from, storage.BatchSize, sel, ents)
	more := next < n
	sc.SetResume(next, more)
	filtered := int64(len(ents))
	ents, sel = p.post.refine(nil, ents, sel)
	filtered -= int64(len(ents))
	var masks []int64 // AND-ed qid mask of each match (shared plans)
	qid := p.QidCol >= 0 && p.QidInCol >= 0
	if qid {
		masks = sc.Masks(len(ents))
		inMasks := in.Materialize(p.QidInCol).Ints
		kept := 0
		for i, e := range ents {
			mask := p.HT.Cell(e, p.QidCol) & uint64(inMasks[sel[i]])
			if mask == 0 {
				continue
			}
			masks = append(masks, int64(mask))
			sel[kept], ents[kept] = sel[i], e
			kept++
		}
		sel, ents = sel[:kept], ents[:kept]
	}
	matches := int64(len(ents))

	if ids, ok := in.IDs(); ok {
		out.AppendIDGather(ids, sel)
	}
	for c := range in.Cols {
		if qid && c == p.QidInCol {
			out.Cols[c].Ints = append(out.Cols[c].Ints, masks...)
			continue
		}
		if base := in.Base(c); base != nil {
			out.Defer(c, base)
			continue
		}
		out.Cols[c].AppendGather(in.Cols[c], sel)
	}
	for oi, ci := range p.EmitCols {
		p.HT.AppendColumn(out.Cols[len(in.Cols)+oi], ci, ents)
	}
	// Probes that fan out grow the match buffers past the input's row
	// count; hand them back so later calls reuse the larger ones.
	sc.AdoptSel(sel)
	sc.AdoptEnts(ents)
	if qid {
		sc.AdoptMasks(masks)
	}
	if matches > 0 {
		atomic.AddInt64(&p.matches, matches)
	}
	if filtered > 0 {
		atomic.AddInt64(&p.filtered, filtered)
	}
	return more
}

// Matches reports the number of join matches produced; morsel workers
// update the counter atomically.
func (p *Probe) Matches() int64 { return atomic.LoadInt64(&p.matches) }

// FilteredOut reports post-filtered false positives (subsuming reuse).
func (p *Probe) FilteredOut() int64 { return atomic.LoadInt64(&p.filtered) }
