package optimizer

import (
	"fmt"
	"slices"

	"hashstash/internal/exec"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/htcache"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
)

// Compiled is an executable form of a planned query.
type Compiled struct {
	Pipelines []*exec.Pipeline
	Out       *exec.Collect
	Columns   []string

	pinned        []*htcache.Entry
	created       []*htcache.Entry
	filterUpdates []filterUpdate
}

// filterUpdate records one copy-on-write widening performed by the
// compiled plan: ht is the private successor of prev (the snapshot the
// plan was classified against), newFilter its content description. On
// successful execution the optimizer publishes it with a
// compare-and-swap; a concurrent widening of the same entry simply wins
// the race and this update is dropped (the query's own results came
// from ht either way).
type filterUpdate struct {
	entry     *htcache.Entry
	prev      *htcache.Snapshot
	ht        *hashtable.Table
	newFilter expr.Box
}

type compiler struct {
	o      *Optimizer
	q      *plan.Query
	needed map[string][]string
	out    *Compiled
	// register controls cache bookkeeping; experiment harnesses disable
	// it to execute sub-plans without polluting the cache.
	register bool
}

// Compile lowers a planned query to pipelines, creating fresh hash
// tables and pinning reused ones.
func (o *Optimizer) Compile(p *Planned) (*Compiled, error) {
	return o.compile(p, true)
}

// CompileDetached compiles without registering fresh tables in the
// cache and without pinning (for isolated sub-plan measurements).
func (o *Optimizer) CompileDetached(p *Planned) (*Compiled, error) {
	return o.compile(p, false)
}

func (o *Optimizer) compile(p *Planned, register bool) (*Compiled, error) {
	c := &compiler{
		o:        o,
		q:        p.Query,
		needed:   o.neededCols(p.Query),
		out:      &Compiled{},
		register: register,
	}
	// Unwind on a returned error and on a panic alike (a faulted
	// revival, or any bug): the caller's recover boundary cannot see
	// what this compile pinned and registered so far.
	ok := false
	defer func() {
		if !ok {
			c.releaseAll()
		}
	}()
	var err error
	if p.Agg == nil {
		err = c.compileSPJRoot(p.Root)
	} else {
		err = c.compileAggRoot(p)
	}
	if err != nil {
		return nil, err
	}
	ok = true
	return c.out, nil
}

// releaseAll unwinds a failed compilation: reused entries are unpinned,
// and tables registered for builds that will now never run are removed
// from the cache — releasing them would publish empty tables as reuse
// candidates.
func (c *compiler) releaseAll() {
	if !c.register {
		return
	}
	for _, e := range c.out.pinned {
		c.o.Cache.Release(e)
	}
	for _, e := range c.out.created {
		c.o.Cache.Abandon(e)
	}
}

// compileStream lowers a node into (source, transforms); build-side
// pipelines are appended to the compiled plan as encountered.
func (c *compiler) compileStream(n *Node) (exec.Source, []exec.Transform, storage.Schema, error) {
	switch n.Kind {
	case nodeScan:
		rel := c.q.Relations[n.RelIdx]
		boxes := n.ScanBoxes
		if boxes == nil {
			boxes = []expr.Box{c.q.FilterFor(rel.Alias)}
		}
		if src := c.tryIndexScan(n, rel, boxes); src != nil {
			return src, nil, src.Schema(), nil
		}
		src, err := exec.NewTableScan(c.o.Cat.Table(rel.Table), rel.Alias, boxes, c.needed[rel.Alias])
		if err != nil {
			return nil, nil, nil, err
		}
		return src, nil, src.Schema(), nil

	case nodeJoin:
		ht, emitCols, emitRefs, err := c.obtainBuildHT(n)
		if err != nil {
			return nil, nil, nil, err
		}
		src, tfs, schema, err := c.compileStream(n.Probe)
		if err != nil {
			return nil, nil, nil, err
		}
		var postFilter expr.Box
		if n.Reuse != nil {
			postFilter = n.Reuse.PostFilter
		}
		probe, err := exec.NewProbe(ht, n.ProbeKeys, emitCols, emitRefs, postFilter, schema)
		if err != nil {
			return nil, nil, nil, err
		}
		tfs = append(tfs, probe)
		return src, tfs, probe.OutSchema(), nil
	}
	return nil, nil, nil, fmt.Errorf("optimizer: unknown node kind %d", n.Kind)
}

// joinLayout constructs the layout of a fresh build-side table:
// deduplicated key columns first, then the remaining needed columns.
func (c *compiler) joinLayout(n *Node) (hashtable.Layout, error) {
	q := c.q
	keysBase := baseQualifyRefs(q, n.BuildKeys)
	neededBase := c.o.requiredBuildCols(q, n.BuildMask, c.needed)
	var cols []storage.ColMeta
	seen := map[storage.ColRef]bool{}
	addRef := func(ref storage.ColRef) error {
		if seen[ref] {
			return nil
		}
		seen[ref] = true
		kind, err := c.o.Cat.Resolve(ref.Table, ref.Column)
		if err != nil {
			return err
		}
		cols = append(cols, storage.ColMeta{Ref: ref, Kind: kind})
		return nil
	}
	nKeys := 0
	for _, k := range keysBase {
		if !seen[k] {
			nKeys++
		}
		if err := addRef(k); err != nil {
			return hashtable.Layout{}, err
		}
	}
	for _, ref := range neededBase {
		if err := addRef(ref); err != nil {
			return hashtable.Layout{}, err
		}
	}
	return hashtable.Layout{Cols: cols, KeyCols: nKeys}, nil
}

// freshBuildHT compiles the build-side sub-plan of a join into a new
// hash table and registers it (the ModeNew path, also the fallback when
// a cold candidate loses its entry between planning and compilation).
func (c *compiler) freshBuildHT(n *Node) (*hashtable.Table, error) {
	q := c.q
	layout, err := c.joinLayout(n)
	if err != nil {
		return nil, err
	}
	ht := hashtable.New(layout)
	bsrc, btfs, bschema, err := c.compileStream(n.Build)
	if err != nil {
		return nil, err
	}
	feed := make([]storage.ColRef, len(layout.Cols))
	for i, m := range layout.Cols {
		feed[i] = storage.ColRef{Table: aliasForTable(q, m.Ref.Table), Column: m.Ref.Column}
	}
	sink, err := exec.NewBuildHT(ht, bschema, feed)
	if err != nil {
		return nil, err
	}
	c.out.Pipelines = append(c.out.Pipelines, &exec.Pipeline{Source: bsrc, Transforms: btfs, Sink: sink})
	if c.register {
		lin := htcache.Lineage{
			Kind:    htcache.JoinBuild,
			Tables:  maskTables(q, n.BuildMask),
			JoinSig: q.SubgraphSignature(n.BuildMask),
			Filter:  q.BaseQualify(n.BuildFilter),
			KeyCols: baseQualifyRefs(q, n.BuildKeys),
			QidCol:  -1,
		}
		c.out.created = append(c.out.created, c.o.Cache.Register(ht, lin))
	}
	return ht, nil
}

// obtainBuildHT prepares the hash table for a join node per its reuse
// decision and returns (table, probe emit layout positions, emit refs).
func (c *compiler) obtainBuildHT(n *Node) (*hashtable.Table, []int, []storage.ColRef, error) {
	q := c.q
	choice := n.Reuse
	var ht *hashtable.Table

	switch choice.Mode {
	case ModeNew:
		var err error
		if ht, err = c.freshBuildHT(n); err != nil {
			return nil, nil, nil, err
		}

	case ModeExact, ModeSubsuming:
		// Probe the snapshot the plan was classified against: frozen,
		// immutable, safe for lock-free probes however many queries widen
		// the entry concurrently. A cold choice has no snapshot yet —
		// revive the entry (rebuild it from its compact spill); if the
		// cold entry was dropped between plan and compile, or the
		// compile is detached (no cache mutations), degrade to the fresh
		// build plan the option carries.
		snap := choice.Snap
		if choice.Cold != nil && snap == nil && c.register {
			if s := c.o.Cache.Revive(choice.Entry, nil); s != nil && s.HT != nil {
				snap = s
			}
		}
		if snap == nil || snap.HT == nil {
			if n.Build == nil {
				return nil, nil, nil, fmt.Errorf("optimizer: cold entry %d unrevivable and no fresh fallback", choice.Entry.ID)
			}
			var err error
			if ht, err = c.freshBuildHT(n); err != nil {
				return nil, nil, nil, err
			}
			break
		}
		ht = snap.HT
		if c.register {
			c.o.Cache.Pin(choice.Entry, choice.SavedCost)
			c.out.pinned = append(c.out.pinned, choice.Entry)
		}

	case ModePartial, ModeOverlapping:
		// Widen the snapshot into a private copy-on-write successor: the
		// residual scan builds the missing tuples into it while other
		// queries keep probing the frozen base it shares.
		ht = choice.Snap.HT.WidenWith(c.o.WidenOptions())
		if c.register {
			c.o.Cache.Pin(choice.Entry, choice.SavedCost)
			c.out.pinned = append(c.out.pinned, choice.Entry)
		}
		relIdx, ok := singleRelation(n.BuildMask)
		if !ok {
			return nil, nil, nil, fmt.Errorf("optimizer: partial join reuse on multi-relation build side")
		}
		rel := q.Relations[relIdx]
		layout := ht.Layout()
		colNames := make([]string, len(layout.Cols))
		feed := make([]storage.ColRef, len(layout.Cols))
		for i, m := range layout.Cols {
			colNames[i] = m.Ref.Column
			feed[i] = storage.ColRef{Table: rel.Alias, Column: m.Ref.Column}
		}
		src, err := exec.NewTableScan(c.o.Cat.Table(rel.Table), rel.Alias, choice.ResidualBoxes, colNames)
		if err != nil {
			return nil, nil, nil, err
		}
		sink, err := exec.NewBuildHT(ht, src.Schema(), feed)
		if err != nil {
			return nil, nil, nil, err
		}
		c.out.Pipelines = append(c.out.Pipelines, &exec.Pipeline{Source: src, Sink: sink})
		if c.register {
			c.out.filterUpdates = append(c.out.filterUpdates, filterUpdate{
				entry: choice.Entry, prev: choice.Snap, ht: ht, newFilter: choice.NewFilter,
			})
		}

	default:
		return nil, nil, nil, fmt.Errorf("optimizer: unknown reuse mode %v", choice.Mode)
	}

	// The probe emits every needed build-side column.
	neededBase := c.o.requiredBuildCols(q, n.BuildMask, c.needed)
	layout := ht.Layout()
	var emitCols []int
	var emitRefs []storage.ColRef
	seen := map[storage.ColRef]bool{}
	for _, ref := range neededBase {
		if seen[ref] {
			continue
		}
		seen[ref] = true
		ci := layout.ColIndex(ref)
		if ci < 0 {
			return nil, nil, nil, fmt.Errorf("optimizer: column %v missing from build table layout", ref)
		}
		emitCols = append(emitCols, ci)
		emitRefs = append(emitRefs, storage.ColRef{Table: aliasForTable(q, ref.Table), Column: ref.Column})
	}
	return ht, emitCols, emitRefs, nil
}

func maskTables(q *plan.Query, mask int) []string {
	var out []string
	for i, rel := range q.Relations {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, rel.Table)
		}
	}
	return out
}

// tryOrderedSource lowers a single-scan top-k query (ORDER BY col
// LIMIT k) to a bounded index-order scan when a cached index on the
// order column exists: the index's permutation IS the sort, so the scan
// walks it (reversed for DESC), filters residually and stops at k rows.
// Indexes are never built just for ordering — only recycled.
func (c *compiler) tryOrderedSource(root *Node) exec.Source {
	q := c.q
	o := c.o
	if o.Opts.NoSecondaryIndexes || q.OrderBy == nil || q.Limit <= 0 || root.Kind != nodeScan {
		return nil
	}
	rel := q.Relations[root.RelIdx]
	if q.OrderBy.Col.Table != rel.Alias {
		return nil
	}
	boxes := root.ScanBoxes
	if boxes == nil {
		boxes = []expr.Box{q.FilterFor(rel.Alias)}
	}
	if len(boxes) != 1 || boxes[0].Empty() {
		return nil
	}
	tbl := o.Cat.Table(rel.Table)
	if tbl == nil {
		return nil
	}
	colBase := storage.ColRef{Table: rel.Table, Column: q.OrderBy.Col.Column}
	entry, tree := o.cachedIndexEntry(colBase)
	if tree == nil {
		return nil
	}
	src, err := exec.NewIndexOrderScan(tbl, rel.Alias, tree, q.OrderBy.Desc, q.Limit, boxes[0], c.needed[rel.Alias])
	if err != nil {
		return nil
	}
	if c.register {
		o.Cache.Pin(entry, 0)
		c.out.pinned = append(c.out.pinned, entry)
	}
	return src
}

// compileSPJRoot terminates a pure SPJ query with projection + collect.
func (c *compiler) compileSPJRoot(root *Node) error {
	var src exec.Source
	var tfs []exec.Transform
	var schema storage.Schema
	ordered := false
	if ord := c.tryOrderedSource(root); ord != nil {
		src, schema = ord, ord.Schema()
		ordered = true
	} else {
		var err error
		src, tfs, schema, err = c.compileStream(root)
		if err != nil {
			return err
		}
	}
	var cols []int
	var names []string
	for _, ref := range c.q.Select {
		i := schema.IndexOf(ref)
		if i < 0 {
			return fmt.Errorf("optimizer: select column %v not produced by plan", ref)
		}
		cols = append(cols, i)
		names = append(names, ref.String())
	}
	if len(cols) == 0 {
		for i, m := range schema {
			cols = append(cols, i)
			names = append(names, m.Ref.String())
		}
	}
	proj, err := exec.NewProject(cols, nil, schema)
	if err != nil {
		return err
	}
	// The bounded index-order scan already emits the rows in ORDER BY
	// order, cut to the LIMIT.
	var order exec.Order
	if !ordered {
		order = c.resultOrder(names)
	}
	collect := exec.NewCollect(proj.OutSchema(), proj.Cols, order)
	c.out.Pipelines = append(c.out.Pipelines, &exec.Pipeline{Source: src, Transforms: tfs, Sink: collect})
	c.out.Out = collect
	c.out.Columns = names
	return nil
}

// resultOrder is the query's ORDER BY / LIMIT over its result columns.
// An ORDER BY column that is not selected orders nothing.
func (c *compiler) resultOrder(names []string) exec.Order {
	order := exec.Order{Limit: c.q.Limit}
	if ob := c.q.OrderBy; ob != nil {
		if i := slices.Index(names, ob.Col.String()); i >= 0 {
			order.Sort, order.Col, order.Desc = true, i, ob.Desc
		}
	}
	return order
}

// aggCellRef names the hash-table cell of a base-qualified spec.
func aggCellRef(s expr.AggSpec) storage.ColRef {
	return storage.ColRef{Column: s.Name()}
}

// aggLayout builds the layout of a fresh aggregation table.
func (c *compiler) aggLayout(agg *AggChoice) (hashtable.Layout, error) {
	var cols []storage.ColMeta
	for _, ref := range agg.GroupBase {
		kind, err := c.o.Cat.Resolve(ref.Table, ref.Column)
		if err != nil {
			return hashtable.Layout{}, err
		}
		cols = append(cols, storage.ColMeta{Ref: ref, Kind: kind})
	}
	for _, s := range agg.Specs {
		cols = append(cols, storage.ColMeta{Ref: aggCellRef(s), Kind: specCellKind(s, c.o.argKind(s))})
	}
	return hashtable.Layout{Cols: cols, KeyCols: len(agg.GroupBase)}, nil
}

// attachAggInput compiles one input plan (full or residual) and sinks it
// into the aggregation table, computing aggregate arguments on the way.
// specs lists the table's cell specs in layout order (base-qualified).
func (c *compiler) attachAggInput(root *Node, ht *hashtable.Table, groupBase []storage.ColRef, specs []expr.AggSpec) error {
	q := c.q
	src, tfs, schema, err := c.compileStream(root)
	if err != nil {
		return err
	}
	cells := make([]exec.AggCell, len(specs))
	for i, s := range specs {
		kind := specCellKind(s, c.o.argKind(s))
		if s.Arg == nil {
			cells[i] = exec.AggCell{Func: s.Func, InCol: -1, Kind: kind}
			continue
		}
		argAlias := aliasQualifyExpr(q, s.Arg)
		// A plain column reference may already flow through the
		// pipeline; otherwise compute it.
		if col, ok := argAlias.(*expr.Col); ok {
			if j := schema.IndexOf(col.Ref); j >= 0 {
				cells[i] = exec.AggCell{Func: s.Func, InCol: j, Kind: kind}
				continue
			}
		}
		ref := storage.ColRef{Column: fmt.Sprintf("_agg%d", i)}
		comp := exec.NewCompute(argAlias, ref, schema)
		tfs = append(tfs, comp)
		schema = comp.OutSchema()
		cells[i] = exec.AggCell{Func: s.Func, InCol: schema.IndexOf(ref), Kind: kind}
	}
	groupAlias := make([]storage.ColRef, len(groupBase))
	for i, ref := range groupBase {
		groupAlias[i] = storage.ColRef{Table: aliasForTable(q, ref.Table), Column: ref.Column}
	}
	sink, err := exec.NewAggHT(ht, groupAlias, cells, schema)
	if err != nil {
		return err
	}
	c.out.Pipelines = append(c.out.Pipelines, &exec.Pipeline{Source: src, Transforms: tfs, Sink: sink})
	return nil
}

// compileAggRoot handles SPJA queries for every aggregation reuse mode.
func (c *compiler) compileAggRoot(p *Planned) error {
	agg := p.Agg
	choice := agg.Choice

	switch choice.Mode {
	case ModeNew:
		return c.compileFreshAgg(p.Root, agg)

	case ModeExact, ModeSubsuming:
		// A cold choice carries no snapshot: revive it here (rebuild it
		// from its compact spill). If the cold entry was dropped
		// meanwhile, or the compile is detached, degrade to the fresh SPJ
		// plan the option carries as fallback.
		snap := choice.Snap
		if choice.Cold != nil && snap == nil && c.register {
			if s := c.o.Cache.Revive(choice.Entry, nil); s != nil && s.HT != nil {
				snap = s
			}
		}
		if snap == nil || snap.HT == nil {
			if agg.FreshRoot == nil {
				return fmt.Errorf("optimizer: cold aggregate entry %d unrevivable and no fresh fallback", choice.Entry.ID)
			}
			fresh := *agg
			fresh.Choice = ReuseChoice{Mode: ModeNew}
			return c.compileFreshAgg(agg.FreshRoot, &fresh)
		}
		if c.register {
			c.o.Cache.Pin(choice.Entry, choice.SavedCost)
			c.out.pinned = append(c.out.pinned, choice.Entry)
		}
		return c.compileReadout(snap.HT, agg, agg.CachedSpecIdx, choice.PostFilter, agg.PostAgg)

	case ModePartial, ModeOverlapping:
		if c.register {
			c.o.Cache.Pin(choice.Entry, choice.SavedCost)
			c.out.pinned = append(c.out.pinned, choice.Entry)
		}
		// Widen the snapshot and fold every residual input into the
		// private successor, updating ALL of its aggregate cells so the
		// whole table stays consistent with its (widened) lineage.
		// Existing groups shadow-promote into the successor's own arena;
		// concurrent probes of the frozen base never see the folds.
		widened := choice.Snap.HT.WidenWith(c.o.WidenOptions())
		for _, rr := range agg.ResidualRoots {
			if err := c.attachAggInput(rr, widened, agg.GroupBase, choice.Entry.Lineage.Aggs); err != nil {
				return err
			}
		}
		if c.register {
			c.out.filterUpdates = append(c.out.filterUpdates, filterUpdate{
				entry: choice.Entry, prev: choice.Snap, ht: widened, newFilter: choice.NewFilter,
			})
		}
		return c.compileReadout(widened, agg, agg.CachedSpecIdx, choice.PostFilter, false)
	}
	return fmt.Errorf("optimizer: unknown aggregation mode %v", choice.Mode)
}

// compileFreshAgg builds a fresh aggregation table from the SPJ plan
// root (the ModeNew path, also the fallback when a cold aggregate loses
// its entry between planning and compilation).
func (c *compiler) compileFreshAgg(root *Node, agg *AggChoice) error {
	layout, err := c.aggLayout(agg)
	if err != nil {
		return err
	}
	ht := hashtable.New(layout)
	if err := c.attachAggInput(root, ht, agg.GroupBase, agg.Specs); err != nil {
		return err
	}
	if c.register {
		c.out.created = append(c.out.created, c.o.Cache.Register(ht, c.aggLineage(agg, c.q.BaseQualify(c.q.Filter))))
	}
	return c.compileReadout(ht, agg, identitySpecIdx(len(agg.Specs)), nil, false)
}

func identitySpecIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func (c *compiler) aggLineage(agg *AggChoice, filter expr.Box) htcache.Lineage {
	q := c.q
	full := (1 << uint(len(q.Relations))) - 1
	return htcache.Lineage{
		Kind:    htcache.Aggregate,
		Tables:  maskTables(q, full),
		JoinSig: q.JoinGraphSignature(),
		Filter:  filter,
		KeyCols: agg.GroupBase,
		GroupBy: agg.GroupBase,
		Aggs:    agg.Specs,
		QidCol:  -1,
	}
}

// mergeFunc maps an aggregate to the function that folds partial
// aggregates during post-aggregation (SUM of sums, SUM of counts, ...).
func mergeFunc(f expr.AggFunc) expr.AggFunc {
	if f == expr.AggCount {
		return expr.AggSum
	}
	return f
}

// compileReadout emits the final pipeline(s): scan the aggregation
// table, optionally post-filter, optionally post-aggregate (group-by
// subset reuse), reconstruct AVGs, project and collect.
func (c *compiler) compileReadout(ht *hashtable.Table, agg *AggChoice, specIdx []int, postFilter expr.Box, postAgg bool) error {
	q := c.q
	layout := ht.Layout()

	// Columns to read: the requested group keys + the required cells.
	var outCols []int
	var outRefs []storage.ColRef
	for _, ref := range agg.GroupBase {
		ci := layout.ColIndex(ref)
		if ci < 0 {
			return fmt.Errorf("optimizer: group column %v missing from cached layout", ref)
		}
		outCols = append(outCols, ci)
		outRefs = append(outRefs, ref)
	}
	nKeysCached := layout.KeyCols
	for i := range agg.Specs {
		ci := nKeysCached + specIdx[i]
		if ci >= len(layout.Cols) {
			return fmt.Errorf("optimizer: aggregate cell %d out of cached layout", ci)
		}
		outCols = append(outCols, ci)
		outRefs = append(outRefs, aggCellRef(agg.Specs[i]))
	}
	src, err := exec.NewHTScan(ht, outCols, outRefs, postFilter)
	if err != nil {
		return err
	}
	schema := src.Schema()
	var tfs []exec.Transform

	if postAgg {
		// Fold the superset grouping down to the requested keys.
		mergedLayout, err := c.aggLayout(agg)
		if err != nil {
			return err
		}
		merged := hashtable.New(mergedLayout)
		cells := make([]exec.AggCell, len(agg.Specs))
		for i, s := range agg.Specs {
			cells[i] = exec.AggCell{
				Func:  mergeFunc(s.Func),
				InCol: schema.MustIndexOf(aggCellRef(s)),
				Kind:  specCellKind(s, c.o.argKind(s)),
			}
		}
		sink, err := exec.NewAggHT(merged, agg.GroupBase, cells, schema)
		if err != nil {
			return err
		}
		c.out.Pipelines = append(c.out.Pipelines, &exec.Pipeline{Source: src, Transforms: tfs, Sink: sink})
		if c.register {
			// The folded table is a genuine aggregation result: cache it.
			c.out.created = append(c.out.created, c.o.Cache.Register(merged, c.aggLineage(agg, c.q.BaseQualify(c.q.Filter))))
		}
		src2, err := exec.NewHTScan(merged, identityCols(len(mergedLayout.Cols)), readoutRefs(agg), nil)
		if err != nil {
			return err
		}
		src = src2
		schema = src.Schema()
		tfs = nil
	}

	// Reconstruct AVGs (sum/count division).
	finalAggRefs := make([]storage.ColRef, len(q.Aggs))
	for i, orig := range q.Aggs {
		si, ci := agg.SrcIdx[i][0], agg.SrcIdx[i][1]
		if orig.Func == expr.AggAvg && si != ci {
			ref := storage.ColRef{Column: fmt.Sprintf("_avg%d", i)}
			div := &expr.Bin{Op: expr.OpDiv,
				L: &expr.Col{Ref: aggCellRef(agg.Specs[si])},
				R: &expr.Col{Ref: aggCellRef(agg.Specs[ci])},
			}
			comp := exec.NewCompute(div, ref, schema)
			tfs = append(tfs, comp)
			schema = comp.OutSchema()
			finalAggRefs[i] = ref
		} else {
			finalAggRefs[i] = aggCellRef(agg.Specs[si])
		}
	}

	// Final projection: select columns then aggregates, renamed.
	var cols []int
	var names []string
	var renames []storage.ColRef
	for _, sel := range q.Select {
		base := baseQualifyRefs(q, []storage.ColRef{sel})[0]
		i := schema.IndexOf(base)
		if i < 0 {
			return fmt.Errorf("optimizer: select column %v not in readout", sel)
		}
		cols = append(cols, i)
		names = append(names, sel.String())
		renames = append(renames, sel)
	}
	for i, orig := range q.Aggs {
		j := schema.IndexOf(finalAggRefs[i])
		if j < 0 {
			return fmt.Errorf("optimizer: aggregate output %v not in readout", finalAggRefs[i])
		}
		cols = append(cols, j)
		names = append(names, orig.Name())
		renames = append(renames, storage.ColRef{Column: orig.Name()})
	}
	proj, err := exec.NewProject(cols, renames, schema)
	if err != nil {
		return err
	}
	collect := exec.NewCollect(proj.OutSchema(), proj.Cols, c.resultOrder(names))
	c.out.Pipelines = append(c.out.Pipelines, &exec.Pipeline{Source: src, Transforms: tfs, Sink: collect})
	c.out.Out = collect
	c.out.Columns = names
	return nil
}

func identityCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// readoutRefs names the merged table's columns for its final scan.
func readoutRefs(agg *AggChoice) []storage.ColRef {
	var refs []storage.ColRef
	refs = append(refs, agg.GroupBase...)
	for _, s := range agg.Specs {
		refs = append(refs, aggCellRef(s))
	}
	return refs
}
