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
	"hashstash/internal/types"
)

// compiledPlan is an executable form of a planned query.
type compiledPlan struct {
	Pipelines []*exec.Pipeline
	// outs holds one answer per query: one for a solo plan, one per
	// member for a shared plan.
	outs []output

	pinned        []*htcache.Entry
	created       []*htcache.Entry
	filterUpdates []filterUpdate
	// decisions logs a shared plan's reuse decisions, one per join and
	// grouping table, as they are made at compile time; nil for a solo
	// plan, whose decisions are its Planned's.
	decisions []Decision
}

// output is one query's answer in a compiled plan: the columns collect
// gathers, or — for a member of a shared SPJ plan, whose spine is
// collected once — the collected rows whose qid column (qid) carries
// bit, projected onto sel.
type output struct {
	collect *exec.Collect
	columns []string
	bit     uint64
	qid     int
	sel     []int
}

// cols returns the output's answer columns once its pipelines ran. A
// shared-plan member gathers the rows carrying its bit; when every row
// does, it shares the spine's columns.
func (out *output) cols() []storage.Vec {
	spine := out.collect.Cols
	if out.bit == 0 {
		return spine
	}
	qids := spine[out.qid].Ints
	var rows []int32
	for r, m := range qids {
		if uint64(m)&out.bit != 0 {
			rows = append(rows, int32(r))
		}
	}
	cols := make([]storage.Vec, len(out.sel))
	for i, j := range out.sel {
		if len(rows) == len(qids) {
			cols[i] = spine[j]
			continue
		}
		cols[i].Kind = spine[j].Kind
		cols[i].Grow(len(rows))
		cols[i].AppendGather(&spine[j], rows)
	}
	return cols
}

// filterUpdate records one widening performed by the compiled plan: ht
// is the private copy of prev (the snapshot the plan was classified
// against), newFilter its content description. On successful execution
// the optimizer publishes it with a compare-and-swap; a concurrent
// widening of the same entry simply wins the race and this update is
// dropped (the query's own results came from ht either way).
type filterUpdate struct {
	entry     *htcache.Entry
	prev      *htcache.Snapshot
	ht        *hashtable.Table
	newFilter expr.Box
}

type compiler struct {
	o *Optimizer
	// q is the query compiled; for a shared plan, the representative
	// whose aliases and join tree the plan uses.
	q *plan.Query
	// members are a shared plan's queries (q first); bit i of every qid
	// mask is members[i]. Nil for a solo plan.
	members []*plan.Query
	needed  map[string][]string
	out     *compiledPlan
	// register controls cache bookkeeping; experiment harnesses disable
	// it to execute sub-plans without polluting the cache.
	register bool
}

// compile lowers a planned query to pipelines, creating fresh hash
// tables and pinning reused ones. With members (two or more mergeable
// queries, p.Query the first, p.Root its join tree planned without
// reuse) it lowers one shared plan for them instead (Section 4): scans
// tag every row with the bitmask of members it qualifies for, joins
// carry the tags through qid-tagged tables, and the root answers each
// member from the one tagged stream.
func (o *Optimizer) compile(p *Planned, members []*plan.Query) (*compiledPlan, error) {
	c := &compiler{
		o:        o,
		q:        p.Query,
		members:  members,
		out:      &compiledPlan{},
		register: true,
	}
	if members == nil {
		c.needed = o.neededCols(p.Query)
	} else {
		// Every filter column is needed: re-tagging evaluates them.
		c.needed = o.neededColsOf(p.Query, members, true)
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
	switch {
	case members != nil:
		err = c.compileSharedRoot(p.Root)
	case p.Agg == nil:
		err = c.compileSPJRoot(p.Root)
	default:
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
		if c.members != nil {
			boxes := c.memberBoxes(n.Mask)
			for i, b := range boxes {
				boxes[i] = c.q.AliasQualify(b)
			}
			src, err := exec.NewSharedScan(c.o.Cat.Table(rel.Table), rel.Alias, boxes, c.needed[rel.Alias])
			if err != nil {
				return nil, nil, nil, err
			}
			return src, nil, src.Schema(), nil
		}
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
		ht, postFilter, emitCols, emitRefs, err := c.obtainBuildHT(n)
		if err != nil {
			return nil, nil, nil, err
		}
		src, tfs, schema, err := c.compileStream(n.Probe)
		if err != nil {
			return nil, nil, nil, err
		}
		probe, err := exec.NewProbe(ht, n.ProbeKeys, emitCols, emitRefs, postFilter, schema)
		if err != nil {
			return nil, nil, nil, err
		}
		if c.members != nil {
			probe.QidCol = ht.Layout().ColIndex(exec.QidRef())
			probe.QidInCol = schema.IndexOf(exec.QidRef())
		}
		tfs = append(tfs, probe)
		return src, tfs, probe.OutSchema(), nil
	}
	return nil, nil, nil, fmt.Errorf("optimizer: unknown node kind %d", n.Kind)
}

// joinLayout constructs the layout of a fresh build-side table:
// deduplicated key columns first, then the remaining needed columns.
func (c *compiler) joinLayout(n *Node) (hashtable.Layout, error) {
	return c.newLayout(baseQualifyRefs(c.q, n.BuildKeys), c.o.requiredBuildCols(c.q, n.BuildMask, c.needed))
}

// newLayout lays out the base-qualified keys, then the other columns,
// each once; a shared plan's table ends with its qid column.
func (c *compiler) newLayout(keys []storage.ColRef, others ...[]storage.ColRef) (hashtable.Layout, error) {
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
	for _, ref := range keys {
		if err := addRef(ref); err != nil {
			return hashtable.Layout{}, err
		}
	}
	nKeys := len(cols)
	for _, refs := range others {
		for _, ref := range refs {
			if err := addRef(ref); err != nil {
				return hashtable.Layout{}, err
			}
		}
	}
	if c.members != nil {
		cols = append(cols, storage.ColMeta{Ref: exec.QidRef(), Kind: types.Int64})
	}
	return hashtable.Layout{Cols: cols, KeyCols: nKeys}, nil
}

// feedRefs maps a fresh table's base-qualified layout onto the stream
// columns that feed it: the query's aliases (the qid column, which has
// no table, passes through).
func (c *compiler) feedRefs(layout hashtable.Layout) []storage.ColRef {
	feed := make([]storage.ColRef, len(layout.Cols))
	for i, m := range layout.Cols {
		feed[i] = storage.ColRef{Table: aliasForTable(c.q, m.Ref.Table), Column: m.Ref.Column}
	}
	return feed
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
	sink, err := exec.NewBuildHT(ht, bschema, c.feedRefs(layout))
	if err != nil {
		return nil, err
	}
	c.out.Pipelines = append(c.out.Pipelines, &exec.Pipeline{Source: bsrc, Transforms: btfs, Sink: sink})
	lin := htcache.Lineage{
		Kind:    htcache.JoinBuild,
		Tables:  maskTables(q, n.BuildMask),
		JoinSig: q.SubgraphSignature(n.BuildMask),
		Filter:  q.BaseQualify(n.BuildFilter),
		KeyCols: baseQualifyRefs(q, n.BuildKeys),
		QidCol:  -1,
	}
	switch {
	case c.members != nil:
		lin.Kind = htcache.SharedJoinBuild
		c.registerShared(ht, lin, c.memberBoxes(n.BuildMask))
	case c.register:
		c.out.created = append(c.out.created, c.o.Cache.Register(ht, lin))
	}
	return ht, nil
}

// rebuildHT is the materialized baseline's reuse of a join input: a
// pipeline scans the cached table, post-filtered for subsuming reuse,
// into a private table with the fresh layout — the rebuild the
// baseline pays on every reuse and HashStash avoids.
func (c *compiler) rebuildHT(n *Node, cached *hashtable.Table, postFilter expr.Box) (*hashtable.Table, error) {
	layout, err := c.joinLayout(n)
	if err != nil {
		return nil, err
	}
	cols := make([]int, len(layout.Cols))
	for i, m := range layout.Cols {
		if cols[i] = cached.Layout().ColIndex(m.Ref); cols[i] < 0 {
			return nil, fmt.Errorf("optimizer: column %v missing from cached table layout", m.Ref)
		}
	}
	src, err := exec.NewHTScan(cached, cols, nil, postFilter)
	if err != nil {
		return nil, err
	}
	ht := hashtable.New(layout)
	sink, err := exec.NewBuildHT(ht, src.Schema(), nil)
	if err != nil {
		return nil, err
	}
	c.out.Pipelines = append(c.out.Pipelines, &exec.Pipeline{Source: src, Sink: sink})
	return ht, nil
}

// obtainBuildHT prepares the hash table for a join node per its reuse
// decision and returns (table, the probe's post-filter, probe emit
// layout positions, emit refs).
func (c *compiler) obtainBuildHT(n *Node) (*hashtable.Table, expr.Box, []int, []storage.ColRef, error) {
	q := c.q
	choice := n.Reuse
	postFilter := choice.PostFilter
	var ht *hashtable.Table
	var snap *htcache.Snapshot
	var err error
	if choice.Mode != ModeNew {
		snap = c.reuseSnapshot(choice)
	}
	switch {
	case choice.Mode == ModeNew:
		if c.members != nil {
			ht, err = c.sharedBuildHT(n)
		} else {
			ht, err = c.freshBuildHT(n)
		}
		if err != nil {
			return nil, nil, nil, nil, err
		}
	case snap == nil:
		if n.Build == nil {
			return nil, nil, nil, nil, fmt.Errorf("optimizer: cold entry %d unrevivable and no fresh fallback", choice.Entry.ID)
		}
		if ht, err = c.freshBuildHT(n); err != nil {
			return nil, nil, nil, nil, err
		}
	case choice.widens():
		// The residual scan builds the missing tuples into the widened
		// copy.
		ht = c.widen(choice)
		relIdx, ok := singleRelation(n.BuildMask)
		if !ok {
			return nil, nil, nil, nil, fmt.Errorf("optimizer: partial join reuse on multi-relation build side")
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
			return nil, nil, nil, nil, err
		}
		sink, err := exec.NewBuildHT(ht, src.Schema(), feed)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		c.out.Pipelines = append(c.out.Pipelines, &exec.Pipeline{Source: src, Sink: sink})
	case c.o.Opts.Strategy == Materialized:
		if ht, err = c.rebuildHT(n, snap.HT, postFilter); err != nil {
			return nil, nil, nil, nil, err
		}
		postFilter = nil
	default:
		ht = snap.HT
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
			return nil, nil, nil, nil, fmt.Errorf("optimizer: column %v missing from build table layout", ref)
		}
		emitCols = append(emitCols, ci)
		emitRefs = append(emitRefs, storage.ColRef{Table: aliasForTable(q, ref.Table), Column: ref.Column})
	}
	return ht, postFilter, emitCols, emitRefs, nil
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
		order = resultOrder(c.q, names)
	}
	collect := exec.NewCollect(proj.OutSchema(), proj.Cols, order)
	c.out.Pipelines = append(c.out.Pipelines, &exec.Pipeline{Source: src, Transforms: tfs, Sink: collect})
	c.out.outs = append(c.out.outs, output{collect: collect, columns: names})
	return nil
}

// resultOrder is q's ORDER BY / LIMIT over its result columns, named
// by names. An ORDER BY column that is not selected orders nothing. The
// result collector applies it.
func resultOrder(q *plan.Query, names []string) exec.Order {
	order := exec.Order{Limit: q.Limit}
	if ob := q.OrderBy; ob != nil {
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

// attachAggInput sinks one input stream (a full or residual plan, or a
// shared plan member's grouping-table entries) into the aggregation
// table, computing aggregate arguments on the way. specs lists the
// table's cell specs in layout order (base-qualified).
func (c *compiler) attachAggInput(src exec.Source, tfs []exec.Transform, schema storage.Schema, ht *hashtable.Table, groupBase []storage.ColRef, specs []expr.AggSpec) error {
	q := c.q
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

	if choice.Mode == ModeNew {
		return c.compileFreshAgg(p.Root, agg)
	}
	snap := c.reuseSnapshot(&choice)
	if snap == nil {
		if agg.FreshRoot == nil {
			return fmt.Errorf("optimizer: cold aggregate entry %d unrevivable and no fresh fallback", choice.Entry.ID)
		}
		fresh := *agg
		fresh.Choice = ReuseChoice{Mode: ModeNew}
		return c.compileFreshAgg(agg.FreshRoot, &fresh)
	}
	if !choice.widens() {
		return c.compileReadout(c.q, snap.HT, agg, agg.CachedSpecIdx, choice.PostFilter, agg.PostAgg)
	}
	// Fold every residual input into the widened copy, updating ALL of
	// its aggregate cells so the whole table stays consistent with its
	// (widened) lineage.
	widened := c.widen(&choice)
	for _, rr := range agg.ResidualRoots {
		src, tfs, schema, err := c.compileStream(rr)
		if err != nil {
			return err
		}
		if err := c.attachAggInput(src, tfs, schema, widened, agg.GroupBase, choice.Entry.Lineage.Aggs); err != nil {
			return err
		}
	}
	return c.compileReadout(c.q, widened, agg, agg.CachedSpecIdx, choice.PostFilter, false)
}

// reuseSnapshot resolves the snapshot a reuse choice reads and pins its
// entry. A hot choice reads the snapshot it was classified against:
// frozen, immutable, safe for lock-free probes however many queries
// widen the entry concurrently. A cold choice revives its entry
// (rebuilds it from the compact spill). Nil, with nothing pinned, means
// the caller builds fresh: the cold entry was dropped between plan and
// compile, or the compile is detached (no cache mutations).
func (c *compiler) reuseSnapshot(choice *ReuseChoice) *htcache.Snapshot {
	snap := choice.Snap
	if choice.Cold != nil && c.register {
		snap = c.o.Cache.Revive(choice.Entry, nil)
	}
	if snap == nil || snap.HT == nil {
		return nil
	}
	if c.register {
		c.o.Cache.Pin(choice.Entry, choice.SavedCost)
		c.out.pinned = append(c.out.pinned, choice.Entry)
	}
	return snap
}

// widen copies the choice's snapshot into a private table with room for
// the missing rows (partial/overlapping reuse) and records the copy's
// publication, which finish installs once the plan ran. Other queries
// keep probing the frozen snapshot and never see the additions.
func (c *compiler) widen(choice *ReuseChoice) *hashtable.Table {
	ht := choice.Snap.HT.Widen(int(choice.MissingRows))
	if c.register {
		c.out.filterUpdates = append(c.out.filterUpdates, filterUpdate{
			entry: choice.Entry, prev: choice.Snap, ht: ht, newFilter: choice.NewFilter,
		})
	}
	return ht
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
	src, tfs, schema, err := c.compileStream(root)
	if err != nil {
		return err
	}
	if err := c.attachAggInput(src, tfs, schema, ht, agg.GroupBase, agg.Specs); err != nil {
		return err
	}
	if c.register {
		c.out.created = append(c.out.created, c.o.Cache.Register(ht, c.aggLineage(agg, c.q.BaseQualify(c.q.Filter))))
	}
	return c.compileReadout(c.q, ht, agg, identitySpecIdx(len(agg.Specs)), nil, false)
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

// compileReadout emits q's final pipeline(s): scan the aggregation
// table, optionally post-filter, optionally post-aggregate (group-by
// subset reuse), reconstruct AVGs, project and collect.
func (c *compiler) compileReadout(q *plan.Query, ht *hashtable.Table, agg *AggChoice, specIdx []int, postFilter expr.Box, postAgg bool) error {
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
	collect := exec.NewCollect(proj.OutSchema(), proj.Cols, resultOrder(q, names))
	c.out.Pipelines = append(c.out.Pipelines, &exec.Pipeline{Source: src, Transforms: tfs, Sink: collect})
	c.out.outs = append(c.out.outs, output{collect: collect, columns: names})
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
