// Package matreuse implements the materialization-based reuse baseline
// the paper compares against (Section 6.1, following Nagel et al.):
// intermediate results — the inputs of hash-join builds and the outputs
// of aggregations — are spilled to in-memory temporary tables as a side
// effect of execution, and later queries may reuse a temporary table
// under exact- or subsuming-reuse only (neither partial nor overlapping
// reuse is possible for materialized relations). Reusing a join input
// still requires rebuilding the hash table from the temporary table;
// that rebuild cost is precisely what HashStash avoids.
package matreuse

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"hashstash/internal/catalog"
	"hashstash/internal/exec"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/htcache"
	"hashstash/internal/optimizer"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// Engine executes queries with materialization-based reuse.
type Engine struct {
	Cat   *catalog.Catalog
	Cache *TempCache

	// planner supplies join trees and carries the execution
	// configuration (Opts.Parallelism); it never reuses hash tables and
	// its own cache stays empty.
	planner *optimizer.Optimizer
}

// NewEngine creates a baseline engine with the given temp-space budget
// in bytes (0 = unlimited). par configures morsel-driven execution of
// the baseline's pipelines: the zero value runs every pipeline whole on
// the calling goroutine; with workers each pipeline's morsels spread
// across the pool. Either way pipelines run in compile order, so a
// spill finishes before its re-scan starts.
func NewEngine(cat *catalog.Catalog, budget int64, par exec.Parallelism) *Engine {
	return &Engine{
		Cat:   cat,
		Cache: NewTempCache(budget),
		planner: optimizer.New(cat, htcache.New(0), nil, optimizer.Options{
			Strategy: optimizer.NeverReuse, BenefitOriented: true, Parallelism: par,
		}),
	}
}

// TempEntry is one materialized intermediate.
type TempEntry struct {
	ID      int64
	Lineage htcache.Lineage
	Table   *storage.Table
	Schema  storage.Schema // base-qualified refs
	// AggNames maps cached aggregate cells to column names (Aggregate
	// lineage only).
	LastUsed int64
	Bytes    int64
	Hits     int64
}

// TempCache holds materialized intermediates with LRU eviction. Its
// methods are safe for concurrent use: a mutex guards the registry and
// statistics, and the materialized tables themselves are immutable
// after registration (reuse re-scans them read-only), so concurrent
// queries of the baseline engine only contend here, never on data.
type TempCache struct {
	Budget   int64
	mu       sync.Mutex
	entries  map[int64]*TempEntry
	byStruct map[string][]*TempEntry
	nextID   int64
	clock    int64
	hits     int64
	regs     int64
	evicted  int64
}

// NewTempCache returns an empty cache.
func NewTempCache(budget int64) *TempCache {
	return &TempCache{Budget: budget, entries: map[int64]*TempEntry{}, byStruct: map[string][]*TempEntry{}}
}

// Register admits a materialized intermediate.
func (c *TempCache) Register(lin htcache.Lineage, tbl *storage.Table, schema storage.Schema) *TempEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	e := &TempEntry{
		ID: c.nextID, Lineage: lin, Table: tbl, Schema: schema,
		LastUsed: c.clock, Bytes: tbl.ByteSize(),
	}
	c.nextID++
	c.regs++
	c.entries[e.ID] = e
	key := lin.StructKey()
	c.byStruct[key] = append(c.byStruct[key], e)
	c.gc()
	return e
}

// Candidates returns structural matches, MRU first.
func (c *TempCache) Candidates(probe htcache.Lineage) []*TempEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	list := append([]*TempEntry(nil), c.byStruct[probe.StructKey()]...)
	sort.Slice(list, func(i, j int) bool { return list[i].LastUsed > list[j].LastUsed })
	return list
}

// Touch marks a reuse.
func (c *TempCache) Touch(e *TempEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	e.LastUsed = c.clock
	e.Hits++
	c.hits++
}

// TotalBytes reports the cache footprint.
func (c *TempCache) TotalBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalBytesLocked()
}

func (c *TempCache) totalBytesLocked() int64 {
	var t int64
	for _, e := range c.entries {
		t += e.Bytes
	}
	return t
}

// Stats mirrors htcache.Stats for reporting.
func (c *TempCache) Stats() htcache.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := htcache.Stats{Entries: len(c.entries), Bytes: c.totalBytesLocked(), Hits: c.hits, Registered: c.regs, Evictions: c.evicted}
	if c.regs > 0 {
		s.HitRatio = float64(c.hits) / float64(c.regs)
	}
	return s
}

// gc runs with c.mu held (Register is the only caller).
func (c *TempCache) gc() {
	if c.Budget <= 0 {
		return
	}
	for c.totalBytesLocked() > c.Budget {
		var victim *TempEntry
		for _, e := range c.entries {
			if victim == nil || e.LastUsed < victim.LastUsed {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(c.entries, victim.ID)
		key := victim.Lineage.StructKey()
		list := c.byStruct[key]
		for i, x := range list {
			if x.ID == victim.ID {
				c.byStruct[key] = append(list[:i], list[i+1:]...)
				break
			}
		}
		c.evicted++
	}
}

// tempScan adapts a materialized table back into a pipeline source,
// re-emitting the stored base-qualified schema with an optional
// post-filter (subsuming reuse).
type tempScan struct {
	entry   *TempEntry
	filter  expr.Box
	pos     int
	matcher []matchedCon
}

type matchedCon struct {
	col *storage.Column
	con expr.Constraint
}

func newTempScan(e *TempEntry, filter expr.Box) (*tempScan, error) {
	s := &tempScan{entry: e, filter: filter}
	for _, p := range filter {
		col := e.Table.Column(p.Col.Column)
		if col == nil {
			return nil, fmt.Errorf("matreuse: post-filter column %v not materialized", p.Col)
		}
		s.matcher = append(s.matcher, matchedCon{col: col, con: p.Con})
	}
	return s, nil
}

func (s *tempScan) Schema() storage.Schema { return s.entry.Schema }
func (s *tempScan) Open() error            { s.pos = 0; return nil }

// Next is batch-at-a-time: the post-filter refines a selection vector
// with one typed kernel per constrained column (bounds hoisted, no
// per-row kind dispatch) and the survivors materialize once per column
// via gather; an unfiltered scan bulk-copies each column's range.
func (s *tempScan) Next(out *storage.Batch) bool {
	n := s.entry.Table.NumRows()
	produced := 0
	for s.pos < n && produced < storage.BatchSize {
		chunk := storage.BatchSize - produced
		if rem := n - s.pos; rem < chunk {
			chunk = rem
		}
		start, end := int32(s.pos), int32(s.pos+chunk)
		s.pos += chunk
		if len(s.matcher) == 0 {
			for i := range s.entry.Schema {
				out.Cols[i].AppendColumnRange(s.entry.Table.Cols[i], start, end)
			}
			produced += chunk
			continue
		}
		sel := out.Scratch().Sel(chunk)
		for i := range sel {
			sel[i] = start + int32(i)
		}
		for _, m := range s.matcher {
			if len(sel) == 0 {
				break
			}
			switch m.col.Kind {
			case types.Int64, types.Date:
				sel = m.con.FilterInts(m.col.Ints, sel)
			case types.Float64:
				sel = m.con.FilterFloats(m.col.Floats, sel)
			case types.String:
				sel = m.con.FilterStrings(m.col.Strs, sel)
			}
		}
		for i := range s.entry.Schema {
			out.Cols[i].AppendColumnGather(s.entry.Table.Cols[i], sel)
		}
		produced += len(sel)
	}
	return produced > 0
}

// Run executes one query with materialization-based reuse.
func (e *Engine) Run(q *plan.Query) (*optimizer.Result, error) {
	return e.RunContext(context.Background(), q)
}

// RunContext is Run under a context: cancellation aborts morsel
// dispatch before the temp-table registrations happen. The filter is
// closed over the join classes first (plan.CloseFilter), as the
// HashStash router closes it.
func (e *Engine) RunContext(ctx context.Context, q *plan.Query) (*optimizer.Result, error) {
	q = plan.CloseFilter(q)
	planned, err := e.planner.PlanQuery(q)
	if err != nil {
		return nil, err
	}
	c := &matCompiler{engine: e, q: q, needed: neededCols(e.Cat, q)}
	var compileErr error
	if planned.Agg == nil {
		compileErr = c.compileSPJRoot(planned.Root)
	} else {
		compileErr = c.compileAggRoot(planned)
	}
	if compileErr != nil {
		return nil, compileErr
	}
	par := e.planner.Opts.Parallelism
	par.Ctx = ctx
	t0 := time.Now()
	if err := exec.RunParallel(c.pipelines, par); err != nil {
		return nil, err
	}
	elapsed := time.Since(t0)
	for _, reg := range c.pending {
		e.Cache.Register(reg.lin, reg.sink.Table, reg.schema)
	}
	return &optimizer.Result{
		Columns:  c.columns,
		Rows:     optimizer.OrderAndLimit(c.out.Rows, c.columns, q),
		ExecTime: elapsed,
	}, nil
}

// neededCols mirrors the optimizer's needed-column analysis (join keys,
// selects, group-bys, aggregate args, filter attributes).
func neededCols(cat *catalog.Catalog, q *plan.Query) map[string][]string {
	set := map[string]map[string]bool{}
	add := func(ref storage.ColRef) {
		if q.RelByAlias(ref.Table) == nil {
			return
		}
		if set[ref.Table] == nil {
			set[ref.Table] = map[string]bool{}
		}
		set[ref.Table][ref.Column] = true
	}
	for _, j := range q.Joins {
		add(j.Left)
		add(j.Right)
	}
	for _, s := range q.Select {
		add(s)
	}
	for _, g := range q.GroupBy {
		add(g)
	}
	for _, a := range q.Aggs {
		if a.Arg != nil {
			a.Arg.Walk(add)
		}
	}
	for _, p := range q.Filter {
		add(p.Col)
	}
	out := map[string][]string{}
	for alias, cols := range set {
		var list []string
		for c := range cols {
			list = append(list, c)
		}
		sort.Strings(list)
		out[alias] = list
	}
	for _, rel := range q.Relations {
		if len(out[rel.Alias]) == 0 {
			tbl := cat.Table(rel.Table)
			if tbl != nil && len(tbl.Cols) > 0 {
				out[rel.Alias] = []string{tbl.Cols[0].Name}
			}
		}
	}
	return out
}

// pendingReg defers cache registration until execution succeeded.
type pendingReg struct {
	lin    htcache.Lineage
	sink   *exec.TempTable
	schema storage.Schema
}

type matCompiler struct {
	engine    *Engine
	q         *plan.Query
	needed    map[string][]string
	pipelines []*exec.Pipeline
	pending   []pendingReg
	out       *exec.Collect
	columns   []string
	tempSeq   int
}

// baseSchema converts an alias-qualified schema to base qualification.
func (c *matCompiler) baseSchema(s storage.Schema) storage.Schema {
	out := make(storage.Schema, len(s))
	for i, m := range s {
		ref := m.Ref
		if rel := c.q.RelByAlias(ref.Table); rel != nil {
			ref.Table = rel.Table
		}
		out[i] = storage.ColMeta{Ref: ref, Kind: m.Kind}
	}
	return out
}

func (c *matCompiler) aliasRef(ref storage.ColRef) storage.ColRef {
	for _, rel := range c.q.Relations {
		if rel.Table == ref.Table {
			return storage.ColRef{Table: rel.Alias, Column: ref.Column}
		}
	}
	return ref
}

// compileStream lowers a node; join builds consult the temp cache.
func (c *matCompiler) compileStream(n *optimizer.Node) (exec.Source, []exec.Transform, storage.Schema, error) {
	if n.IsScan() {
		rel := c.q.Relations[n.RelIdx]
		boxes := n.ScanBoxes
		src, err := exec.NewTableScan(c.engine.Cat.Table(rel.Table), rel.Alias, boxes, c.needed[rel.Alias])
		if err != nil {
			return nil, nil, nil, err
		}
		return src, nil, src.Schema(), nil
	}

	ht, emitCols, emitRefs, err := c.obtainBuildHT(n)
	if err != nil {
		return nil, nil, nil, err
	}
	src, tfs, schema, err := c.compileStream(n.Probe)
	if err != nil {
		return nil, nil, nil, err
	}
	probe, err := exec.NewProbe(ht, n.ProbeKeys, emitCols, emitRefs, nil, schema)
	if err != nil {
		return nil, nil, nil, err
	}
	tfs = append(tfs, probe)
	return src, tfs, probe.OutSchema(), nil
}

// buildLayout mirrors the optimizer's fresh join layout.
func (c *matCompiler) buildLayout(n *optimizer.Node) (hashtable.Layout, []storage.ColRef, error) {
	var cols []storage.ColMeta
	var feed []storage.ColRef
	seen := map[storage.ColRef]bool{}
	nKeys := 0
	add := func(aliasRef storage.ColRef, key bool) error {
		rel := c.q.RelByAlias(aliasRef.Table)
		if rel == nil {
			return fmt.Errorf("matreuse: unknown alias %v", aliasRef)
		}
		base := storage.ColRef{Table: rel.Table, Column: aliasRef.Column}
		if seen[base] {
			return nil
		}
		seen[base] = true
		kind, err := c.engine.Cat.Resolve(base.Table, base.Column)
		if err != nil {
			return err
		}
		cols = append(cols, storage.ColMeta{Ref: base, Kind: kind})
		feed = append(feed, aliasRef)
		if key {
			nKeys++
		}
		return nil
	}
	for _, k := range n.BuildKeys {
		if err := add(k, true); err != nil {
			return hashtable.Layout{}, nil, err
		}
	}
	for i, rel := range c.q.Relations {
		if n.BuildMask&(1<<uint(i)) == 0 {
			continue
		}
		for _, col := range c.needed[rel.Alias] {
			if err := add(storage.ColRef{Table: rel.Alias, Column: col}, false); err != nil {
				return hashtable.Layout{}, nil, err
			}
		}
	}
	return hashtable.Layout{Cols: cols, KeyCols: nKeys}, feed, nil
}

// obtainBuildHT builds the hash table for a join node, reusing a
// materialized build input when an exact/subsuming temp table exists;
// otherwise the build input is executed and spilled (Multi sink).
func (c *matCompiler) obtainBuildHT(n *optimizer.Node) (*hashtable.Table, []int, []storage.ColRef, error) {
	q := c.q
	layout, feed, err := c.buildLayout(n)
	if err != nil {
		return nil, nil, nil, err
	}
	ht := hashtable.New(layout)
	reqFilter := q.BaseQualify(n.BuildFilter)

	probeLin := htcache.Lineage{
		Kind:    htcache.JoinBuild,
		JoinSig: q.SubgraphSignature(n.BuildMask),
		KeyCols: baseRefsOf(q, n.BuildKeys),
		QidCol:  -1,
	}

	var reused *TempEntry
	var postFilter expr.Box
	for _, cand := range c.engine.Cache.Candidates(probeLin) {
		rel := expr.Classify(cand.Lineage.Filter, reqFilter)
		if rel != expr.RelEqual && rel != expr.RelSubsuming {
			continue
		}
		// Every layout column must be materialized.
		ok := true
		for _, m := range layout.Cols {
			if cand.Table.Column(m.Ref.Column) == nil {
				ok = false
				break
			}
		}
		if rel == expr.RelSubsuming {
			for _, p := range reqFilter {
				if cand.Table.Column(p.Col.Column) == nil {
					ok = false
					break
				}
			}
			postFilter = reqFilter
		}
		if !ok {
			continue
		}
		reused = cand
		break
	}

	if reused != nil {
		c.engine.Cache.Touch(reused)
		src, err := newTempScan(reused, postFilter)
		if err != nil {
			return nil, nil, nil, err
		}
		// Rebuild the hash table from the temp table (the unavoidable
		// cost of materialization-based reuse).
		sink, err := exec.NewBuildHT(ht, projectSchema(src.Schema(), layout), nil)
		if err != nil {
			return nil, nil, nil, err
		}
		proj, err := projection(src.Schema(), layout)
		if err != nil {
			return nil, nil, nil, err
		}
		c.pipelines = append(c.pipelines, &exec.Pipeline{Source: src, Transforms: []exec.Transform{proj}, Sink: sink})
	} else {
		bsrc, btfs, bschema, err := c.compileStream(n.Build)
		if err != nil {
			return nil, nil, nil, err
		}
		sink, err := exec.NewBuildHT(ht, bschema, feed)
		if err != nil {
			return nil, nil, nil, err
		}
		// Spill the build input alongside building the table.
		c.tempSeq++
		temp := exec.NewTempTable(fmt.Sprintf("tmp_join_%d", c.tempSeq), c.baseSchema(bschema))
		lin := probeLin
		lin.Tables = tablesOf(q, n.BuildMask)
		lin.Filter = reqFilter
		c.pending = append(c.pending, pendingReg{lin: lin, sink: temp, schema: c.baseSchema(bschema)})
		c.pipelines = append(c.pipelines, &exec.Pipeline{
			Source: bsrc, Transforms: btfs, Sink: &exec.Multi{Sinks: []exec.Sink{sink, temp}},
		})
	}

	// Probe emits needed build-side columns.
	var emitCols []int
	var emitRefs []storage.ColRef
	seen := map[storage.ColRef]bool{}
	for i, rel := range q.Relations {
		if n.BuildMask&(1<<uint(i)) == 0 {
			continue
		}
		for _, col := range c.needed[rel.Alias] {
			base := storage.ColRef{Table: rel.Table, Column: col}
			if seen[base] {
				continue
			}
			seen[base] = true
			ci := layout.ColIndex(base)
			if ci < 0 {
				return nil, nil, nil, fmt.Errorf("matreuse: column %v missing from layout", base)
			}
			emitCols = append(emitCols, ci)
			emitRefs = append(emitRefs, storage.ColRef{Table: rel.Alias, Column: col})
		}
	}
	return ht, emitCols, emitRefs, nil
}

// projection maps a temp-scan schema onto the layout's column order.
func projection(in storage.Schema, layout hashtable.Layout) (*exec.Project, error) {
	var cols []int
	for _, m := range layout.Cols {
		i := in.IndexOf(m.Ref)
		if i < 0 {
			return nil, fmt.Errorf("matreuse: layout column %v not in temp schema", m.Ref)
		}
		cols = append(cols, i)
	}
	return exec.NewProject(cols, nil, in)
}

func projectSchema(in storage.Schema, layout hashtable.Layout) storage.Schema {
	out := make(storage.Schema, len(layout.Cols))
	copy(out, layout.Cols)
	return out
}

func baseRefsOf(q *plan.Query, refs []storage.ColRef) []storage.ColRef {
	out := make([]storage.ColRef, len(refs))
	for i, r := range refs {
		table := r.Table
		if rel := q.RelByAlias(r.Table); rel != nil {
			table = rel.Table
		}
		out[i] = storage.ColRef{Table: table, Column: r.Column}
	}
	return out
}

func tablesOf(q *plan.Query, mask int) []string {
	var out []string
	for i, rel := range q.Relations {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, rel.Table)
		}
	}
	return out
}
