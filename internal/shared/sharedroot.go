package shared

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hashstash/internal/exec"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/htcache"
	"hashstash/internal/optimizer"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// aggGroup is a set of group-queries sharing one grouping table (same
// group-by keys, per Section 4.1: aggregation operators with the same
// group-by keys are shared).
type aggGroup struct {
	queryIdx []int            // indexes into groupExec.queries
	keys     []storage.ColRef // base-qualified group-by columns
	rawCols  []storage.ColRef // base-qualified columns feeding any aggregate
	grouping *hashtable.Table // SRHA grouping-phase table (tuples + qid)
	qidCol   int              // layout position of the qid column
	reuse    bool             // grouping table reused from the cache
}

// groupKeySig canonically identifies a group-by column set.
func groupKeySig(keys []storage.ColRef) string {
	s := make([]string, len(keys))
	for i, k := range keys {
		s[i] = k.String()
	}
	sort.Strings(s)
	return strings.Join(s, ",")
}

// compileRoot wires the shared spine into grouping tables (SRHA) and
// per-query aggregation readouts, or — for SPJ batches — into one
// collected output split by qid afterwards.
func (g *groupExec) compileRoot(tree *optimizer.Node) error {
	anyAgg := false
	for _, q := range g.queries {
		if q.IsAggregate() {
			anyAgg = true
		}
	}
	if !anyAgg {
		return g.compileSPJBatch(tree)
	}
	for _, q := range g.queries {
		if !q.IsAggregate() {
			return fmt.Errorf("shared: mixed SPJ/SPJA batches are not mergeable")
		}
	}

	groups, err := g.formAggGroups()
	if err != nil {
		return err
	}
	// Try to reuse a cached grouping table per agg group.
	needSpine := false
	for _, ag := range groups {
		if !g.tryReuseGrouping(ag) {
			needSpine = true
		}
	}

	if needSpine {
		src, tfs, schema, err := g.compileStream(tree)
		if err != nil {
			return err
		}
		var sinks []exec.Sink
		for _, ag := range groups {
			if ag.reuse {
				continue
			}
			if err := g.createGroupingTable(ag); err != nil {
				return err
			}
			sink, err := g.groupingSink(ag, schema)
			if err != nil {
				return err
			}
			sinks = append(sinks, sink)
		}
		g.pipelines = append(g.pipelines, &exec.Pipeline{
			Source: src, Transforms: tfs, Sink: &exec.Multi{Sinks: sinks},
		})
	}

	// Per-query aggregation over its grouping table.
	g.collects = make([]*exec.Collect, len(g.queries))
	g.columns = make([][]string, len(g.queries))
	for _, ag := range groups {
		for bit, qi := range ag.queryIdx {
			_ = bit
			if err := g.compileQueryReadout(ag, qi); err != nil {
				return err
			}
		}
	}
	return nil
}

// formAggGroups partitions the group's queries by group-by key set.
func (g *groupExec) formAggGroups() ([]*aggGroup, error) {
	bySig := map[string]*aggGroup{}
	var order []string
	for qi, q := range g.queries {
		keys := baseRefs(q, q.GroupBy)
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		sig := groupKeySig(keys)
		ag, ok := bySig[sig]
		if !ok {
			ag = &aggGroup{keys: keys, qidCol: -1}
			bySig[sig] = ag
			order = append(order, sig)
		}
		ag.queryIdx = append(ag.queryIdx, qi)
		for _, s := range q.Aggs {
			if s.Arg == nil {
				continue
			}
			arg := baseQualifyExprShared(q, s.Arg)
			arg.Walk(func(r storage.ColRef) {
				for _, have := range ag.rawCols {
					if have == r {
						return
					}
				}
				ag.rawCols = append(ag.rawCols, r)
			})
		}
	}
	var out []*aggGroup
	for _, sig := range order {
		ag := bySig[sig]
		sort.Slice(ag.rawCols, func(i, j int) bool { return ag.rawCols[i].String() < ag.rawCols[j].String() })
		out = append(out, ag)
	}
	return out, nil
}

// groupingLayout: group keys, raw aggregate inputs, every filter column
// (re-tag needs them), then the qid tag. Entries are individual tuples
// (Insert, not Upsert): the grouping phase output of the paper's SRHA.
func (g *groupExec) groupingLayout(ag *aggGroup) (hashtable.Layout, error) {
	var cols []storage.ColMeta
	seen := map[storage.ColRef]bool{}
	add := func(ref storage.ColRef) error {
		if seen[ref] {
			return nil
		}
		seen[ref] = true
		kind, err := g.s.Single.Cat.Resolve(ref.Table, ref.Column)
		if err != nil {
			return err
		}
		cols = append(cols, storage.ColMeta{Ref: ref, Kind: kind})
		return nil
	}
	nKeys := 0
	for _, k := range ag.keys {
		if !seen[k] {
			nKeys++
		}
		if err := add(k); err != nil {
			return hashtable.Layout{}, err
		}
	}
	for _, r := range ag.rawCols {
		if err := add(r); err != nil {
			return hashtable.Layout{}, err
		}
	}
	for qi := range g.queries {
		for _, p := range g.queryBoxBase(qi) {
			if err := add(p.Col); err != nil {
				return hashtable.Layout{}, err
			}
		}
	}
	cols = append(cols, storage.ColMeta{Ref: exec.QidRef(), Kind: types.Int64})
	return hashtable.Layout{Cols: cols, KeyCols: nKeys}, nil
}

func (g *groupExec) createGroupingTable(ag *aggGroup) error {
	layout, err := g.groupingLayout(ag)
	if err != nil {
		return err
	}
	ag.grouping = hashtable.New(layout)
	ag.qidCol = len(layout.Cols) - 1

	// Register when the union of the group's full filters is exact.
	var boxes []expr.Box
	for qi := range g.queries {
		boxes = append(boxes, g.queryBoxBase(qi))
	}
	if hull, ok := boxesUnion(boxes); ok {
		lin := htcache.Lineage{
			Kind:    htcache.SharedGrouping,
			Tables:  maskTableNames(g.rep, (1<<uint(len(g.rep.Relations)))-1),
			JoinSig: g.rep.JoinGraphSignature(),
			Filter:  hull,
			KeyCols: ag.keys,
			GroupBy: ag.keys,
			QidCol:  ag.qidCol,
		}
		g.created = append(g.created, g.s.Single.Cache.Register(ag.grouping, lin))
	}
	return nil
}

// tryReuseGrouping looks for a cached SRHA grouping table with the same
// structure whose content covers every query; on success it re-tags it.
func (g *groupExec) tryReuseGrouping(ag *aggGroup) bool {
	cache := g.s.Single.Cache
	var boxes []expr.Box
	for qi := range g.queries {
		boxes = append(boxes, g.queryBoxBase(qi))
	}
	// A usable table covers every query's box, so none is disjoint from
	// the first one: it is a sound request box for the lookup.
	probeLin := htcache.Lineage{
		Kind:    htcache.SharedGrouping,
		JoinSig: g.rep.JoinGraphSignature(),
		KeyCols: ag.keys,
		GroupBy: ag.keys,
		Filter:  boxes[0],
	}
	for _, cand := range cache.Candidates(probeLin) {
		if cand.Lineage.QidCol < 0 {
			continue
		}
		snap := cand.Current()
		if snap == nil || snap.HT == nil {
			continue // demoted to the cold tier since Candidates listed it
		}
		layout := snap.HT.Layout()
		usable := true
		for _, b := range boxes {
			if !snap.Filter.Covers(b) {
				usable = false
				break
			}
			for _, p := range b {
				if layout.ColIndex(p.Col) < 0 {
					usable = false
					break
				}
			}
		}
		for _, r := range ag.rawCols {
			if layout.ColIndex(r) < 0 {
				usable = false
			}
		}
		for _, k := range ag.keys {
			if layout.ColIndex(k) < 0 {
				usable = false
			}
		}
		if !usable {
			continue
		}
		// Re-tag a private widened copy (batch-local qid masks install
		// as an overlay); the published snapshot stays untouched and the
		// copy is dropped after the batch.
		widened := snap.HT.WidenWith(g.s.Single.WidenOptions())
		if err := exec.ReTag(widened, cand.Lineage.QidCol, boxes); err != nil {
			continue
		}
		cache.Pin(cand, 0)
		g.pinned = append(g.pinned, cand)
		g.retagged = append(g.retagged, widened)
		ag.grouping = widened
		ag.qidCol = cand.Lineage.QidCol
		ag.reuse = true
		g.reused++
		return true
	}
	return false
}

// groupingSink feeds the shared spine output into the grouping table.
func (g *groupExec) groupingSink(ag *aggGroup, schema storage.Schema) (exec.Sink, error) {
	layout := ag.grouping.Layout()
	feed := make([]storage.ColRef, len(layout.Cols))
	for i, m := range layout.Cols {
		if m.Ref == exec.QidRef() {
			feed[i] = exec.QidRef()
			continue
		}
		feed[i] = storage.ColRef{Table: g.aliasOf(m.Ref.Table), Column: m.Ref.Column}
	}
	return exec.NewBuildHT(ag.grouping, schema, feed)
}

// compileQueryReadout aggregates one query's answer from its grouping
// table: scan entries with the query's qid bit, compute its aggregate
// arguments, fold into a per-query result table, then project.
func (g *groupExec) compileQueryReadout(ag *aggGroup, qi int) error {
	q := g.queries[qi]
	layout := ag.grouping.Layout()

	// Columns to read: group keys + this query's raw columns.
	var outCols []int
	var outRefs []storage.ColRef
	read := map[storage.ColRef]bool{}
	addRead := func(ref storage.ColRef) error {
		if read[ref] {
			return nil
		}
		read[ref] = true
		ci := layout.ColIndex(ref)
		if ci < 0 {
			return fmt.Errorf("shared: column %v missing from grouping table", ref)
		}
		outCols = append(outCols, ci)
		outRefs = append(outRefs, ref)
		return nil
	}
	for _, k := range ag.keys {
		if err := addRead(k); err != nil {
			return err
		}
	}
	specs, srcIdx := expr.RewriteAvg(q.Aggs)
	specsBase := make([]expr.AggSpec, len(specs))
	for i, s := range specs {
		specsBase[i] = s
		if s.Arg != nil {
			specsBase[i].Arg = baseQualifyExprShared(q, s.Arg)
			var werr error
			specsBase[i].Arg.Walk(func(r storage.ColRef) {
				if err := addRead(r); err != nil && werr == nil {
					werr = err
				}
			})
			if werr != nil {
				return werr
			}
		}
	}

	src, err := exec.NewHTScan(ag.grouping, outCols, outRefs, nil)
	if err != nil {
		return err
	}
	src.QidCol = ag.qidCol
	src.QidMask = 1 << uint(qi)
	schema := src.Schema()
	var tfs []exec.Transform

	// Result table: group keys + one cell per rewritten spec.
	var resCols []storage.ColMeta
	for _, k := range ag.keys {
		kind, err := g.s.Single.Cat.Resolve(k.Table, k.Column)
		if err != nil {
			return err
		}
		resCols = append(resCols, storage.ColMeta{Ref: k, Kind: kind})
	}
	cells := make([]exec.AggCell, len(specsBase))
	for i, s := range specsBase {
		kind := cellKind(g, s)
		resCols = append(resCols, storage.ColMeta{Ref: storage.ColRef{Column: s.Name()}, Kind: kind})
		if s.Arg == nil {
			cells[i] = exec.AggCell{Func: s.Func, InCol: -1, Kind: kind}
			continue
		}
		if col, ok := s.Arg.(*expr.Col); ok {
			if j := schema.IndexOf(col.Ref); j >= 0 {
				cells[i] = exec.AggCell{Func: s.Func, InCol: j, Kind: kind}
				continue
			}
		}
		ref := storage.ColRef{Column: fmt.Sprintf("_sagg%d", i)}
		comp := exec.NewCompute(s.Arg, ref, schema)
		tfs = append(tfs, comp)
		schema = comp.OutSchema()
		cells[i] = exec.AggCell{Func: s.Func, InCol: schema.IndexOf(ref), Kind: kind}
	}
	resHT := hashtable.New(hashtable.Layout{Cols: resCols, KeyCols: len(ag.keys)})
	sink, err := exec.NewAggHT(resHT, ag.keys, cells, schema)
	if err != nil {
		return err
	}
	g.pipelines = append(g.pipelines, &exec.Pipeline{Source: src, Transforms: tfs, Sink: sink})

	// Final readout of the per-query result table.
	fsrc, err := exec.NewHTScan(resHT, identityCols(len(resCols)), nil, nil)
	if err != nil {
		return err
	}
	fschema := fsrc.Schema()
	var ftfs []exec.Transform
	finalAggRefs := make([]storage.ColRef, len(q.Aggs))
	for i, orig := range q.Aggs {
		si, ci := srcIdx[i][0], srcIdx[i][1]
		if orig.Func == expr.AggAvg && si != ci {
			ref := storage.ColRef{Column: fmt.Sprintf("_savg%d", i)}
			div := &expr.Bin{Op: expr.OpDiv,
				L: &expr.Col{Ref: storage.ColRef{Column: specsBase[si].Name()}},
				R: &expr.Col{Ref: storage.ColRef{Column: specsBase[ci].Name()}},
			}
			comp := exec.NewCompute(div, ref, fschema)
			ftfs = append(ftfs, comp)
			fschema = comp.OutSchema()
			finalAggRefs[i] = ref
		} else {
			finalAggRefs[i] = storage.ColRef{Column: specsBase[si].Name()}
		}
	}
	var cols []int
	var names []string
	for _, sel := range q.Select {
		base := baseRefs(q, []storage.ColRef{sel})[0]
		j := fschema.IndexOf(base)
		if j < 0 {
			return fmt.Errorf("shared: select column %v not in readout", sel)
		}
		cols = append(cols, j)
		names = append(names, sel.String())
	}
	for i, orig := range q.Aggs {
		j := fschema.IndexOf(finalAggRefs[i])
		if j < 0 {
			return fmt.Errorf("shared: aggregate %v not in readout", finalAggRefs[i])
		}
		cols = append(cols, j)
		names = append(names, orig.Name())
	}
	proj, err := exec.NewProject(cols, nil, fschema)
	if err != nil {
		return err
	}
	collect := exec.NewCollect(proj.OutSchema(), proj.Cols, exec.Order{})
	g.pipelines = append(g.pipelines, &exec.Pipeline{Source: fsrc, Transforms: ftfs, Sink: collect})
	g.collects[qi] = collect
	g.columns[qi] = names
	return nil
}

func cellKind(g *groupExec, s expr.AggSpec) types.Kind {
	switch s.Func {
	case expr.AggCount:
		return types.Int64
	case expr.AggSum, expr.AggAvg:
		return types.Float64
	}
	if col, ok := s.Arg.(*expr.Col); ok {
		if k, err := g.s.Single.Cat.Resolve(col.Ref.Table, col.Ref.Column); err == nil {
			if k == types.Date {
				return types.Int64
			}
			return k
		}
	}
	return types.Float64
}

// compileSPJBatch runs the shared spine once and splits rows per query
// afterwards (Data-Query model output splitting).
func (g *groupExec) compileSPJBatch(tree *optimizer.Node) error {
	src, tfs, schema, err := g.compileStream(tree)
	if err != nil {
		return err
	}
	collect := exec.NewCollect(schema, nil, exec.Order{})
	g.pipelines = append(g.pipelines, &exec.Pipeline{Source: src, Transforms: tfs, Sink: collect})
	g.spineOut = collect
	g.columns = make([][]string, len(g.queries))
	for qi, q := range g.queries {
		names := make([]string, len(q.Select))
		for i, sel := range q.Select {
			names[i] = sel.String()
		}
		g.columns[qi] = names
	}
	return nil
}

// collectResults assembles per-query results after the pipelines ran.
func (g *groupExec) collectResults(elapsed time.Duration) ([]*optimizer.Result, error) {
	per := elapsed / time.Duration(len(g.queries))
	out := make([]*optimizer.Result, len(g.queries))

	if g.spineOut != nil { // SPJ split path
		qidIdx := g.spineOut.Schema.IndexOf(exec.QidRef())
		if qidIdx < 0 {
			return nil, fmt.Errorf("shared: spine output lacks qid column")
		}
		for qi, q := range g.queries {
			var sel []int
			for _, ref := range q.Select {
				j := g.spineOut.Schema.IndexOf(storage.ColRef{Table: g.aliasOf(baseRefs(q, []storage.ColRef{ref})[0].Table), Column: ref.Column})
				if j < 0 {
					return nil, fmt.Errorf("shared: select column %v not in spine output", ref)
				}
				sel = append(sel, j)
			}
			res := &optimizer.Result{Columns: g.columns[qi], ExecTime: per}
			bit := uint64(1) << uint(qi)
			for _, row := range g.spineOut.Rows {
				if uint64(row[qidIdx].I)&bit == 0 {
					continue
				}
				outRow := make([]types.Value, len(sel))
				for i, j := range sel {
					outRow[i] = row[j]
				}
				res.Rows = append(res.Rows, outRow)
			}
			out[qi] = res
		}
		return out, nil
	}

	for qi := range g.queries {
		out[qi] = &optimizer.Result{
			Columns:  g.columns[qi],
			Rows:     g.collects[qi].Rows,
			ExecTime: per,
		}
	}
	return out, nil
}

// baseQualifyExprShared rewrites an expression's column refs to base
// qualification using the owning query's alias map.
func baseQualifyExprShared(q *plan.Query, e expr.Expr) expr.Expr {
	switch x := e.(type) {
	case *expr.Col:
		ref := x.Ref
		if rel := q.RelByAlias(ref.Table); rel != nil {
			ref.Table = rel.Table
		}
		return &expr.Col{Ref: ref}
	case *expr.Const:
		return x
	case *expr.Bin:
		return &expr.Bin{Op: x.Op, L: baseQualifyExprShared(q, x.L), R: baseQualifyExprShared(q, x.R)}
	}
	return e
}

func identityCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
