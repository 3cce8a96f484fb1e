package matreuse

import (
	"fmt"

	"hashstash/internal/exec"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/htcache"
	"hashstash/internal/optimizer"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// compileSPJRoot terminates an SPJ query (no materialization: the paper
// spills join inputs and aggregation outputs, not final SPJ results).
func (c *matCompiler) compileSPJRoot(root *optimizer.Node) error {
	src, tfs, schema, err := c.compileStream(root)
	if err != nil {
		return err
	}
	var cols []int
	var names []string
	for _, ref := range c.q.Select {
		i := schema.IndexOf(ref)
		if i < 0 {
			return fmt.Errorf("matreuse: select column %v not produced", ref)
		}
		cols = append(cols, i)
		names = append(names, ref.String())
	}
	proj, err := exec.NewProject(cols, nil, schema)
	if err != nil {
		return err
	}
	collect := exec.NewCollect(proj.OutSchema(), proj.Cols, exec.Order{})
	c.pipelines = append(c.pipelines, &exec.Pipeline{Source: src, Transforms: tfs, Sink: collect})
	c.out = collect
	c.columns = names
	return nil
}

func cellKindOf(c *matCompiler, s expr.AggSpec) types.Kind {
	switch s.Func {
	case expr.AggCount:
		return types.Int64
	case expr.AggSum, expr.AggAvg:
		return types.Float64
	}
	if col, ok := s.Arg.(*expr.Col); ok {
		if k, err := c.engine.Cat.Resolve(col.Ref.Table, col.Ref.Column); err == nil {
			if k == types.Date {
				return types.Int64
			}
			return k
		}
	}
	return types.Float64
}

// compileAggRoot handles SPJA queries: reuse a materialized aggregation
// output when exact/subsuming, else compute it and spill it.
func (c *matCompiler) compileAggRoot(p *optimizer.Planned) error {
	q := c.q
	agg := p.Agg
	reqFilter := q.BaseQualify(q.Filter)

	probeLin := htcache.Lineage{
		Kind:    htcache.Aggregate,
		JoinSig: q.JoinGraphSignature(),
		KeyCols: agg.GroupBase,
		GroupBy: agg.GroupBase,
		QidCol:  -1,
	}

	for _, cand := range c.engine.Cache.Candidates(probeLin) {
		rel := expr.Classify(cand.Lineage.Filter, reqFilter)
		if rel != expr.RelEqual && rel != expr.RelSubsuming {
			continue
		}
		usable := true
		var postFilter expr.Box
		if rel == expr.RelSubsuming {
			for _, pr := range reqFilter {
				if cand.Table.Column(pr.Col.Column) == nil {
					usable = false
					break
				}
			}
			postFilter = reqFilter
		}
		for _, s := range agg.Specs {
			if cand.Table.Column(s.Name()) == nil {
				usable = false
				break
			}
		}
		for _, k := range agg.GroupBase {
			if cand.Table.Column(k.Column) == nil {
				usable = false
				break
			}
		}
		if !usable {
			continue
		}
		c.engine.Cache.Touch(cand)
		return c.readoutFromTemp(cand, agg, postFilter)
	}

	// Fresh aggregation: input pipeline folds into a hash table, the
	// readout is spilled to a temp table, and the final output is read
	// back from the spill (the extra pass IS the materialization cost).
	layout, err := c.freshAggLayout(agg)
	if err != nil {
		return err
	}
	ht := hashtable.New(layout)
	if err := c.attachAggInput(p.Root, ht, agg); err != nil {
		return err
	}

	// Spill readout.
	outCols := make([]int, len(layout.Cols))
	outRefs := make([]storage.ColRef, len(layout.Cols))
	tempSchema := make(storage.Schema, len(layout.Cols))
	for i, m := range layout.Cols {
		outCols[i] = i
		ref := m.Ref
		if i >= len(agg.GroupBase) {
			ref = storage.ColRef{Column: agg.Specs[i-len(agg.GroupBase)].Name()}
		}
		outRefs[i] = ref
		tempSchema[i] = storage.ColMeta{Ref: ref, Kind: m.Kind}
	}
	scan, err := exec.NewHTScan(ht, outCols, outRefs, nil)
	if err != nil {
		return err
	}
	c.tempSeq++
	temp := exec.NewTempTable(fmt.Sprintf("tmp_agg_%d", c.tempSeq), tempSchema)
	c.pipelines = append(c.pipelines, &exec.Pipeline{Source: scan, Sink: temp})

	lin := probeLin
	lin.Tables = tablesOf(q, (1<<uint(len(q.Relations)))-1)
	lin.Filter = reqFilter
	lin.Aggs = agg.Specs
	c.pending = append(c.pending, pendingReg{lin: lin, sink: temp, schema: tempSchema})

	entry := &TempEntry{Lineage: lin, Table: temp.Table, Schema: tempSchema}
	return c.readoutFromTemp(entry, agg, nil)
}

// freshAggLayout: group keys then one cell per rewritten spec.
func (c *matCompiler) freshAggLayout(agg *optimizer.AggChoice) (hashtable.Layout, error) {
	var cols []storage.ColMeta
	for _, ref := range agg.GroupBase {
		kind, err := c.engine.Cat.Resolve(ref.Table, ref.Column)
		if err != nil {
			return hashtable.Layout{}, err
		}
		cols = append(cols, storage.ColMeta{Ref: ref, Kind: kind})
	}
	for _, s := range agg.Specs {
		cols = append(cols, storage.ColMeta{
			Ref:  storage.ColRef{Column: s.Name()},
			Kind: cellKindOf(c, s),
		})
	}
	return hashtable.Layout{Cols: cols, KeyCols: len(agg.GroupBase)}, nil
}

// attachAggInput mirrors the optimizer's aggregation input wiring.
func (c *matCompiler) attachAggInput(root *optimizer.Node, ht *hashtable.Table, agg *optimizer.AggChoice) error {
	src, tfs, schema, err := c.compileStream(root)
	if err != nil {
		return err
	}
	cells := make([]exec.AggCell, len(agg.Specs))
	for i, s := range agg.Specs {
		kind := cellKindOf(c, s)
		if s.Arg == nil {
			cells[i] = exec.AggCell{Func: s.Func, InCol: -1, Kind: kind}
			continue
		}
		argAlias := aliasExpr(c, s.Arg)
		if col, ok := argAlias.(*expr.Col); ok {
			if j := schema.IndexOf(col.Ref); j >= 0 {
				cells[i] = exec.AggCell{Func: s.Func, InCol: j, Kind: kind}
				continue
			}
		}
		ref := storage.ColRef{Column: fmt.Sprintf("_magg%d", i)}
		comp := exec.NewCompute(argAlias, ref, schema)
		tfs = append(tfs, comp)
		schema = comp.OutSchema()
		cells[i] = exec.AggCell{Func: s.Func, InCol: schema.IndexOf(ref), Kind: kind}
	}
	groupAlias := make([]storage.ColRef, len(agg.GroupBase))
	for i, ref := range agg.GroupBase {
		groupAlias[i] = c.aliasRef(ref)
	}
	sink, err := exec.NewAggHT(ht, groupAlias, cells, schema)
	if err != nil {
		return err
	}
	c.pipelines = append(c.pipelines, &exec.Pipeline{Source: src, Transforms: tfs, Sink: sink})
	return nil
}

func aliasExpr(c *matCompiler, e expr.Expr) expr.Expr {
	switch x := e.(type) {
	case *expr.Col:
		return &expr.Col{Ref: c.aliasRef(x.Ref)}
	case *expr.Const:
		return x
	case *expr.Bin:
		return &expr.Bin{Op: x.Op, L: aliasExpr(c, x.L), R: aliasExpr(c, x.R)}
	}
	return e
}

// readoutFromTemp produces the final result from a materialized
// aggregation output: optional post-filter, AVG reconstruction,
// projection to the query's output names.
func (c *matCompiler) readoutFromTemp(entry *TempEntry, agg *optimizer.AggChoice, postFilter expr.Box) error {
	q := c.q
	src, err := newTempScan(entry, postFilter)
	if err != nil {
		return err
	}
	schema := src.Schema()
	var tfs []exec.Transform

	finalRefs := make([]storage.ColRef, len(q.Aggs))
	for i, orig := range q.Aggs {
		si, ci := agg.SrcIdx[i][0], agg.SrcIdx[i][1]
		if orig.Func == expr.AggAvg && si != ci {
			ref := storage.ColRef{Column: fmt.Sprintf("_mavg%d", i)}
			div := &expr.Bin{Op: expr.OpDiv,
				L: &expr.Col{Ref: storage.ColRef{Column: agg.Specs[si].Name()}},
				R: &expr.Col{Ref: storage.ColRef{Column: agg.Specs[ci].Name()}},
			}
			comp := exec.NewCompute(div, ref, schema)
			tfs = append(tfs, comp)
			schema = comp.OutSchema()
			finalRefs[i] = ref
		} else {
			finalRefs[i] = storage.ColRef{Column: agg.Specs[si].Name()}
		}
	}
	var cols []int
	var names []string
	for _, sel := range q.Select {
		base := baseRefsOf(q, []storage.ColRef{sel})[0]
		j := schema.IndexOf(base)
		if j < 0 {
			return fmt.Errorf("matreuse: select column %v not materialized", sel)
		}
		cols = append(cols, j)
		names = append(names, sel.String())
	}
	for i, orig := range q.Aggs {
		j := schema.IndexOf(finalRefs[i])
		if j < 0 {
			return fmt.Errorf("matreuse: aggregate %v not materialized", finalRefs[i])
		}
		cols = append(cols, j)
		names = append(names, orig.Name())
	}
	proj, err := exec.NewProject(cols, nil, schema)
	if err != nil {
		return err
	}
	collect := exec.NewCollect(proj.OutSchema(), proj.Cols, exec.Order{})
	c.pipelines = append(c.pipelines, &exec.Pipeline{Source: src, Transforms: tfs, Sink: collect})
	c.out = collect
	c.columns = names
	return nil
}
