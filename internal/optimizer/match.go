package optimizer

import (
	"hashstash/internal/costmodel"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/htcache"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
)

// Matching and rewriting (Section 3.3): given the plan fragment an
// operator requests (its join-graph partition, key columns, payload
// columns and predicate box), find cached hash tables that qualify, and
// classify each into one of the four reuse cases with the rewrites the
// case needs.

// buildOption is one alternative way to obtain the build side's table.
type buildOption struct {
	choice ReuseChoice
	// buildPlan produces the build input when the table is built fresh.
	buildPlan *Node
	// inputCost is the cost of producing the build input: the fresh
	// sub-plan's cost, or the residual scans' cost for partial reuse.
	inputCost float64
	// totalCost = inputCost + choice.OperatorCost (RHJ estimate).
	totalCost float64
}

// lookupProbe returns what a cache lookup carries: the request box and
// the columns the operator needs the cached table to store, so the
// cache returns only candidates whose shape some reuse case can accept.
// Tests swap in a func returning neither to force the full-bucket
// lookup and check that no decision changes.
var lookupProbe = func(req expr.Box, stored []storage.ColRef) (expr.Box, []storage.ColRef) {
	return req, stored
}

// baseQualifyRefs translates alias-qualified refs to base-qualified.
func baseQualifyRefs(q *plan.Query, refs []storage.ColRef) []storage.ColRef {
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

// aliasIn returns the alias of the relation of the masked set that
// reads the base table: the relation instance that a base-qualified
// column of a plan fragment over those relations stands for. The
// instance is unique because no fragment the optimizer builds, caches
// or merges repeats a table (plan.Query.RepeatsTable). A column with no
// table (the qid column) keeps its empty table.
func aliasIn(q *plan.Query, mask int, table string) string {
	for i, r := range q.Relations {
		if mask&(1<<uint(i)) != 0 && r.Table == table {
			return r.Alias
		}
	}
	return table
}

// aliasQualifyIn translates a base-qualified box onto the instances of
// the masked relations (plan.Query.AliasQualify picks a table's first
// alias, which a self-join's other instance does not answer to).
func aliasQualifyIn(q *plan.Query, mask int, box expr.Box) expr.Box {
	out := make(expr.Box, 0, len(box))
	for _, p := range box {
		out = append(out, expr.Pred{Col: storage.ColRef{Table: aliasIn(q, mask, p.Col.Table), Column: p.Col.Column}, Con: p.Con})
	}
	return expr.NewBox(out...)
}

// requiredBuildCols lists the base-qualified columns the probe must be
// able to emit from the build-side table (needed downstream), in
// deterministic order.
func (o *Optimizer) requiredBuildCols(q *plan.Query, mask int, needed map[string][]string) []storage.ColRef {
	var out []storage.ColRef
	for i, rel := range q.Relations {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		for _, col := range needed[rel.Alias] {
			out = append(out, storage.ColRef{Table: rel.Table, Column: col})
		}
	}
	return out
}

// layoutHasCols reports whether every ref is present in the layout.
func layoutHasCols(layout hashtable.Layout, refs []storage.ColRef) bool {
	for _, r := range refs {
		if layout.ColIndex(r) < 0 {
			return false
		}
	}
	return true
}

// boxColsInLayout reports whether every predicate column of the box is
// stored in the candidate's layout (needed to evaluate post-filters).
func boxColsInLayout(layout hashtable.Layout, box expr.Box) bool {
	for _, p := range box {
		if layout.ColIndex(p.Col) < 0 {
			return false
		}
	}
	return true
}

// singleRelation reports whether the mask covers exactly one relation
// and returns its index.
func singleRelation(mask int) (int, bool) {
	if mask == 0 || mask&(mask-1) != 0 {
		return 0, false
	}
	idx := 0
	for mask>>uint(idx+1) != 0 {
		idx++
	}
	return idx, true
}

// candidate is one cached table as the classifier sees it: its
// content (lineage filter, layout and entry count) read from a hot
// entry's snapshot, or from a cold artifact's demotion-time metadata
// without touching the artifact.
type candidate struct {
	entry *htcache.Entry
	// snap is the hot snapshot classified; nil for a cold candidate,
	// which compile revives.
	snap   *htcache.Snapshot
	cold   *htcache.ColdArtifact
	filter expr.Box
	layout hashtable.Layout
	rows   float64
	// rollup marks a hot aggregate grouped by a strict superset of the
	// requested group-by (a post-aggregation folds it down).
	rollup bool
}

// candidates lists the cached tables an operator may reuse, in the
// order their options are costed: the hot entries matching probe, then
// with rollups the hot entries grouped by a superset of probe.GroupBy,
// then the cold-tier artifacts of probe's structure. Hot entries
// demoted since the lookup are skipped; cold secondary indexes never
// match, because the structural key names the artifact kind.
func (o *Optimizer) candidates(probe htcache.Lineage, stored []storage.ColRef, rollups bool) []candidate {
	var out []candidate
	addHot := func(entries []*htcache.Entry, rollup bool) {
		for _, e := range entries {
			if snap := e.Current(); snap != nil && snap.HT != nil {
				out = append(out, candidate{entry: e, snap: snap, filter: snap.Filter,
					layout: snap.HT.Layout(), rows: float64(snap.HT.Len()), rollup: rollup})
			}
		}
	}
	addHot(o.Cache.Candidates(probe, stored), false)
	if rollups {
		addHot(o.Cache.RollupCandidates(probe, stored), true)
	}
	for _, ca := range o.Cache.ColdCandidates(probe) {
		out = append(out, candidate{entry: ca.Entry, cold: ca, filter: ca.Filter,
			layout: ca.Layout, rows: float64(ca.Rows)})
	}
	return out
}

// classify decides which of the four reuse cases (Section 3.2) cand
// offers a request for the base-qualified box req over the relations in
// mask, and fills in the choice's rewrite: the post-filter for
// subsuming and overlapping reuse; for partial and overlapping reuse the
// alias-qualified residual boxes whose tuples are missing and the
// widened table's filter. widen reports whether the operator can add
// missing tuples to a copy of the table; without it, under the
// Materialized strategy, or with the case's ablation switch set, only
// exact and subsuming reuse qualify. ok is false when no case applies.
func (o *Optimizer) classify(q *plan.Query, mask int, cand candidate, req expr.Box, widen bool) (ReuseChoice, bool) {
	choice := ReuseChoice{Entry: cand.entry, Snap: cand.snap, Cold: cand.cold}
	rel := expr.Classify(cand.filter, req)
	switch rel {
	case expr.RelEqual:
		choice.Mode = ModeExact
		choice.Contr = 1
		return choice, true

	case expr.RelSubsuming:
		// Post-filtering needs every predicate column stored (for an
		// aggregate: every predicate column a group-by column, so each
		// group is wholly in or out).
		if !boxColsInLayout(cand.layout, req) {
			return ReuseChoice{}, false
		}
		choice.Mode = ModeSubsuming
		choice.PostFilter = req
		choice.Contr = 1
		choice.Overh = o.overheadRatio(q, mask, cand, req)
		return choice, true

	case expr.RelPartial, expr.RelOverlapping:
		if !widen || o.Opts.Strategy == Materialized ||
			rel == expr.RelPartial && o.Opts.NoPartialReuse ||
			rel == expr.RelOverlapping && o.Opts.NoOverlappingReuse {
			return ReuseChoice{}, false
		}
		// Overlapping reuse post-filters the cached table: reject it on
		// the layout before the residual and union allocate.
		if rel == expr.RelOverlapping && !boxColsInLayout(cand.layout, req) {
			return ReuseChoice{}, false
		}
		residual, ok := req.Difference(cand.filter)
		if !ok {
			return ReuseChoice{}, false
		}
		newFilter, ok := unionIfBox(cand.filter, req)
		if !ok {
			return ReuseChoice{}, false
		}
		if rel == expr.RelOverlapping {
			choice.Mode = ModeOverlapping
			choice.PostFilter = req
		} else {
			choice.Mode = ModePartial
		}
		for _, rb := range residual {
			choice.ResidualBoxes = append(choice.ResidualBoxes, aliasQualifyIn(q, mask, rb))
		}
		choice.NewFilter = newFilter
		choice.Contr = o.contributionRatio(q, mask, cand, req)
		choice.Overh = o.overheadRatio(q, mask, cand, req)
		return choice, true
	}
	return ReuseChoice{}, false
}

// widens reports whether the choice adds missing tuples to a copy of
// the cached table.
func (r *ReuseChoice) widens() bool { return r.Mode == ModePartial || r.Mode == ModeOverlapping }

// contributionRatio estimates |cand ∩ req| / |req| over the masked
// relations.
func (o *Optimizer) contributionRatio(q *plan.Query, mask int, cand candidate, req expr.Box) float64 {
	reqRows := o.maskRows(q, mask, aliasQualifyIn(q, mask, req))
	interRows := o.maskRows(q, mask, aliasQualifyIn(q, mask, req.Intersect(cand.filter)))
	if reqRows <= 0 {
		return 1
	}
	return min(max(interRows/reqRows, 0), 1)
}

// overheadRatio estimates |cand \ req| / |cand| from the candidate's
// entry count.
func (o *Optimizer) overheadRatio(q *plan.Query, mask int, cand candidate, req expr.Box) float64 {
	if cand.rows <= 0 {
		return 0
	}
	interRows := o.maskRows(q, mask, aliasQualifyIn(q, mask, req.Intersect(cand.filter)))
	return min(max(1-interRows/cand.rows, 0), 1)
}

// joinBuildOptions enumerates the ways to obtain the build-side hash
// table for partition `mask` with the given build keys: a fresh table
// plus every classifiable cached candidate. proberRows feeds the RHJ
// probe-cost term. A join widens only a single-relation build whose
// base table can fill every layout column: adding missing tuples to a
// multi-relation build would re-run its join over the residual
// predicates (aggregates implement that general case). A cold candidate
// is charged ReviveCost on top of the operator estimate and carries the
// fresh build plan as the fallback for a revival that loses the entry
// (evicted between plan and compile).
func (o *Optimizer) joinBuildOptions(ctx *planContext, mask int, buildKeys []storage.ColRef, proberRows float64) []buildOption {
	q := ctx.q
	reqFilter := q.BaseQualify(maskFilter(q, mask))
	reqCols := o.requiredBuildCols(q, mask, ctx.needed)
	keyBase := baseQualifyRefs(q, buildKeys)

	probeLin := htcache.Lineage{
		Kind:    htcache.JoinBuild,
		JoinSig: q.SubgraphSignature(mask),
		KeyCols: keyBase,
		QidCol:  -1,
	}
	probeBox, probeCols := lookupProbe(reqFilter, reqCols)
	probeLin.Filter = probeBox
	o.historyNote(probeLin.StructKey())

	builderRows := o.maskRows(q, mask, aliasQualifyIn(q, mask, reqFilter))
	width := o.freshJoinWidth(buildKeys, reqCols)

	var opts []buildOption

	// Fresh build.
	bp := o.bestPlan(ctx, mask)
	freshCost := o.Model.RHJ(costmodel.RHJInput{
		BuilderRows: builderRows, ProberRows: proberRows, TupleWidth: width,
	})
	opts = append(opts, buildOption{
		choice:    ReuseChoice{Mode: ModeNew, OperatorCost: freshCost},
		buildPlan: bp,
		inputCost: bp.Cost,
		totalCost: bp.Cost + freshCost,
	})

	if o.Opts.Strategy == NeverReuse || ctx.noReuse {
		return opts
	}

	relIdx, single := singleRelation(mask)
	for _, cand := range o.candidates(probeLin, probeCols, false) {
		if !layoutHasCols(cand.layout, reqCols) {
			continue
		}
		widen := single && cand.cold == nil && o.canFill(q.Relations[relIdx].Table, cand.layout)
		choice, ok := o.classify(q, mask, cand, reqFilter, widen)
		if !ok {
			continue
		}
		candWidth := cand.layout.RowWidthBytes()
		choice.MissingRows = builderRows * (1 - choice.Contr)
		choice.OperatorCost = o.Model.RHJ(costmodel.RHJInput{
			BuilderRows: builderRows, ProberRows: proberRows,
			Contr: choice.Contr, Overh: choice.Overh,
			CandRows: cand.rows, TupleWidth: candWidth,
		})
		opt := buildOption{choice: choice}
		switch {
		case cand.cold != nil:
			opt.buildPlan = bp
			opt.inputCost = o.Model.ReviveCost(cand.rows, candWidth)
		case choice.widens():
			opt.inputCost = o.scanCost(q, relIdx, choice.ResidualBoxes, len(cand.layout.Cols))
		}
		opt.totalCost = opt.inputCost + choice.OperatorCost
		opts = append(opts, opt)
	}

	// Stamp each reuse option's modeled saving versus the fresh build;
	// compile feeds it to the cache's benefit accumulator at pin time.
	for i := 1; i < len(opts); i++ {
		if d := opts[0].totalCost - opts[i].totalCost; d > 0 {
			opts[i].choice.SavedCost = d
		}
	}
	return opts
}

// canFill reports whether a scan of the base table can produce every
// column of layout (a residual scan widening a join build must).
func (o *Optimizer) canFill(table string, layout hashtable.Layout) bool {
	tbl := o.Cat.Table(table)
	for _, m := range layout.Cols {
		if tbl.Column(m.Ref.Column) == nil {
			return false
		}
	}
	return true
}

// freshJoinWidth computes the payload width of a fresh build-side table
// (key columns plus needed columns, deduplicated).
func (o *Optimizer) freshJoinWidth(keys []storage.ColRef, reqCols []storage.ColRef) int {
	seen := map[storage.ColRef]bool{}
	n := 0
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			n++
		}
	}
	for _, c := range reqCols {
		if !seen[c] {
			seen[c] = true
			n++
		}
	}
	return n * 8
}
