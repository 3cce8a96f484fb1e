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

// probeBox is the request box a cache lookup carries, so the cache
// returns only candidates not provably disjoint from it. Tests swap in a
// nil-returning func to force the full-bucket lookup and check that no
// decision changes.
var probeBox = func(req expr.Box) expr.Box { return req }

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

// aliasForTable finds the alias of a base table in the query.
func aliasForTable(q *plan.Query, table string) string {
	for _, r := range q.Relations {
		if r.Table == table {
			return r.Alias
		}
	}
	return table
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

// classifyJoinCandidate classifies one cached table against a join
// build request and produces the rewrite, or ok=false if it cannot be
// used. reqFilter is base-qualified. The candidate's snapshot is
// resolved once here and carried in the choice: content (filter) and
// statistics come from that one version, and partial/overlapping reuse
// widens exactly it.
func (o *Optimizer) classifyJoinCandidate(q *plan.Query, mask int, e *htcache.Entry,
	reqFilter expr.Box, reqCols []storage.ColRef) (ReuseChoice, bool) {

	snap := e.Current()
	if snap == nil || snap.HT == nil {
		return ReuseChoice{}, false // demoted/spilled since retrieval
	}
	layout := snap.HT.Layout()
	if !layoutHasCols(layout, reqCols) {
		return ReuseChoice{}, false
	}
	rel := expr.Classify(snap.Filter, reqFilter)
	choice := ReuseChoice{Entry: e, Snap: snap}

	switch rel {
	case expr.RelEqual:
		choice.Mode = ModeExact
		choice.Contr, choice.Overh = 1, 0
		return choice, true

	case expr.RelSubsuming:
		if !boxColsInLayout(layout, reqFilter) {
			return ReuseChoice{}, false
		}
		choice.Mode = ModeSubsuming
		choice.PostFilter = reqFilter
		choice.Contr = 1
		choice.Overh = o.overheadRatio(q, mask, snap, reqFilter)
		return choice, true

	case expr.RelPartial, expr.RelOverlapping:
		if rel == expr.RelPartial && !o.Opts.EnablePartial {
			return ReuseChoice{}, false
		}
		if rel == expr.RelOverlapping && !o.Opts.EnableOverlapping {
			return ReuseChoice{}, false
		}
		relIdx, single := singleRelation(mask)
		if !single {
			// Adding missing tuples to a multi-relation build side would
			// require re-running its join over residual predicates; join
			// tables restrict partial reuse to single-relation builds
			// (aggregates implement the general case).
			return ReuseChoice{}, false
		}
		// The residual scan must be able to fill every layout column.
		tbl := o.Cat.Table(q.Relations[relIdx].Table)
		for _, m := range layout.Cols {
			if tbl.Column(m.Ref.Column) == nil {
				return ReuseChoice{}, false
			}
		}
		residualBase, ok := reqFilter.Difference(snap.Filter)
		if !ok {
			return ReuseChoice{}, false
		}
		newFilter, ok := unionIfBox(snap.Filter, reqFilter)
		if !ok {
			return ReuseChoice{}, false
		}
		if rel == expr.RelOverlapping {
			if !boxColsInLayout(layout, reqFilter) {
				return ReuseChoice{}, false
			}
			choice.Mode = ModeOverlapping
			choice.PostFilter = reqFilter
		} else {
			choice.Mode = ModePartial
		}
		for _, rb := range residualBase {
			choice.ResidualBoxes = append(choice.ResidualBoxes, q.AliasQualify(rb))
		}
		choice.NewFilter = newFilter
		choice.Contr = o.contributionRatio(q, mask, snap, reqFilter)
		choice.Overh = o.overheadRatio(q, mask, snap, reqFilter)
		return choice, true
	}
	return ReuseChoice{}, false
}

// contributionRatio estimates |cand ∩ req| / |req| over the masked
// relations.
func (o *Optimizer) contributionRatio(q *plan.Query, mask int, snap *htcache.Snapshot, reqFilter expr.Box) float64 {
	reqAlias := q.AliasQualify(reqFilter)
	interAlias := q.AliasQualify(reqFilter.Intersect(snap.Filter))
	reqRows := o.maskRows(q, mask, reqAlias)
	interRows := o.maskRows(q, mask, interAlias)
	if reqRows <= 0 {
		return 1
	}
	c := interRows / reqRows
	if c > 1 {
		c = 1
	}
	if c < 0 {
		c = 0
	}
	return c
}

// overheadRatio estimates |cand \ req| / |cand| using the candidate
// snapshot's actual entry count.
func (o *Optimizer) overheadRatio(q *plan.Query, mask int, snap *htcache.Snapshot, reqFilter expr.Box) float64 {
	return o.overheadRatioRows(q, mask, snap.Filter, float64(snap.HT.Len()), reqFilter)
}

// overheadRatioRows is overheadRatio over explicit candidate content
// (filter + row count) — cold candidates are costed from their
// demotion-time metadata without touching the artifact.
func (o *Optimizer) overheadRatioRows(q *plan.Query, mask int, candFilter expr.Box, candRows float64, reqFilter expr.Box) float64 {
	if candRows <= 0 {
		return 0
	}
	interAlias := q.AliasQualify(reqFilter.Intersect(candFilter))
	interRows := o.maskRows(q, mask, interAlias)
	ov := 1 - interRows/candRows
	if ov < 0 {
		ov = 0
	}
	if ov > 1 {
		ov = 1
	}
	return ov
}

// joinBuildOptions enumerates the ways to obtain the build-side hash
// table for partition `mask` with the given build keys: a fresh table
// plus every classifiable cached candidate. proberRows feeds the RHJ
// probe-cost term.
func (o *Optimizer) joinBuildOptions(q *plan.Query, mask int, buildKeys []storage.ColRef,
	proberRows float64, needed map[string][]string, best func(int) *Node) []buildOption {

	reqFilter := q.BaseQualify(maskFilter(q, mask))
	reqCols := o.requiredBuildCols(q, mask, needed)
	keyBase := baseQualifyRefs(q, buildKeys)

	probeLin := htcache.Lineage{
		Kind:    htcache.JoinBuild,
		JoinSig: q.SubgraphSignature(mask),
		KeyCols: keyBase,
		Filter:  probeBox(reqFilter),
		QidCol:  -1,
	}
	o.historyNote(probeLin.StructKey())

	builderRows := o.maskRows(q, mask, q.AliasQualify(reqFilter))
	width := o.freshJoinWidth(buildKeys, reqCols)

	var opts []buildOption

	// Fresh build.
	bp := best(mask)
	freshCost := o.Model.RHJ(costmodel.RHJInput{
		BuilderRows: builderRows, ProberRows: proberRows, TupleWidth: width,
	})
	opts = append(opts, buildOption{
		choice:    ReuseChoice{Mode: ModeNew, OperatorCost: freshCost},
		buildPlan: bp,
		inputCost: bp.Cost,
		totalCost: bp.Cost + freshCost,
	})

	if o.Opts.Strategy == NeverReuse {
		return opts
	}

	for _, cand := range o.Cache.Candidates(probeLin) {
		choice, ok := o.classifyJoinCandidate(q, mask, cand, reqFilter, reqCols)
		if !ok {
			continue
		}
		candWidth := choice.Snap.HT.Layout().RowWidthBytes()
		opCost := o.Model.RHJ(costmodel.RHJInput{
			BuilderRows: builderRows, ProberRows: proberRows,
			Contr: choice.Contr, Overh: choice.Overh,
			CandRows: float64(choice.Snap.HT.Len()), TupleWidth: candWidth,
		})
		choice.OperatorCost = opCost
		var inputCost float64
		if len(choice.ResidualBoxes) > 0 {
			relIdx, _ := singleRelation(mask)
			inputCost = o.scanCost(q, relIdx, choice.ResidualBoxes, len(choice.Snap.HT.Layout().Cols))
		}
		opts = append(opts, buildOption{
			choice:    choice,
			inputCost: inputCost,
			totalCost: inputCost + opCost,
		})
	}

	// Cold-tier candidates: classified from demotion-time metadata,
	// charged ReviveCost on top of the operator estimate. Only exact and
	// subsuming qualify (widening a cold artifact would revive it just
	// to copy it). The fresh build plan rides along as the fallback for
	// a revival that loses the entry (evicted between plan and compile).
	for _, ca := range o.Cache.ColdCandidates(probeLin) {
		if ca.IsIndex || !layoutHasCols(ca.Layout, reqCols) {
			continue
		}
		choice := ReuseChoice{Entry: ca.Entry, Cold: ca}
		switch expr.Classify(ca.Filter, reqFilter) {
		case expr.RelEqual:
			choice.Mode = ModeExact
			choice.Contr, choice.Overh = 1, 0
		case expr.RelSubsuming:
			if !boxColsInLayout(ca.Layout, reqFilter) {
				continue
			}
			choice.Mode = ModeSubsuming
			choice.PostFilter = reqFilter
			choice.Contr = 1
			choice.Overh = o.overheadRatioRows(q, mask, ca.Filter, float64(ca.Rows), reqFilter)
		default:
			continue
		}
		candWidth := ca.Layout.RowWidthBytes()
		opCost := o.Model.RHJ(costmodel.RHJInput{
			BuilderRows: builderRows, ProberRows: proberRows,
			Contr: choice.Contr, Overh: choice.Overh,
			CandRows: float64(ca.Rows), TupleWidth: candWidth,
		})
		choice.OperatorCost = opCost
		reviveCost := o.Model.ReviveCost(float64(ca.Rows), candWidth)
		opts = append(opts, buildOption{
			choice:    choice,
			buildPlan: bp,
			inputCost: reviveCost,
			totalCost: reviveCost + opCost,
		})
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
