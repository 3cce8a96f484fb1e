package optimizer

import (
	"fmt"

	"hashstash/internal/costmodel"
	"hashstash/internal/expr"
	"hashstash/internal/htcache"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// Aggregation planning: reuse-aware hash aggregates (RHA). The SPJA
// extension of Algorithm 1 iterates over candidate hash tables for the
// aggregation operator on top of the best SPJ plan; exact reuse may
// eliminate the whole SPJ sub-plan, and the "group-by subset" variant
// adds a post-aggregation (the paper's RollUp case).

// baseQualifySpec rewrites an aggregate's argument to base-qualified
// column references.
func baseQualifySpec(q *plan.Query, s expr.AggSpec) expr.AggSpec {
	out := s
	if s.Arg != nil {
		out.Arg = baseQualifyExpr(q, s.Arg)
	}
	return out
}

func baseQualifyExpr(q *plan.Query, e expr.Expr) expr.Expr {
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
		return &expr.Bin{Op: x.Op, L: baseQualifyExpr(q, x.L), R: baseQualifyExpr(q, x.R)}
	}
	return e
}

// aliasQualifyExpr is the inverse of baseQualifyExpr for this query.
func aliasQualifyExpr(q *plan.Query, e expr.Expr) expr.Expr {
	switch x := e.(type) {
	case *expr.Col:
		ref := x.Ref
		for _, r := range q.Relations {
			if r.Table == ref.Table {
				ref.Table = r.Alias
				break
			}
		}
		return &expr.Col{Ref: ref}
	case *expr.Const:
		return x
	case *expr.Bin:
		return &expr.Bin{Op: x.Op, L: aliasQualifyExpr(q, x.L), R: aliasQualifyExpr(q, x.R)}
	}
	return e
}

// specCellKind returns the hash-table cell kind for an aggregate.
func specCellKind(s expr.AggSpec, argKind types.Kind) types.Kind {
	switch s.Func {
	case expr.AggCount:
		return types.Int64
	case expr.AggSum, expr.AggAvg:
		return types.Float64
	default: // MIN/MAX keep the argument kind (dates fold as ints)
		if argKind == types.Date {
			return types.Int64
		}
		return argKind
	}
}

// argKind resolves an aggregate argument's result kind against the
// catalog (base-qualified arg).
func (o *Optimizer) argKind(s expr.AggSpec) types.Kind {
	if s.Arg == nil {
		return types.Int64
	}
	kind := types.Float64
	if col, ok := s.Arg.(*expr.Col); ok {
		if k, err := o.Cat.Resolve(col.Ref.Table, col.Ref.Column); err == nil {
			kind = k
		}
	}
	return kind
}

// aggRequest is what q's aggregation table must hold: the
// base-qualified group-by columns and AVG-rewritten aggregates, plus
// each original aggregate's cells (see AggChoice.SrcIdx).
func aggRequest(q *plan.Query) (groupBase []storage.ColRef, specs []expr.AggSpec, srcIdx [][2]int) {
	specs, srcIdx = expr.RewriteAvg(q.Aggs)
	for i, s := range specs {
		specs[i] = baseQualifySpec(q, s)
	}
	return baseQualifyRefs(q, q.GroupBy), specs, srcIdx
}

// specsSubsetIdx maps every required spec to its position in the cached
// list, or ok=false.
func specsSubsetIdx(required, cached []expr.AggSpec) ([]int, bool) {
	idx := make([]int, len(required))
	for i, r := range required {
		found := -1
		for j, c := range cached {
			if r.Func != c.Func {
				continue
			}
			if (r.Arg == nil) != (c.Arg == nil) {
				continue
			}
			if r.Arg != nil && !expr.Equal(r.Arg, c.Arg) {
				continue
			}
			found = j
			break
		}
		if found < 0 {
			return nil, false
		}
		idx[i] = found
	}
	return idx, true
}

// PlanQuery plans a full query: the SPJ part via Algorithm 1 plus, for
// SPJA blocks, the reuse-aware aggregation decision.
func (o *Optimizer) PlanQuery(q *plan.Query) (*Planned, error) {
	if err := q.Validate(o.Cat); err != nil {
		return nil, err
	}
	if !q.IsAggregate() {
		root, err := o.planSPJ(q, true)
		if err != nil {
			return nil, err
		}
		return &Planned{Query: q, Root: root, EstimatedCost: root.Cost}, nil
	}
	return o.planAggregate(q)
}

func (o *Optimizer) planAggregate(q *plan.Query) (*Planned, error) {
	// AVG → SUM + COUNT. The paper lists this as a benefit-oriented
	// optimization; here it is unconditional because the execution
	// engine folds averages as sum+count pairs anyway, so the rewrite is
	// both the reuse enabler and the executable form.
	groupBase, specsBase, srcIdx := aggRequest(q)
	reqFilter := q.BaseQualify(q.Filter)
	fullMask := (1 << uint(len(q.Relations))) - 1

	inputRows := o.maskRows(q, fullMask, q.Filter)
	distinct := o.groupDistinct(q, inputRows)
	width := (len(groupBase) + len(specsBase)) * 8

	probeLin := htcache.Lineage{
		Kind:    htcache.Aggregate,
		JoinSig: q.JoinGraphSignature(),
		KeyCols: groupBase,
		GroupBy: groupBase,
		QidCol:  -1,
	}
	probeBox, probeCols := lookupProbe(reqFilter, groupBase)
	probeLin.Filter = probeBox
	o.historyNote(probeLin.StructKey())

	type aggOption struct {
		agg       *AggChoice
		root      *Node // SPJ plan feeding the aggregation (nil if eliminated)
		totalCost float64
	}
	var options []aggOption

	// Fresh aggregation over the best SPJ plan.
	root, err := o.planSPJ(q, true)
	if err != nil {
		return nil, err
	}
	freshOp := o.Model.RHA(costmodel.RHAInput{
		InputRows: inputRows, DistinctKeys: distinct, TupleWidth: width,
	})
	options = append(options, aggOption{
		agg: &AggChoice{
			Choice:    ReuseChoice{Mode: ModeNew, OperatorCost: freshOp},
			GroupBase: groupBase, Specs: specsBase, SrcIdx: srcIdx,
			InputRows: inputRows, DistinctKeys: distinct,
		},
		root:      root,
		totalCost: root.Cost + freshOp,
	})

	if o.Opts.Strategy != NeverReuse {
		// Same-group-by candidates: all four reuse cases.
		for _, cand := range o.Cache.Candidates(probeLin, probeCols) {
			opt, ok := o.classifyAggCandidate(q, cand, reqFilter, groupBase, specsBase, srcIdx, inputRows, distinct)
			if !ok {
				continue
			}
			options = append(options, aggOption{agg: opt.agg, root: nil, totalCost: opt.cost})
		}
		// Superset-group-by candidates (RollUp): exact/subsuming filter,
		// additive aggregates, post-aggregation on top.
		for _, cand := range o.Cache.RollupCandidates(probeLin, probeCols) {
			opt, ok := o.classifyRollupCandidate(q, cand, reqFilter, groupBase, specsBase, srcIdx, inputRows, distinct)
			if !ok {
				continue
			}
			options = append(options, aggOption{agg: opt.agg, root: nil, totalCost: opt.cost})
		}
		// Cold-tier candidates (exact/subsuming only): costed from their
		// demotion-time metadata plus the modeled revival cost; the fresh
		// SPJ plan rides along as the fallback if the entry vanishes
		// before compile.
		for _, ca := range o.Cache.ColdCandidates(probeLin) {
			if ca.IsIndex {
				continue
			}
			opt, ok := o.classifyColdAggCandidate(q, ca, reqFilter, groupBase, specsBase, srcIdx, root, inputRows, distinct)
			if !ok {
				continue
			}
			options = append(options, aggOption{agg: opt.agg, root: nil, totalCost: opt.cost})
		}
	}

	// Stamp each reuse option's modeled saving versus building fresh —
	// credited to the entry's benefit accumulator when compile pins it.
	for i := 1; i < len(options); i++ {
		if d := options[0].totalCost - options[i].totalCost; d > 0 {
			options[i].agg.Choice.SavedCost = d
		}
	}

	// Pick per strategy.
	bestIdx := 0
	switch o.Opts.Strategy {
	case NeverReuse:
		bestIdx = 0
	case AlwaysReuse, Materialized:
		bestContr := -1.0
		for i, opt := range options {
			if opt.agg.Choice.Mode == ModeNew {
				continue
			}
			if opt.agg.Choice.Contr > bestContr {
				bestContr = opt.agg.Choice.Contr
				bestIdx = i
			}
		}
		if bestContr < 0 {
			bestIdx = 0
		}
	default:
		for i, opt := range options {
			if opt.totalCost < options[bestIdx].totalCost {
				bestIdx = i
			}
		}
	}
	chosen := options[bestIdx]
	return &Planned{
		Query:         q,
		Root:          chosen.root,
		Agg:           chosen.agg,
		EstimatedCost: chosen.totalCost,
	}, nil
}

// groupDistinct estimates the number of distinct group keys.
func (o *Optimizer) groupDistinct(q *plan.Query, inputRows float64) float64 {
	d := 1.0
	for _, g := range q.GroupBy {
		rel := q.RelByAlias(g.Table)
		if rel == nil {
			continue
		}
		ts := o.Cat.Stats(rel.Table)
		if ts == nil {
			continue
		}
		d *= ts.DistinctAfterFilter(g.Column, q.Filter)
	}
	if d > inputRows {
		d = inputRows
	}
	if d < 1 {
		d = 1
	}
	return d
}

type aggOptionResult struct {
	agg  *AggChoice
	cost float64
}

// classifyAggCandidate handles same-group-by candidates.
func (o *Optimizer) classifyAggCandidate(q *plan.Query, cand *htcache.Entry, reqFilter expr.Box,
	groupBase []storage.ColRef, specsBase []expr.AggSpec, srcIdx [][2]int,
	inputRows, distinct float64) (aggOptionResult, bool) {

	specIdx, ok := specsSubsetIdx(specsBase, cand.Lineage.Aggs)
	if !ok {
		return aggOptionResult{}, false
	}
	snap := cand.Current()
	if snap == nil || snap.HT == nil {
		// Demoted to the cold tier since Candidates listed it.
		return aggOptionResult{}, false
	}
	layout := snap.HT.Layout()
	rel := expr.Classify(snap.Filter, reqFilter)
	width := layout.RowWidthBytes()
	choice := ReuseChoice{Entry: cand, Snap: snap}
	agg := &AggChoice{
		GroupBase: groupBase, Specs: specsBase, SrcIdx: srcIdx,
		CachedSpecIdx: specIdx, InputRows: inputRows, DistinctKeys: distinct,
	}

	switch rel {
	case expr.RelEqual:
		choice.Mode = ModeExact
		choice.Contr = 1

	case expr.RelSubsuming:
		// Post-filtering groups is only sound when every predicate
		// column is a group-by column (each group wholly in or out) —
		// which is exactly "the attributes needed to test post are in
		// the hash table".
		if !boxColsInLayout(layout, reqFilter) {
			return aggOptionResult{}, false
		}
		choice.Mode = ModeSubsuming
		choice.Contr = 1
		choice.PostFilter = reqFilter
		choice.Overh = o.overheadRatio(q, (1<<uint(len(q.Relations)))-1, snap, reqFilter)

	case expr.RelPartial, expr.RelOverlapping:
		if rel == expr.RelPartial && !o.Opts.EnablePartial {
			return aggOptionResult{}, false
		}
		if rel == expr.RelOverlapping && !o.Opts.EnableOverlapping {
			return aggOptionResult{}, false
		}
		// Overlapping reuse post-filters the cached groups: reject it on
		// the layout before the residual and union allocate.
		if rel == expr.RelOverlapping && !boxColsInLayout(layout, reqFilter) {
			return aggOptionResult{}, false
		}
		// Folding more tuples into existing groups requires additive
		// aggregates.
		for _, s := range specsBase {
			if !s.Func.Additive() {
				return aggOptionResult{}, false
			}
		}
		residual, ok := reqFilter.Difference(snap.Filter)
		if !ok {
			return aggOptionResult{}, false
		}
		newFilter, ok := unionIfBox(snap.Filter, reqFilter)
		if !ok {
			return aggOptionResult{}, false
		}
		if rel == expr.RelOverlapping {
			choice.Mode = ModeOverlapping
			choice.PostFilter = reqFilter
		} else {
			choice.Mode = ModePartial
		}
		choice.NewFilter = newFilter
		fullMask := (1 << uint(len(q.Relations))) - 1
		choice.Contr = o.contributionRatio(q, fullMask, snap, reqFilter)
		choice.Overh = o.overheadRatio(q, fullMask, snap, reqFilter)
		choice.MissingRows = distinct * (1 - choice.Contr)
		// Each residual box becomes an SPJ plan with overridden filters.
		for _, rb := range residual {
			rq := *q
			rq.Filter = q.AliasQualify(rb)
			rroot, err := o.planSPJ(&rq, true)
			if err != nil {
				return aggOptionResult{}, false
			}
			agg.ResidualRoots = append(agg.ResidualRoots, rroot)
			choice.ResidualBoxes = append(choice.ResidualBoxes, rq.Filter)
		}

	default:
		return aggOptionResult{}, false
	}

	// Cost: residual SPJ plans + RHA with the candidate's statistics.
	var inputCost float64
	residRows := 0.0
	for _, rr := range agg.ResidualRoots {
		inputCost += rr.Cost
		residRows += rr.OutRows
	}
	rhaIn := costmodel.RHAInput{
		InputRows:    inputRows,
		DistinctKeys: distinct,
		Contr:        choice.Contr,
		Overh:        choice.Overh,
		CandRows:     float64(snap.HT.Len()),
		TupleWidth:   width,
	}
	if choice.Mode == ModeExact || choice.Mode == ModeSubsuming {
		rhaIn.InputRows = 0
		rhaIn.DistinctKeys = 0
	}
	opCost := o.Model.RHA(rhaIn)
	choice.OperatorCost = opCost
	agg.Choice = choice
	return aggOptionResult{agg: agg, cost: inputCost + opCost}, true
}

// classifyRollupCandidate handles superset-group-by candidates: the
// cached table groups by more columns than requested; a
// post-aggregation folds it down (all aggregates must be additive).
func (o *Optimizer) classifyRollupCandidate(q *plan.Query, cand *htcache.Entry, reqFilter expr.Box,
	groupBase []storage.ColRef, specsBase []expr.AggSpec, srcIdx [][2]int,
	inputRows, distinct float64) (aggOptionResult, bool) {

	for _, s := range specsBase {
		if !s.Func.Additive() {
			return aggOptionResult{}, false
		}
	}
	specIdx, ok := specsSubsetIdx(specsBase, cand.Lineage.Aggs)
	if !ok {
		return aggOptionResult{}, false
	}
	snap := cand.Current()
	if snap == nil || snap.HT == nil {
		return aggOptionResult{}, false
	}
	rel := expr.Classify(snap.Filter, reqFilter)
	choice := ReuseChoice{Entry: cand, Snap: snap}
	switch rel {
	case expr.RelEqual:
		choice.Mode = ModeExact
		choice.Contr = 1
	case expr.RelSubsuming:
		if !boxColsInLayout(snap.HT.Layout(), reqFilter) {
			return aggOptionResult{}, false
		}
		choice.Mode = ModeSubsuming
		choice.Contr = 1
		choice.PostFilter = reqFilter
		choice.Overh = o.overheadRatio(q, (1<<uint(len(q.Relations)))-1, snap, reqFilter)
	default:
		return aggOptionResult{}, false
	}

	// Cost: scan the cached groups + re-aggregate into the smaller table.
	candRows := float64(snap.HT.Len())
	width := (len(groupBase) + len(specsBase)) * 8
	opCost := o.Model.RHA(costmodel.RHAInput{
		InputRows:    candRows,
		DistinctKeys: distinct,
		Contr:        0, // the post-aggregation itself is computed fresh
		Overh:        choice.Overh,
		TupleWidth:   width,
	})
	choice.OperatorCost = opCost
	agg := &AggChoice{
		Choice:    choice,
		GroupBase: groupBase, Specs: specsBase, SrcIdx: srcIdx,
		CachedSpecIdx: specIdx, PostAgg: true,
		InputRows: candRows, DistinctKeys: distinct,
	}
	return aggOptionResult{agg: agg, cost: opCost}, true
}

// classifyColdAggCandidate costs a cold-tier aggregate candidate from
// its demotion-time metadata (filter, layout, row count) plus the
// modeled revival cost. Only exact/subsuming classifications apply:
// widening a cold artifact would pay revival just to copy it, at which
// point building fresh is never worse under the model.
func (o *Optimizer) classifyColdAggCandidate(q *plan.Query, ca *htcache.ColdArtifact, reqFilter expr.Box,
	groupBase []storage.ColRef, specsBase []expr.AggSpec, srcIdx [][2]int,
	freshRoot *Node, inputRows, distinct float64) (aggOptionResult, bool) {

	specIdx, ok := specsSubsetIdx(specsBase, ca.Entry.Lineage.Aggs)
	if !ok {
		return aggOptionResult{}, false
	}
	choice := ReuseChoice{Entry: ca.Entry, Cold: ca}
	width := ca.Layout.RowWidthBytes()
	fullMask := (1 << uint(len(q.Relations))) - 1

	switch expr.Classify(ca.Filter, reqFilter) {
	case expr.RelEqual:
		choice.Mode = ModeExact
		choice.Contr = 1
	case expr.RelSubsuming:
		if !boxColsInLayout(ca.Layout, reqFilter) {
			return aggOptionResult{}, false
		}
		choice.Mode = ModeSubsuming
		choice.Contr = 1
		choice.PostFilter = reqFilter
		choice.Overh = o.overheadRatioRows(q, fullMask, ca.Filter, float64(ca.Rows), reqFilter)
	default:
		return aggOptionResult{}, false
	}

	opCost := o.Model.RHA(costmodel.RHAInput{
		Contr: choice.Contr, Overh: choice.Overh,
		CandRows: float64(ca.Rows), TupleWidth: width,
	})
	reviveCost := o.Model.ReviveCost(float64(ca.Rows), width)
	choice.OperatorCost = opCost
	agg := &AggChoice{
		Choice:    choice,
		GroupBase: groupBase, Specs: specsBase, SrcIdx: srcIdx,
		CachedSpecIdx: specIdx, FreshRoot: freshRoot,
		InputRows: inputRows, DistinctKeys: distinct,
	}
	return aggOptionResult{agg: agg, cost: reviveCost + opCost}, true
}

// Decisions derives the per-operator decision log (the paper's Table 8b
// N/S/X strings) from a planned query.
func (p *Planned) Decisions() []Decision {
	var out []Decision
	aggEliminatedJoins := p.Query.IsAggregate() && p.Root == nil &&
		p.Agg != nil && len(p.Agg.ResidualRoots) == 0

	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.Kind == nodeJoin {
			action := byte('N')
			entryID := int64(-1)
			if nodeReuse(n) {
				action = 'S'
				entryID = n.Reuse.Entry.ID
			}
			out = append(out, Decision{
				Operator: fmt.Sprintf("build(%s)", buildTables(p.Query, n.BuildMask)),
				Action:   action,
				Mode:     n.Reuse.Mode,
				EntryID:  entryID,
			})
			walk(n.Build)
			walk(n.Probe)
		}
	}
	if p.Root != nil {
		walk(p.Root)
	}
	for _, rr := range p.Agg.residualRootsOrNil() {
		walk(rr)
	}
	if aggEliminatedJoins {
		for range p.Query.Joins {
			out = append(out, Decision{Operator: "build(-)", Action: 'X', Mode: ModeNew, EntryID: -1})
		}
	}
	if p.Agg != nil {
		action := byte('N')
		entryID := int64(-1)
		if p.Agg.Choice.Mode != ModeNew {
			action = 'S'
			entryID = p.Agg.Choice.Entry.ID
		}
		out = append(out, Decision{Operator: "agg", Action: action, Mode: p.Agg.Choice.Mode, EntryID: entryID})
	}
	return out
}

func (a *AggChoice) residualRootsOrNil() []*Node {
	if a == nil {
		return nil
	}
	return a.ResidualRoots
}

func buildTables(q *plan.Query, mask int) string {
	s := ""
	for i, rel := range q.Relations {
		if mask&(1<<uint(i)) != 0 {
			if s != "" {
				s += "+"
			}
			s += rel.Table
		}
	}
	return s
}
