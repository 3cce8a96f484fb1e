package optimizer

import (
	"fmt"
	"slices"

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
// catalog (the arg named as in q's aggregation table, see aggRequest).
func (o *Optimizer) argKind(q *plan.Query, s expr.AggSpec) types.Kind {
	if s.Arg == nil {
		return types.Int64
	}
	kind := types.Float64
	if col, ok := s.Arg.(*expr.Col); ok {
		if k, err := o.aggColKind(q, col.Ref); err == nil {
			kind = k
		}
	}
	return kind
}

// aggColKind resolves a column named as in q's aggregation table
// against the catalog.
func (o *Optimizer) aggColKind(q *plan.Query, ref storage.ColRef) (types.Kind, error) {
	if selfJoin(q) {
		ref = baseQualifyRefs(q, []storage.ColRef{ref})[0]
	}
	return o.Cat.Resolve(ref.Table, ref.Column)
}

// selfJoin reports whether two of q's relations read one base table.
func selfJoin(q *plan.Query) bool {
	return q.RepeatsTable(1<<uint(len(q.Relations)) - 1)
}

// aggRequest is what q's aggregation table must hold: the group-by
// columns and AVG-rewritten aggregates, plus each original aggregate's
// cells (see AggChoice.SrcIdx). They are base-qualified, so that a
// later query over any aliases can reuse the table, except in a
// self-join: a base name cannot tell its instances apart, so the
// query's own aliases name them. A self-join's aggregate is never
// cached, so no other query reads those names.
func aggRequest(q *plan.Query) (groupBase []storage.ColRef, specs []expr.AggSpec, srcIdx [][2]int) {
	specs, srcIdx = expr.RewriteAvg(q.Aggs)
	if selfJoin(q) {
		return slices.Clone(q.GroupBy), specs, srcIdx
	}
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

	var options []aggOption

	// Fresh aggregation over the best SPJ plan.
	root, err := o.planSPJ(q, true)
	if err != nil {
		return nil, err
	}
	freshOp := o.Model.RHA(costmodel.RHAInput{
		InputRows: inputRows, DistinctKeys: distinct, TupleWidth: width,
	})
	freshAgg := &AggChoice{
		Choice:    ReuseChoice{Mode: ModeNew, OperatorCost: freshOp},
		GroupBase: groupBase, Specs: specsBase, SrcIdx: srcIdx,
		InputRows: inputRows, DistinctKeys: distinct,
	}
	options = append(options, aggOption{agg: freshAgg, root: root, totalCost: root.Cost + freshOp})

	// A self-join's aggregate is never cached (its lineage cannot say
	// which instance a column belongs to), so nothing can serve it.
	if o.Opts.Strategy != NeverReuse && !selfJoin(q) {
		for _, cand := range o.candidates(probeLin, probeCols, true) {
			opt, ok := o.aggReuseOption(q, cand, reqFilter, freshAgg, root)
			if !ok {
				continue
			}
			options = append(options, opt)
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
		ts, ok := o.Cat.Stats(rel.Table)
		if !ok {
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

// aggOption is one way to obtain the aggregation table.
type aggOption struct {
	agg       *AggChoice
	root      *Node // SPJ plan feeding the aggregation (nil if eliminated)
	totalCost float64
}

// aggReuseOption classifies one cached table for the aggregation fresh
// describes (fresh.Choice is the fresh build; freshRoot its SPJ plan)
// and costs it with RHA. A same-group-by hot table widens when every
// aggregate is additive (folding more tuples into existing groups),
// each residual box becoming an SPJ plan with an overridden filter. A
// roll-up table is scanned and post-aggregated into the smaller
// grouping. A cold table costs its revival on top and carries the fresh
// plan as the fallback for an entry gone before compile.
func (o *Optimizer) aggReuseOption(q *plan.Query, cand candidate, reqFilter expr.Box, fresh *AggChoice, freshRoot *Node) (aggOption, bool) {
	additive := true
	for _, s := range fresh.Specs {
		additive = additive && s.Func.Additive()
	}
	if cand.rollup && !additive {
		return aggOption{}, false
	}
	specIdx, ok := specsSubsetIdx(fresh.Specs, cand.entry.Lineage.Aggs)
	if !ok {
		return aggOption{}, false
	}
	fullMask := (1 << uint(len(q.Relations))) - 1
	choice, ok := o.classify(q, fullMask, cand, reqFilter, additive && !cand.rollup && cand.cold == nil)
	if !ok {
		return aggOption{}, false
	}
	agg := *fresh
	agg.CachedSpecIdx = specIdx
	rha := costmodel.RHAInput{
		Contr: choice.Contr, Overh: choice.Overh,
		CandRows: cand.rows, TupleWidth: cand.layout.RowWidthBytes(),
	}
	var inputCost float64
	switch {
	case cand.rollup:
		// Scan the cached groups and re-aggregate them: the
		// post-aggregation itself is computed fresh.
		agg.PostAgg = true
		agg.InputRows = cand.rows
		rha = costmodel.RHAInput{
			InputRows: cand.rows, DistinctKeys: fresh.DistinctKeys,
			Overh: choice.Overh, TupleWidth: (len(fresh.GroupBase) + len(fresh.Specs)) * 8,
		}
	case cand.cold != nil:
		agg.FreshRoot = freshRoot
		inputCost = o.Model.ReviveCost(cand.rows, cand.layout.RowWidthBytes())
	case choice.widens():
		choice.MissingRows = fresh.DistinctKeys * (1 - choice.Contr)
		for _, rb := range choice.ResidualBoxes {
			rq := *q
			rq.Filter = rb
			rroot, err := o.planSPJ(&rq, true)
			if err != nil {
				return aggOption{}, false
			}
			agg.ResidualRoots = append(agg.ResidualRoots, rroot)
			inputCost += rroot.Cost
		}
		rha.InputRows = fresh.InputRows
		rha.DistinctKeys = fresh.DistinctKeys
	}
	choice.OperatorCost = o.Model.RHA(rha)
	agg.Choice = choice
	return aggOption{agg: &agg, totalCost: inputCost + choice.OperatorCost}, true
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
