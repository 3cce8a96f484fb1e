package optimizer

import (
	"fmt"
	"sort"

	"hashstash/internal/expr"
	"hashstash/internal/htcache"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
)

// Algorithm 1 of the paper: top-down partitioning plan enumeration with
// memoization, extended with candidate hash tables per partition.

// planContext carries per-query planning state.
type planContext struct {
	q      *plan.Query
	needed map[string][]string
	memo   map[int]*Node
	// noReuse plans every build fresh whatever the strategy (a shared
	// plan's spine).
	noReuse bool
}

// planSPJ plans the select-project-join part of the query and returns
// the root node covering all relations; reuse false plans every build
// fresh.
func (o *Optimizer) planSPJ(q *plan.Query, reuse bool) (*Node, error) {
	if len(q.Relations) > 16 {
		return nil, fmt.Errorf("optimizer: %d relations exceed the enumeration limit", len(q.Relations))
	}
	ctx := &planContext{q: q, needed: o.neededCols(q), memo: make(map[int]*Node), noReuse: !reuse}
	full := (1 << uint(len(q.Relations))) - 1
	root := o.bestPlan(ctx, full)
	if root == nil {
		return nil, fmt.Errorf("optimizer: no plan found (disconnected join graph?)")
	}
	return root, nil
}

// bestPlan implements getBestReusePlan(G) with memoization on the
// relation bitmask.
func (o *Optimizer) bestPlan(ctx *planContext, mask int) *Node {
	if n, ok := ctx.memo[mask]; ok {
		return n
	}
	q := ctx.q

	if idx, single := singleRelation(mask); single {
		node := o.scanNode(ctx, idx)
		ctx.memo[mask] = node
		return node
	}

	var best *Node
	var bestScore int64
	// Enumerate every connected partition (Gl, Gr); iterating all proper
	// submasks covers both build/probe orientations.
	for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
		comp := mask &^ sub
		if comp == 0 {
			continue
		}
		if !q.ConnectedSubgraph(sub) || !q.ConnectedSubgraph(comp) {
			continue
		}
		// A build side over two instances of one table would merge
		// their columns in its base-qualified layout. Single-relation
		// builds always remain: the probe side may repeat tables.
		if q.RepeatsTable(sub) {
			continue
		}
		crossing := q.CrossingJoins(sub, comp)
		if len(crossing) == 0 {
			continue
		}
		buildKeys, probeKeys := splitKeys(q, crossing, sub)
		probePlan := o.bestPlan(ctx, comp)
		options := o.joinBuildOptions(ctx, sub, buildKeys, probePlan.OutRows)
		outRows := o.joinOutRows(q, mask)

		for i := range options {
			opt := &options[i]
			node := &Node{
				Kind:        nodeJoin,
				Mask:        mask,
				BuildMask:   sub,
				Build:       opt.buildPlan,
				Probe:       probePlan,
				BuildKeys:   buildKeys,
				ProbeKeys:   probeKeys,
				BuildFilter: maskFilter(q, sub),
				Reuse:       &opt.choice,
				OutRows:     outRows,
				Cost:        probePlan.Cost + opt.totalCost,
			}
			if o.better(q, node, best, &bestScore) {
				best = node
			}
		}
	}
	ctx.memo[mask] = best
	return best
}

// better decides whether candidate beats the incumbent under the
// configured strategy, applying the benefit-oriented join-order
// tie-break: within a 5% cost band, prefer the plan whose build table
// structure was requested more often historically (it is the one more
// likely to be reused by future queries).
func (o *Optimizer) better(q *plan.Query, cand, best *Node, bestScore *int64) bool {
	if best == nil {
		*bestScore = o.nodeHistoryScore(q, cand)
		return true
	}
	switch o.Opts.Strategy {
	case AlwaysReuse, Materialized:
		// Prefer reuse over fresh builds; among reuses, higher contr.
		cr, br := nodeReuse(cand), nodeReuse(best)
		if cr != br {
			if cr {
				*bestScore = o.nodeHistoryScore(q, cand)
			}
			return cr
		}
		if cr && br && cand.Reuse.Contr != best.Reuse.Contr {
			if cand.Reuse.Contr > best.Reuse.Contr {
				*bestScore = o.nodeHistoryScore(q, cand)
				return true
			}
			return false
		}
		if cand.Cost < best.Cost {
			*bestScore = o.nodeHistoryScore(q, cand)
			return true
		}
		return false
	default:
		if cand.Cost < best.Cost*0.95 {
			*bestScore = o.nodeHistoryScore(q, cand)
			return true
		}
		if !o.Opts.NoBenefitOptimizations && cand.Cost < best.Cost*1.05 {
			if s := o.nodeHistoryScore(q, cand); s > *bestScore {
				*bestScore = s
				return true
			}
		}
		if cand.Cost < best.Cost {
			*bestScore = o.nodeHistoryScore(q, cand)
			return true
		}
		return false
	}
}

func nodeReuse(n *Node) bool { return n.Reuse != nil && n.Reuse.Mode != ModeNew }

// nodeHistoryScore scores a join node's build structure by how often it
// was requested before; the key mirrors joinBuildOptions' probe lineage.
func (o *Optimizer) nodeHistoryScore(q *plan.Query, n *Node) int64 {
	if n.Kind != nodeJoin {
		return 0
	}
	lin := htcache.Lineage{
		Kind:    htcache.JoinBuild,
		JoinSig: q.SubgraphSignature(n.BuildMask),
		KeyCols: baseQualifyRefs(q, n.BuildKeys),
		QidCol:  -1,
	}
	return o.historyScore(lin.StructKey())
}

// scanNode creates the leaf node for one relation. The node records its
// scan boxes explicitly: residual sub-plans (partial aggregate reuse)
// plan against an overridden filter, and the compiler must see exactly
// the boxes that were planned, not the original query's.
func (o *Optimizer) scanNode(ctx *planContext, relIdx int) *Node {
	q := ctx.q
	rel := q.Relations[relIdx]
	box := q.FilterFor(rel.Alias)
	rows := o.relRows(q, relIdx, box)
	cost := o.scanCost(q, relIdx, []expr.Box{box}, len(ctx.needed[rel.Alias]))
	return &Node{
		Kind:      nodeScan,
		Mask:      1 << uint(relIdx),
		RelIdx:    relIdx,
		ScanBoxes: []expr.Box{box},
		OutRows:   rows,
		Cost:      cost,
	}
}

// joinOutRows estimates the join output cardinality.
func (o *Optimizer) joinOutRows(q *plan.Query, mask int) float64 {
	return o.maskRows(q, mask, maskFilter(q, mask))
}

// splitKeys orders the crossing join predicates into build-side and
// probe-side key columns (build = sub mask), deterministically.
func splitKeys(q *plan.Query, crossing []plan.JoinPred, sub int) (buildKeys, probeKeys []storage.ColRef) {
	type pair struct{ b, p storage.ColRef }
	var pairs []pair
	for _, j := range crossing {
		li := q.AliasIndex(j.Left.Table)
		if li >= 0 && sub&(1<<uint(li)) != 0 {
			pairs = append(pairs, pair{b: j.Left, p: j.Right})
		} else {
			pairs = append(pairs, pair{b: j.Right, p: j.Left})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		return pairs[i].b.String() < pairs[j].b.String()
	})
	for _, pr := range pairs {
		buildKeys = append(buildKeys, pr.b)
		probeKeys = append(probeKeys, pr.p)
	}
	return buildKeys, probeKeys
}
