package optimizer

import (
	"math"

	"hashstash/internal/btree"
	"hashstash/internal/exec"
	"hashstash/internal/expr"
	"hashstash/internal/htcache"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// Access-path selection: scan vs. cached-index range per predicate box.
//
// Secondary indexes are treated exactly like the paper treats hash
// tables — built lazily when the cost model judges the investment
// worthwhile, registered in the htcache registry, recycled across
// queries, and invalidated on base-table change. The lazy-build trigger
// is a ski-rental argument: every compiled query that would have been
// cheaper with an index accumulates the forgone benefit for that
// column, and once the accumulated benefit covers IndexBuildCost the
// next query builds (and caches) the tree.

// indexCandidate is one predicate of a box that a secondary index could
// drive, with its modeled costs.
type indexCandidate struct {
	predIdx   int // position in the box
	colBase   storage.ColRef
	matchRows float64 // estimated rows satisfying the driving predicate
	rangeCost float64 // modeled index-range cost (ns)
}

// bestIndexCandidate picks the driving predicate with the cheapest
// modeled index-range cost for scanning relation relIdx under box, or
// nil when the box has no indexable predicate. width is the emitted
// row width in bytes.
func (o *Optimizer) bestIndexCandidate(q *plan.Query, relIdx int, box expr.Box, width int) *indexCandidate {
	rel := q.Relations[relIdx]
	ts, ok := o.Cat.Stats(rel.Table)
	if !ok {
		return nil
	}
	var best *indexCandidate
	for i, p := range box {
		if p.Col.Table != rel.Alias || p.Con.IsFull() || p.Con.Empty() {
			continue
		}
		matchRows := ts.EstimateRows(expr.Box{p})
		cost := o.Model.IndexRangeCost(float64(ts.Rows), matchRows, width)
		if best == nil || cost < best.rangeCost {
			best = &indexCandidate{
				predIdx:   i,
				colBase:   storage.ColRef{Table: rel.Table, Column: p.Col.Column},
				matchRows: matchRows,
				rangeCost: cost,
			}
		}
	}
	return best
}

// cachedIndexEntry resolves the ready cached index over a base column,
// or nil. The snapshot is resolved once, like hash-table candidates. The
// probe carries no request box: an index covers its whole column, so no
// request is ever disjoint from it.
func (o *Optimizer) cachedIndexEntry(colBase storage.ColRef) (*htcache.Entry, *btree.Tree) {
	for _, e := range o.Cache.Candidates(htcache.IndexLineage(colBase), nil) {
		if snap := e.Current(); snap != nil && snap.Idx != nil {
			return e, snap.Idx
		}
	}
	return nil, nil
}

// cachedIndexCost returns the modeled cost of driving the box's scan
// with an already-cached index, or -1 when none applies — the
// cost-estimation side of access-path choice (plan enumeration sees
// cheap scans for indexed constraints without triggering any build).
func (o *Optimizer) cachedIndexCost(q *plan.Query, relIdx int, box expr.Box, width int) float64 {
	if o.Opts.NoSecondaryIndexes {
		return -1
	}
	cand := o.bestIndexCandidate(q, relIdx, box, width)
	if cand == nil {
		return -1
	}
	if e, _ := o.cachedIndexEntry(cand.colBase); e == nil {
		return -1
	}
	return cand.rangeCost
}

// noteIndexBenefit accumulates forgone benefit for a column and reports
// whether the accumulated total now pays for the build.
func (o *Optimizer) noteIndexBenefit(colBase storage.ColRef, benefit, buildCost float64) bool {
	key := colBase.String()
	o.idxMu.Lock()
	defer o.idxMu.Unlock()
	acc := o.idxBenefit[key]
	if math.IsNaN(acc) {
		return false // column proven unindexable
	}
	acc += benefit
	o.idxBenefit[key] = acc
	return acc >= buildCost
}

// markUnindexable permanently excludes a column from index builds
// (btree.Build rejected it, e.g. a float column containing NaN).
func (o *Optimizer) markUnindexable(colBase storage.ColRef) {
	o.idxMu.Lock()
	defer o.idxMu.Unlock()
	o.idxBenefit[colBase.String()] = math.NaN()
}

// claimIndexBuild is the single-flight gate of a lazy build: it
// re-checks that the column's accumulated benefit still pays for the
// build and zeroes it in the same critical section, so of the
// concurrent queries that all saw the threshold crossed exactly one
// builds — the rest scan. The ski-rental clock restarts from zero (a
// later invalidation needs a fresh payment).
func (o *Optimizer) claimIndexBuild(colBase storage.ColRef, buildCost float64) bool {
	key := colBase.String()
	o.idxMu.Lock()
	defer o.idxMu.Unlock()
	if o.idxBenefit[key] >= buildCost { // false for NaN: unindexable
		delete(o.idxBenefit, key)
		return true
	}
	return false
}

// constraintValueHashes enumerates the content hashes of a membership
// constraint — a string IN-set or a single-point interval — using the
// same stable value hashing the cold tier's bloom filters are built
// over. exact=false for range predicates, which blooms cannot decide.
func constraintValueHashes(con expr.Constraint) ([]uint64, bool) {
	if con.Kind == types.String {
		hs := make([]uint64, len(con.Set))
		for i, s := range con.Set {
			hs[i] = types.HashString(s)
		}
		return hs, true
	}
	iv := con.Iv
	if iv.HasLo && iv.HasHi && iv.LoIncl && iv.HiIncl && iv.Lo == iv.Hi {
		return []uint64{htcache.StableValueHash(iv.Lo)}, true
	}
	return nil, false
}

// reviveColdIndex attempts to bring a demoted secondary index back from
// the cold tier for this scan. The demotion-time bloom filter vetoes
// revival outright when a membership predicate matches none of the
// indexed values — a definite empty result is not worth paying revival
// for — and the revive-vs-scan decision runs through the cost model.
// The caller pins the returned entry.
func (c *compiler) reviveColdIndex(cand *indexCandidate, con expr.Constraint, tbl *storage.Table, scanCost float64) (*htcache.Entry, *btree.Tree) {
	o := c.o
	ca := o.Cache.ColdCandidate(htcache.IndexLineage(cand.colBase))
	if ca == nil {
		return nil, nil
	}
	hashes, exact := constraintValueHashes(con)
	if exact {
		hit := false
		for _, h := range hashes {
			if ca.MayContain(h) {
				hit = true
				break
			}
		}
		if !hit {
			return nil, nil // bloom-negative: never revive for a provably empty range
		}
	}
	if o.Model.IndexReviveCost(float64(ca.Rows))+cand.rangeCost >= scanCost {
		return nil, nil
	}
	col := tbl.Column(cand.colBase.Column)
	if col == nil {
		return nil, nil
	}
	snap := o.Cache.Revive(ca.Entry, col)
	if snap == nil || snap.Idx == nil {
		return nil, nil
	}
	if exact && len(snap.Idx.ConstraintRuns(con)) == 0 {
		// The bloom said maybe, the revived tree says no: account the
		// false positive so the filter's effectiveness is observable.
		ca.NoteFalsePositive()
	}
	return ca.Entry, snap.Idx
}

// tryIndexScan attempts to lower a scan node to an index-driven range
// scan. It returns nil when the scan path wins: multiple boxes (residual
// unions stay on the battle-tested scan path), no indexable predicate,
// or the cost model preferring the sequential scan. A cached index is
// pinned for the query's lifetime; a missing one may be built here —
// synchronously, at most once per column — when the accumulated forgone
// benefit has paid for it and the build budget allows.
func (c *compiler) tryIndexScan(n *Node, rel plan.Rel, boxes []expr.Box) exec.Source {
	o := c.o
	if o.Opts.NoSecondaryIndexes || len(boxes) != 1 || len(boxes[0]) == 0 {
		return nil
	}
	box := boxes[0]
	if box.Empty() {
		return nil
	}
	tbl := o.Cat.Table(rel.Table)
	ts, ok := o.Cat.Stats(rel.Table)
	if tbl == nil || !ok {
		return nil
	}
	width := len(c.needed[rel.Alias]) * 8
	cand := o.bestIndexCandidate(c.q, n.RelIdx, box, width)
	if cand == nil {
		return nil
	}
	scanCost := o.Model.ScanCost(float64(ts.Rows), width)
	if cand.rangeCost >= scanCost {
		// The cost model prefers the sequential scan at this selectivity;
		// an existing cached index is simply not used.
		return nil
	}

	entry, tree := o.cachedIndexEntry(cand.colBase)
	if tree == nil {
		if !c.register {
			return nil // detached compiles must not mutate the cache
		}
		entry, tree = c.reviveColdIndex(cand, box[cand.predIdx].Con, tbl, scanCost)
	}
	if tree == nil {
		buildCost := o.Model.IndexBuildCost(float64(ts.Rows))
		if !o.noteIndexBenefit(cand.colBase, scanCost-cand.rangeCost, buildCost) {
			return nil
		}
		if b := o.Opts.IndexBuildBudget; b > 0 && o.Cache.IndexBytes()+btree.EstimateBytes(int(ts.Rows)) > b {
			return nil
		}
		if !o.Opts.MemGov.AllowIndexBuild() {
			// Under memory pressure a deliberate new allocation loses the
			// ski-rental argument regardless of modeled benefit.
			return nil
		}
		col := tbl.Column(cand.colBase.Column)
		if col == nil || !o.claimIndexBuild(cand.colBase, buildCost) {
			return nil
		}
		built, err := btree.Build(col)
		if err != nil {
			o.markUnindexable(cand.colBase)
			return nil
		}
		entry = o.Cache.RegisterIndex(built, cand.colBase)
		c.out.created = append(c.out.created, entry)
		tree = built
	} else if c.register {
		o.Cache.Pin(entry, scanCost-cand.rangeCost)
		c.out.pinned = append(c.out.pinned, entry)
	}

	residual := make(expr.Box, 0, len(box)-1)
	residual = append(residual, box[:cand.predIdx]...)
	residual = append(residual, box[cand.predIdx+1:]...)
	src, err := exec.NewIndexScan(tbl, rel.Alias, tree, box[cand.predIdx].Con, residual, c.needed[rel.Alias])
	if err != nil {
		return nil // fall back to the scan path
	}
	return src
}
