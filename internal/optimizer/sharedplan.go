package optimizer

import (
	"fmt"
	"slices"
	"strings"

	"hashstash/internal/exec"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/htcache"
	"hashstash/internal/storage"
)

// Shared plans (Section 4): the compiler's batch mode. The join spine
// is the representative's, planned without reuse; the shared operators
// make their own reuse decisions over qid-tagged tables. A cached one
// serves a batch only when it covers every member's box, and then as a
// read-only view re-tagged with the batch's masks (exec.ReTag): the
// masks are batch-local, so the published snapshot other queries probe
// stays untouched.

// memberBoxes returns, per member, its base-qualified predicates on the
// representative's masked relations.
func (c *compiler) memberBoxes(mask int) []expr.Box {
	tables := maskTables(c.q, mask)
	out := make([]expr.Box, len(c.members))
	for i, m := range c.members {
		var preds []expr.Pred
		for _, p := range m.BaseQualify(m.Filter) {
			if slices.Contains(tables, p.Col.Table) {
				preds = append(preds, p)
			}
		}
		out[i] = expr.NewBox(preds...)
	}
	return out
}

// decide logs a shared table decision: 'N' for a fresh table, 'S' for
// the cached entry e re-tagged (its qid masks play the post-filter, as
// in subsuming reuse).
func (c *compiler) decide(op string, e *htcache.Entry) {
	d := Decision{Operator: op, Action: 'N', Mode: ModeNew, EntryID: -1}
	if e != nil {
		d.Action, d.Mode, d.EntryID = 'S', ModeSubsuming, e.ID
	}
	c.out.decisions = append(c.out.decisions, d)
}

// retag returns a view of a cached qid-tagged table of probe's
// structure re-tagged for this batch and its entry, pinned, or nils
// when no snapshot covers every member's box while storing the stored
// columns and every predicate column (re-tagging evaluates them), or
// under NeverReuse and Materialized, which never reuse a table in place.
func (c *compiler) retag(probe htcache.Lineage, stored []storage.ColRef, boxes []expr.Box) (*hashtable.Table, *htcache.Entry) {
	if s := c.o.Opts.Strategy; s == NeverReuse || s == Materialized {
		return nil, nil
	}
	// A usable table covers every member's box, so none is disjoint from
	// the first one: a sound request box for the lookup.
	probe.Filter = boxes[0]
	for _, cand := range c.o.Cache.Candidates(probe, stored) {
		snap := cand.Current()
		if cand.Lineage.QidCol < 0 || snap == nil || snap.HT == nil || !layoutHasCols(snap.HT.Layout(), stored) {
			continue
		}
		if slices.ContainsFunc(boxes, func(b expr.Box) bool {
			return !snap.Filter.Covers(b) || !boxColsInLayout(snap.HT.Layout(), b)
		}) {
			continue
		}
		view, err := exec.ReTag(snap.HT, cand.Lineage.QidCol, boxes)
		if err != nil {
			continue
		}
		c.o.Cache.Pin(cand, 0)
		c.out.pinned = append(c.out.pinned, cand)
		return view, cand
	}
	return nil, nil
}

// registerShared caches a fresh qid-tagged table under the union of the
// members' boxes — only when that union is itself a box, as a lineage
// must never overclaim.
func (c *compiler) registerShared(ht *hashtable.Table, lin htcache.Lineage, boxes []expr.Box) {
	hull := boxes[0]
	for _, b := range boxes[1:] {
		var ok bool
		if hull, ok = expr.UnionIfBox(hull, b); !ok {
			return
		}
	}
	lin.Filter, lin.QidCol = hull, ht.Layout().ColIndex(exec.QidRef())
	c.out.created = append(c.out.created, c.o.Cache.Register(ht, lin))
}

// sharedBuildHT obtains a shared join's build table: a cached one
// re-tagged, else a fresh qid-tagged build.
func (c *compiler) sharedBuildHT(n *Node) (*hashtable.Table, error) {
	probe := htcache.Lineage{
		Kind:    htcache.SharedJoinBuild,
		JoinSig: c.q.SubgraphSignature(n.BuildMask),
		KeyCols: baseQualifyRefs(c.q, n.BuildKeys),
	}
	ht, e := c.retag(probe, c.o.requiredBuildCols(c.q, n.BuildMask, c.needed), c.memberBoxes(n.BuildMask))
	c.decide(fmt.Sprintf("build(%s)", buildTables(c.q, n.BuildMask)), e)
	if ht != nil {
		return ht, nil
	}
	return c.freshBuildHT(n)
}

// compileSharedRoot answers every member from the shared spine.
func (c *compiler) compileSharedRoot(tree *Node) error {
	for _, m := range c.members {
		if m.IsAggregate() != c.q.IsAggregate() {
			return fmt.Errorf("optimizer: mixed SPJ/SPJA batches are not mergeable")
		}
	}
	if c.q.IsAggregate() {
		return c.compileSharedAgg(tree)
	}
	// One collected spine, split by qid once the plan ran.
	full := 1<<uint(len(c.q.Relations)) - 1
	src, tfs, schema, err := c.compileStream(tree)
	if err != nil {
		return err
	}
	collect := exec.NewCollect(schema, nil, exec.Order{})
	c.out.Pipelines = append(c.out.Pipelines, &exec.Pipeline{Source: src, Transforms: tfs, Sink: collect})
	qid := schema.IndexOf(exec.QidRef())
	for i, m := range c.members {
		out := output{collect: collect, bit: 1 << uint(i), qid: qid}
		for _, ref := range m.Select {
			base := baseQualifyRefs(m, []storage.ColRef{ref})[0]
			j := schema.IndexOf(storage.ColRef{Table: aliasIn(c.q, full, base.Table), Column: ref.Column})
			if j < 0 {
				return fmt.Errorf("optimizer: select column %v not in shared spine output", ref)
			}
			out.sel = append(out.sel, j)
			out.columns = append(out.columns, ref.String())
		}
		c.out.outs = append(c.out.outs, out)
	}
	return nil
}

// compileSharedAgg is the SRHA root: members grouping by the same keys
// share one grouping table holding the spine's qualifying tuples with
// their qid tags (inserted, not folded: the paper's grouping phase),
// re-tagged from the cache or built by the one spine that feeds every
// fresh table. Each member then folds the entries carrying its bit into
// its own aggregation table and reads its answer out.
func (c *compiler) compileSharedAgg(tree *Node) error {
	type grouping struct {
		keys   []storage.ColRef // base-qualified group-by columns, sorted
		stored []storage.ColRef // keys, then every aggregate input
		ht     *hashtable.Table
		reused *htcache.Entry
	}
	var groupings []*grouping
	of := make([]*grouping, len(c.members))
	for i, m := range c.members {
		keys := baseQualifyRefs(m, m.GroupBy)
		slices.SortFunc(keys, func(a, b storage.ColRef) int { return strings.Compare(a.String(), b.String()) })
		j := slices.IndexFunc(groupings, func(g *grouping) bool { return slices.Equal(g.keys, keys) })
		if j < 0 {
			j = len(groupings)
			groupings = append(groupings, &grouping{keys: keys, stored: slices.Clone(keys)})
		}
		g := groupings[j]
		of[i] = g
		for _, a := range m.Aggs {
			if a.Arg != nil {
				baseQualifyExpr(m, a.Arg).Walk(func(r storage.ColRef) {
					if !slices.Contains(g.stored, r) {
						g.stored = append(g.stored, r)
					}
				})
			}
		}
	}

	full := 1<<uint(len(c.q.Relations)) - 1
	boxes := c.memberBoxes(full)
	var filterCols []storage.ColRef
	for _, b := range boxes {
		for _, p := range b {
			filterCols = append(filterCols, p.Col)
		}
	}
	lin := htcache.Lineage{
		Kind:    htcache.SharedGrouping,
		Tables:  maskTables(c.q, full),
		JoinSig: c.q.JoinGraphSignature(),
	}
	var fresh []*grouping
	for _, g := range groupings {
		lin.KeyCols, lin.GroupBy = g.keys, g.keys
		if g.ht, g.reused = c.retag(lin, g.stored, boxes); g.ht == nil {
			fresh = append(fresh, g)
		}
	}
	if len(fresh) > 0 {
		src, tfs, schema, err := c.compileStream(tree)
		if err != nil {
			return err
		}
		sinks := make([]exec.Sink, len(fresh))
		for i, g := range fresh {
			layout, err := c.newLayout(g.keys, g.stored, filterCols)
			if err != nil {
				return err
			}
			g.ht = hashtable.New(layout)
			if sinks[i], err = exec.NewBuildHT(g.ht, schema, c.feedRefs(layout, full)); err != nil {
				return err
			}
			lin.KeyCols, lin.GroupBy = g.keys, g.keys
			c.registerShared(g.ht, lin, boxes)
		}
		c.out.Pipelines = append(c.out.Pipelines, &exec.Pipeline{Source: src, Transforms: tfs, Sink: &exec.Multi{Sinks: sinks}})
	}
	for _, g := range groupings {
		c.decide("agg", g.reused)
	}

	// Per member: its grouping entries (under its qid bit, named by the
	// representative's aliases as attachAggInput expects) folded into a
	// fresh aggregation table, then the ordinary readout.
	for i, m := range c.members {
		g := of[i]
		groupBase, specs, srcIdx := aggRequest(m)
		agg := &AggChoice{GroupBase: groupBase, Specs: specs, SrcIdx: srcIdx}
		layout := g.ht.Layout()
		var cols []int
		var refs []storage.ColRef
		var missing error
		alias := func(ref storage.ColRef) storage.ColRef {
			return storage.ColRef{Table: aliasIn(c.q, full, ref.Table), Column: ref.Column}
		}
		read := func(ref storage.ColRef) {
			alias := alias(ref)
			if slices.Contains(refs, alias) {
				return
			}
			ci := layout.ColIndex(ref)
			if ci < 0 {
				missing = fmt.Errorf("optimizer: column %v missing from grouping table", ref)
			}
			cols = append(cols, ci)
			refs = append(refs, alias)
		}
		for _, k := range groupBase {
			read(k)
		}
		for _, s := range specs {
			if s.Arg != nil {
				s.Arg.Walk(read)
			}
		}
		if missing != nil {
			return missing
		}
		src, err := exec.NewHTScan(g.ht, cols, refs, nil)
		if err != nil {
			return err
		}
		src.QidCol = layout.ColIndex(exec.QidRef())
		src.QidMask = 1 << uint(i)
		aggLayout, err := c.aggLayout(agg)
		if err != nil {
			return err
		}
		ht := hashtable.New(aggLayout)
		groupBy := make([]storage.ColRef, len(groupBase))
		for k, ref := range groupBase {
			groupBy[k] = alias(ref)
		}
		if err := c.attachAggInput(src, nil, src.Schema(), ht, groupBy, specs); err != nil {
			return err
		}
		if err := c.compileReadout(m, ht, agg, identitySpecIdx(len(specs)), nil, false); err != nil {
			return err
		}
	}
	return nil
}
