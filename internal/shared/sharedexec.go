package shared

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"hashstash/hashstasherr"
	"hashstash/internal/exec"
	"hashstash/internal/expr"
	"hashstash/internal/hashtable"
	"hashstash/internal/htcache"
	"hashstash/internal/optimizer"
	"hashstash/internal/plan"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// groupExec compiles and runs one shared plan for a group of mergeable
// queries. Bit i of every qid mask corresponds to the group's i-th
// query.
type groupExec struct {
	s       *Optimizer
	rep     *plan.Query   // representative: supplies aliases & join tree
	queries []*plan.Query // the group's queries (≤64)

	needed    map[string][]string // union of needed columns per rep alias
	pipelines []*exec.Pipeline
	pinned    []*htcache.Entry
	created   []*htcache.Entry
	// retagged are the private widened copies this batch re-tagged; the
	// overlay qid columns they carry are batch-local and reclaimed
	// eagerly once the pipelines drain.
	retagged []*hashtable.Table
	collects []*exec.Collect // one per query (aggregate path)
	spineOut *exec.Collect   // SPJ path: shared output split by qid
	columns  [][]string
	reused   int // shared tables reused (after re-tag)
}

// runSharedGroup executes queries[group...] with one shared plan,
// fully concurrent with other queries: a reused cached table is
// widened into a private copy-on-write successor and re-tagged there
// (qid masks install as an overlay column), so the batch's tags never
// touch the published snapshot other queries are probing. The group
// holds every snapshot it resolved until its pipelines drain, and pins
// the cached entries it reuses until then.
func (s *Optimizer) runSharedGroup(ctx context.Context, queries []*plan.Query, group []int) (res []*optimizer.Result, err error) {
	g := &groupExec{s: s, rep: queries[group[0]]}
	// Panic boundary for the group's caller-goroutine work (planning,
	// compilation, result collection; pipeline panics are already
	// contained by the scheduler): unwind the group's pins so one
	// poisoned shared plan fails only its batch — the server then
	// degrades the members to solo.
	defer func() {
		if r := recover(); r != nil {
			g.discardAll()
			res, err = nil, hashstasherr.Internal("shared.group", r)
		}
	}()
	for _, qi := range group {
		g.queries = append(g.queries, queries[qi])
	}
	g.computeNeeded()

	// The shared plan borrows the join-tree shape from the single-query
	// enumerator. The pass runs with never-reuse over an empty cache so
	// every node carries a full build subtree — the shared operators
	// make their own reuse decisions over qid-tagged tables.
	treePlanner := optimizer.New(s.Single.Cat, htcache.New(0), s.Single.Model,
		optimizer.Options{Strategy: optimizer.NeverReuse, BenefitOriented: true})
	tree, err := treePlanner.PlanSPJ(g.rep)
	if err != nil {
		return nil, err
	}
	if err := g.compileRoot(tree); err != nil {
		g.discardAll()
		return nil, err
	}

	// Shared-plan pipelines parallelize like single-query ones: shared
	// scans split into morsels and build sinks merge per-worker partial
	// tables. The workers only mutate the group's own (fresh or widened,
	// both private) tables, so no cross-query coordination is needed.
	// Multi-sink grouping spines split like ordinary scans (every child
	// sink merges per-worker partials), and the per-query readout
	// pipelines follow in compile order, after their grouping table's
	// build finished.
	par := s.Single.Opts.Parallelism
	par.Ctx = ctx
	t0 := time.Now()
	runErr := exec.RunParallel(g.pipelines, par)
	elapsed := time.Since(t0)
	if runErr != nil {
		// A contained panic while the shared plan probed cached
		// snapshots: quarantine the pinned artifacts, same blame rule as
		// the solo path (see optimizer.Prepared.Finish).
		var ie *hashstasherr.InternalError
		if errors.As(runErr, &ie) {
			for _, e := range g.pinned {
				s.Single.Cache.Quarantine(e)
			}
		}
		g.discardAll()
		return nil, runErr
	}
	// Nothing reads the batch-local qid tags after the pipelines drain
	// (results live in the collect sinks), so the overlay columns on
	// re-tagged widened copies — one uint64 per slot — are reclaimed
	// now instead of when the whole copy becomes garbage.
	for _, ht := range g.retagged {
		ht.DropOverlay()
	}
	g.releaseAll()
	return g.collectResults(elapsed)
}

func (g *groupExec) releaseAll() {
	for _, e := range g.pinned {
		g.s.Single.Cache.Release(e)
	}
	for _, e := range g.created {
		g.s.Single.Cache.Release(e)
	}
	g.pinned, g.created = nil, nil
}

// discardAll unwinds a failed compile or run: reused entries are
// unpinned, but freshly created (half-built) tables are removed from
// the cache instead of being published as reuse candidates.
func (g *groupExec) discardAll() {
	for _, e := range g.pinned {
		g.s.Single.Cache.Release(e)
	}
	for _, e := range g.created {
		g.s.Single.Cache.Abandon(e)
	}
	// Idempotent: the panic boundary may run after a release path
	// already unwound the group.
	g.pinned, g.created = nil, nil
}

// aliasOf maps a base table to the representative's alias.
func (g *groupExec) aliasOf(table string) string {
	for _, r := range g.rep.Relations {
		if r.Table == table {
			return r.Alias
		}
	}
	return table
}

// queryBoxBase returns query i's full filter, base-qualified.
func (g *groupExec) queryBoxBase(i int) expr.Box {
	return g.queries[i].BaseQualify(g.queries[i].Filter)
}

// relBoxes returns, per query, the base-qualified predicates on the
// masked relations (rep-relative mask).
func (g *groupExec) relBoxes(mask int) []expr.Box {
	out := make([]expr.Box, len(g.queries))
	tables := map[string]bool{}
	for i, rel := range g.rep.Relations {
		if mask&(1<<uint(i)) != 0 {
			tables[rel.Table] = true
		}
	}
	for qi := range g.queries {
		var preds []expr.Pred
		for _, p := range g.queryBoxBase(qi) {
			if tables[p.Col.Table] {
				preds = append(preds, p)
			}
		}
		out[qi] = expr.NewBox(preds...)
	}
	return out
}

// aliasBoxes re-qualifies base boxes to the representative's aliases.
func (g *groupExec) aliasBoxes(boxes []expr.Box) []expr.Box {
	out := make([]expr.Box, len(boxes))
	for i, b := range boxes {
		out[i] = g.rep.AliasQualify(b)
	}
	return out
}

// computeNeeded unions the needed columns of every query in the group:
// join keys, selects, group-bys, aggregate arguments and all selection
// attributes (mandatory in shared plans — re-tagging needs them).
func (g *groupExec) computeNeeded() {
	set := map[string]map[string]bool{}
	add := func(table, col string) {
		if set[table] == nil {
			set[table] = map[string]bool{}
		}
		set[table][col] = true
	}
	addRef := func(q *plan.Query, ref storage.ColRef) {
		if rel := q.RelByAlias(ref.Table); rel != nil {
			add(rel.Table, ref.Column)
		}
	}
	for _, q := range g.queries {
		for _, j := range q.Joins {
			addRef(q, j.Left)
			addRef(q, j.Right)
		}
		for _, s := range q.Select {
			addRef(q, s)
		}
		for _, gb := range q.GroupBy {
			addRef(q, gb)
		}
		for _, a := range q.Aggs {
			if a.Arg != nil {
				a.Arg.Walk(func(r storage.ColRef) { addRef(q, r) })
			}
		}
		for _, p := range q.Filter {
			addRef(q, p.Col)
		}
	}
	g.needed = map[string][]string{}
	for _, rel := range g.rep.Relations {
		cols := make([]string, 0, len(set[rel.Table]))
		for c := range set[rel.Table] {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		if len(cols) == 0 {
			tbl := g.s.Single.Cat.Table(rel.Table)
			if tbl != nil && len(tbl.Cols) > 0 {
				cols = []string{tbl.Cols[0].Name}
			}
		}
		g.needed[rel.Alias] = cols
	}
}

// compileStream lowers the borrowed join tree into shared pipelines.
func (g *groupExec) compileStream(n *optimizer.Node) (exec.Source, []exec.Transform, storage.Schema, error) {
	if n.IsScan() {
		rel := g.rep.Relations[n.RelIdx]
		boxes := g.aliasBoxes(g.relBoxes(1 << uint(n.RelIdx)))
		src, err := exec.NewSharedScan(g.s.Single.Cat.Table(rel.Table), rel.Alias, boxes, g.needed[rel.Alias])
		if err != nil {
			return nil, nil, nil, err
		}
		return src, nil, src.Schema(), nil
	}

	ht, emitCols, emitRefs, qidLayoutCol, err := g.obtainSharedJoinHT(n)
	if err != nil {
		return nil, nil, nil, err
	}
	src, tfs, schema, err := g.compileStream(n.Probe)
	if err != nil {
		return nil, nil, nil, err
	}
	probe, err := exec.NewProbe(ht, n.ProbeKeys, emitCols, emitRefs, nil, schema)
	if err != nil {
		return nil, nil, nil, err
	}
	probe.QidCol = qidLayoutCol
	probe.QidInCol = schema.IndexOf(exec.QidRef())
	if probe.QidInCol < 0 {
		return nil, nil, nil, fmt.Errorf("shared: probe input lacks qid column")
	}
	tfs = append(tfs, probe)
	return src, tfs, probe.OutSchema(), nil
}

// sharedLayout builds the layout of a shared join table for a build
// mask: key columns, needed payload columns, then the qid tag.
func (g *groupExec) sharedLayout(n *optimizer.Node) (hashtable.Layout, error) {
	keysBase := baseRefs(g.rep, n.BuildKeys)
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
	for _, k := range keysBase {
		if !seen[k] {
			nKeys++
		}
		if err := add(k); err != nil {
			return hashtable.Layout{}, err
		}
	}
	for i, rel := range g.rep.Relations {
		if n.BuildMask&(1<<uint(i)) == 0 {
			continue
		}
		for _, c := range g.needed[rel.Alias] {
			if err := add(storage.ColRef{Table: rel.Table, Column: c}); err != nil {
				return hashtable.Layout{}, err
			}
		}
	}
	cols = append(cols, storage.ColMeta{Ref: exec.QidRef(), Kind: types.Int64})
	return hashtable.Layout{Cols: cols, KeyCols: nKeys}, nil
}

// obtainSharedJoinHT reuses a cached qid-tagged table (after re-tagging)
// or builds a fresh one from a shared sub-stream.
func (g *groupExec) obtainSharedJoinHT(n *optimizer.Node) (*hashtable.Table, []int, []storage.ColRef, int, error) {
	cache := g.s.Single.Cache
	keysBase := baseRefs(g.rep, n.BuildKeys)
	relBoxes := g.relBoxes(n.BuildMask)
	// A usable table covers every query's box (sharedCandidateUsable), so
	// none is disjoint from the first one: a sound request box.
	probeLin := htcache.Lineage{
		Kind:    htcache.SharedJoinBuild,
		JoinSig: g.rep.SubgraphSignature(n.BuildMask),
		KeyCols: keysBase,
		Filter:  relBoxes[0],
	}

	var ht *hashtable.Table
	qidCol := -1
	for _, cand := range cache.Candidates(probeLin) {
		snap := cand.Current()
		if !g.sharedCandidateUsable(snap, cand.Lineage.QidCol, n, relBoxes) {
			continue
		}
		// Re-tag a private widened copy: the qid masks of this batch are
		// batch-local, so the published snapshot stays untouched (and the
		// copy is simply dropped after the batch — no publication).
		widened := snap.HT.WidenWith(g.s.Single.WidenOptions())
		if err := exec.ReTag(widened, cand.Lineage.QidCol, relBoxes); err != nil {
			continue
		}
		cache.Pin(cand, 0)
		g.pinned = append(g.pinned, cand)
		g.retagged = append(g.retagged, widened)
		ht = widened
		qidCol = cand.Lineage.QidCol
		g.reused++
		break
	}

	if ht == nil {
		layout, err := g.sharedLayout(n)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		ht = hashtable.New(layout)
		qidCol = len(layout.Cols) - 1
		bsrc, btfs, bschema, err := g.compileStream(n.Build)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		feed := make([]storage.ColRef, len(layout.Cols))
		for i, m := range layout.Cols {
			if m.Ref == exec.QidRef() {
				feed[i] = exec.QidRef()
				continue
			}
			feed[i] = storage.ColRef{Table: g.aliasOf(m.Ref.Table), Column: m.Ref.Column}
		}
		sink, err := exec.NewBuildHT(ht, bschema, feed)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		g.pipelines = append(g.pipelines, &exec.Pipeline{Source: bsrc, Transforms: btfs, Sink: sink})
		// Register only when the content (union of the group's boxes) is
		// exactly expressible — lineage must never overclaim.
		if hull, ok := boxesUnion(relBoxes); ok {
			lin := probeLin
			lin.Tables = maskTableNames(g.rep, n.BuildMask)
			lin.Filter = hull
			lin.QidCol = qidCol
			g.created = append(g.created, cache.Register(ht, lin))
		}
	}

	// Probe emits every needed build-side column (base refs → rep alias).
	layout := ht.Layout()
	var emitCols []int
	var emitRefs []storage.ColRef
	for i, rel := range g.rep.Relations {
		if n.BuildMask&(1<<uint(i)) == 0 {
			continue
		}
		for _, c := range g.needed[rel.Alias] {
			ref := storage.ColRef{Table: rel.Table, Column: c}
			ci := layout.ColIndex(ref)
			if ci < 0 {
				return nil, nil, nil, 0, fmt.Errorf("shared: column %v missing from shared table", ref)
			}
			emitCols = append(emitCols, ci)
			emitRefs = append(emitRefs, storage.ColRef{Table: rel.Alias, Column: c})
		}
	}
	return ht, emitCols, emitRefs, qidCol, nil
}

// sharedCandidateUsable checks content and layout sufficiency against
// one resolved snapshot: the cached table must be qid-tagged, hold a
// superset of every query's needed rows, store every needed payload
// column, and store every predicate column (for re-tagging).
func (g *groupExec) sharedCandidateUsable(snap *htcache.Snapshot, qidCol int, n *optimizer.Node, relBoxes []expr.Box) bool {
	if qidCol < 0 || snap == nil || snap.HT == nil {
		return false
	}
	layout := snap.HT.Layout()
	for _, b := range relBoxes {
		if !snap.Filter.Covers(b) {
			return false
		}
		for _, p := range b {
			if layout.ColIndex(p.Col) < 0 {
				return false
			}
		}
	}
	for i, rel := range g.rep.Relations {
		if n.BuildMask&(1<<uint(i)) == 0 {
			continue
		}
		for _, c := range g.needed[rel.Alias] {
			if layout.ColIndex(storage.ColRef{Table: rel.Table, Column: c}) < 0 {
				return false
			}
		}
	}
	return true
}

// boxesUnion folds boxes pairwise with unionIfBox semantics.
func boxesUnion(boxes []expr.Box) (expr.Box, bool) {
	if len(boxes) == 0 {
		return nil, true
	}
	hull := boxes[0]
	for _, b := range boxes[1:] {
		h, ok := expr.UnionIfBox(hull, b)
		if !ok {
			return nil, false
		}
		hull = h
	}
	return hull, true
}

func maskTableNames(q *plan.Query, mask int) []string {
	var out []string
	for i, rel := range q.Relations {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, rel.Table)
		}
	}
	return out
}

func baseRefs(q *plan.Query, refs []storage.ColRef) []storage.ColRef {
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
