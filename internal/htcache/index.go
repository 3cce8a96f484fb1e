package htcache

import (
	"cmp"
	"math"
	"slices"

	"hashstash/internal/expr"
	"hashstash/internal/storage"
	"hashstash/internal/types"
)

// Candidate lookup. The hot registry is bucketed by structural key
// (Lineage.StructKey), and each bucket groups its entries by shape —
// what a reuse case needs of an entry beyond its structure:
//
//   - C, the columns the entry's current filter constrains with a
//     non-full constraint (an empty box is a shape of its own);
//   - L, the columns its artifact stores (the hash table's layout).
//
// A lookup carries the request box, whose non-full columns are R, and
// the columns the operator needs stored. Every reuse case needs those
// columns stored, so a group whose L lacks one is skipped. Subsuming and
// overlapping reuse post-filter the cached table on every request
// column, which needs R ⊆ L. Exact and partial reuse need the cached
// box inside the request's, which for a non-empty cached box needs
// R ⊆ C. A group meeting neither condition is skipped; in a group
// meeting only the second, an entry is a candidate only if the request
// covers its box, not merely intersects it. An empty box is covered by
// every request, so its group is visited whenever it stores the needed
// columns.
//
// Each group indexes its entries by the predicate box of their current
// snapshot, so a lookup visits the entries that can share a tuple with
// the request rather than the whole group:
//
//   - The anchor is a column the group's entries pin to one value (a
//     single-value interval or a one-element IN-set): the first such
//     column of the first entry that pins any, kept until the group
//     empties.
//   - points holds the entries whose filter pins the anchor, keyed by
//     the pinned value.
//   - residual holds every other entry — ranges, multi-value sets, an
//     unconstrained anchor — and is always visited.
//
// A request that pins the anchor visits points[its value(s)] plus the
// residual list; any other request visits the whole group. Two
// different values of one column never share a tuple, so the points
// skipped are disjoint from the request and covered by it only if empty,
// which no point entry is. The index is maintained wherever an entry
// enters or leaves the hot registry or changes filter (register,
// unlist, relist, PublishWidened), and slots hold *Entry pointers only.

// bucket is the hot registry's slice for one structural key.
type bucket struct {
	groupBy []storage.ColRef // the shared Lineage.GroupBy (roll-up lookup)
	groups  []*group         // one per shape; never empty
}

// group holds a bucket's entries of one shape, indexed by their current
// filters.
type group struct {
	empty  bool             // the entries' boxes are empty (contradictory)
	cons   []storage.ColRef // C, in box column order; nil when empty
	stored []storage.ColRef // L, in layout order
	all    []*Entry

	anchored  bool
	anchor    storage.ColRef
	anchorStr bool // the anchor's constraints are string IN-sets
	points    map[pointKey][]*Entry
	residual  []*Entry
}

// slot is where the index holds a hot entry: its group, its position in
// the group's all list and in the point or residual list (swap-removal
// keeps both O(1)).
type slot struct {
	grp   *group
	all   int
	at    int
	point bool
	pt    pointKey
}

// kindSig keys the buckets of one kind over one join signature.
type kindSig struct {
	kind    Kind
	joinSig string
}

// pointKey is a pinned value. Two values get the same key exactly when
// Value.Compare calls them equal: integers (and integral floats) up to
// 2^53 in magnitude share one class, other floats key by their bits,
// strings by their bytes. Values outside these classes (NaN, larger
// integers) are never keyed, so entries pinned to them stay residual.
type pointKey struct {
	s   string
	n   uint64
	cls uint8
}

const (
	clsInt uint8 = iota + 1
	clsFloat
	clsString
)

// maxExactInt bounds the integers float64 represents exactly.
const maxExactInt = 1 << 53

func valueKey(v types.Value) (pointKey, bool) {
	switch v.Kind {
	case types.Int64, types.Date:
		if v.I < -maxExactInt || v.I > maxExactInt {
			return pointKey{}, false
		}
		return pointKey{n: uint64(v.I), cls: clsInt}, true
	case types.Float64:
		f := v.F
		switch {
		case math.IsNaN(f):
			return pointKey{}, false
		case f == math.Trunc(f) && math.Abs(f) <= maxExactInt:
			return pointKey{n: uint64(int64(f)), cls: clsInt}, true
		}
		return pointKey{n: math.Float64bits(f), cls: clsFloat}, true
	}
	return pointKey{}, false
}

// intervalPoint returns the key of a closed single-value interval.
func intervalPoint(iv *expr.Interval) (pointKey, bool) {
	if !iv.HasLo || !iv.HasHi || !iv.LoIncl || !iv.HiIncl {
		return pointKey{}, false
	}
	lo, ok := valueKey(iv.Lo)
	if !ok {
		return pointKey{}, false
	}
	if hi, ok := valueKey(iv.Hi); !ok || hi != lo {
		return pointKey{}, false
	}
	return lo, true
}

// constraintPoint returns the key of a constraint pinning one value.
func constraintPoint(c *expr.Constraint) (pointKey, bool) {
	if c.Kind == types.String {
		if len(c.Set) != 1 {
			return pointKey{}, false
		}
		return pointKey{s: c.Set[0], cls: clsString}, true
	}
	return intervalPoint(&c.Iv)
}

// storedCols returns the layout columns of a snapshot's artifact; a
// secondary index stores none.
func storedCols(s *Snapshot) []storage.ColMeta {
	if s.HT == nil {
		return nil
	}
	return s.HT.Layout().Cols
}

// newGroup returns an empty group of the shape of filter f over layout.
func newGroup(f expr.Box, layout []storage.ColMeta) *group {
	g := &group{empty: f.Empty(), stored: make([]storage.ColRef, len(layout))}
	for i, m := range layout {
		g.stored[i] = m.Ref
	}
	if !g.empty {
		for i := range f {
			if !f[i].Con.IsFull() {
				g.cons = append(g.cons, f[i].Col)
			}
		}
	}
	return g
}

// fits reports whether an entry with filter f over layout has g's shape.
func (g *group) fits(f expr.Box, layout []storage.ColMeta) bool {
	if f.Empty() != g.empty || len(layout) != len(g.stored) {
		return false
	}
	if !g.empty {
		n := 0
		for i := range f {
			if f[i].Con.IsFull() {
				continue
			}
			if n == len(g.cons) || f[i].Col != g.cons[n] {
				return false
			}
			n++
		}
		if n != len(g.cons) {
			return false
		}
	}
	for _, m := range layout {
		if !slices.Contains(g.stored, m.Ref) {
			return false
		}
	}
	return true
}

// anchorCon returns f's constraint on the anchor when it has the
// anchor's representation (a string IN-set or an interval), else nil.
func (g *group) anchorCon(f expr.Box) *expr.Constraint {
	con := f.ConstraintRef(g.anchor)
	if con == nil || (con.Kind == types.String) != g.anchorStr {
		return nil
	}
	return con
}

// pointOf returns the point slot of a filter, choosing the group's
// anchor from it if the group has none yet.
func (g *group) pointOf(f expr.Box) (pointKey, bool) {
	if len(f) == 0 || g.empty {
		return pointKey{}, false
	}
	if !g.anchored {
		for i := range f {
			if pt, ok := constraintPoint(&f[i].Con); ok {
				g.anchored, g.anchor, g.anchorStr = true, f[i].Col, f[i].Con.Kind == types.String
				return pt, true
			}
		}
		return pointKey{}, false
	}
	if con := g.anchorCon(f); con != nil {
		return constraintPoint(con)
	}
	return pointKey{}, false
}

// add lists e in the group of its current shape, creating the group if
// the bucket has none of that shape.
func (b *bucket) add(e *Entry) {
	snap := e.cur.Load()
	layout := storedCols(snap)
	var g *group
	for _, cand := range b.groups {
		if cand.fits(snap.Filter, layout) {
			g = cand
			break
		}
	}
	if g == nil {
		g = newGroup(snap.Filter, layout)
		b.groups = append(b.groups, g)
	}
	e.slot.grp, e.slot.all = g, len(g.all)
	g.all = append(g.all, e)
	g.place(e, snap.Filter)
}

// remove takes e out of its group, dropping the group (and its anchor)
// once empty.
func (b *bucket) remove(e *Entry) {
	g := e.slot.grp
	g.unplace(e)
	last := g.all[len(g.all)-1]
	g.all[e.slot.all] = last
	last.slot.all = e.slot.all
	g.all[len(g.all)-1] = nil
	g.all = g.all[:len(g.all)-1]
	e.slot.grp = nil
	if len(g.all) > 0 {
		return
	}
	i := slices.Index(b.groups, g)
	b.groups[i] = b.groups[len(b.groups)-1]
	b.groups[len(b.groups)-1] = nil
	b.groups = b.groups[:len(b.groups)-1]
}

// place puts e in the point or residual slot for filter f.
func (g *group) place(e *Entry, f expr.Box) {
	pt, ok := g.pointOf(f)
	if !ok {
		e.slot.point, e.slot.pt, e.slot.at = false, pointKey{}, len(g.residual)
		g.residual = append(g.residual, e)
		return
	}
	if g.points == nil {
		g.points = make(map[pointKey][]*Entry)
	}
	list := g.points[pt]
	e.slot.point, e.slot.pt, e.slot.at = true, pt, len(list)
	g.points[pt] = append(list, e)
}

// unplace takes e out of its point or residual slot.
func (g *group) unplace(e *Entry) {
	if !e.slot.point {
		g.residual = swapRemove(g.residual, e.slot.at)
		return
	}
	if list := swapRemove(g.points[e.slot.pt], e.slot.at); len(list) > 0 {
		g.points[e.slot.pt] = list
	} else {
		delete(g.points, e.slot.pt)
	}
}

// swapRemove deletes list[i] by moving the last element into its place.
func swapRemove(list []*Entry, i int) []*Entry {
	last := list[len(list)-1]
	list[i] = last
	last.slot.at = i
	list[len(list)-1] = nil
	return list[:len(list)-1]
}

// request is one lookup: the request box, its emptiness (tested once,
// not per entry) and the columns the operator needs stored.
type request struct {
	box    expr.Box
	empty  bool
	stored []storage.ColRef
}

// appendCandidates appends the bucket's ready entries some reuse case
// can accept for r.
func (b *bucket) appendCandidates(out []*Entry, r *request) []*Entry {
	for _, g := range b.groups {
		out = g.appendCandidates(out, r)
	}
	return out
}

// appendCandidates applies the shape rule to the group and appends its
// matching ready entries.
func (g *group) appendCandidates(out []*Entry, r *request) []*Entry {
	switch {
	case !refsSubset(r.stored, g.stored):
		return out
	case g.empty || len(r.box) == 0:
		// Every request covers an empty box; no entry is disjoint from
		// the full request.
		return appendReady(out, g.all, nil, false)
	case nonFullIn(r.box, g.stored): // subsuming and overlapping possible
		if r.empty {
			return appendReady(out, g.all, nil, false) // every box covers an empty request
		}
		return g.appendMatching(out, r.box, false)
	case !r.empty && nonFullIn(r.box, g.cons):
		// Only exact and partial reuse are possible, and an empty request
		// covers no non-empty box.
		return g.appendMatching(out, r.box, true)
	}
	return out
}

// appendMatching appends the group's ready entries matching the
// non-empty request box req (see appendReady), visiting only the point
// slots req pins on the anchor plus the residual list when it pins any.
func (g *group) appendMatching(out []*Entry, req expr.Box, covered bool) []*Entry {
	out, pinned := g.appendPinned(out, req, covered)
	if pinned {
		return appendReady(out, g.residual, req, covered)
	}
	return appendReady(out, g.all, req, covered)
}

// appendPinned appends the point entries matching req's constraint on
// the anchor and reports whether that constraint selects points at all;
// when it does not, the caller must visit the whole group.
func (g *group) appendPinned(out []*Entry, req expr.Box, covered bool) ([]*Entry, bool) {
	if !g.anchored {
		return out, false
	}
	con := g.anchorCon(req)
	if con == nil {
		return out, false
	}
	if con.Kind != types.String {
		pt, ok := intervalPoint(&con.Iv)
		if !ok {
			return out, false
		}
		return appendReady(out, g.points[pt], req, covered), true
	}
	for _, s := range con.Set { // deduplicated by SetConstraint
		out = appendReady(out, g.points[pointKey{s: s, cls: clsString}], req, covered)
	}
	return out, true
}

// appendReady appends the ready entries of list matching req: all of
// them when req is nil, else those req covers (covered) or those not
// disjoint from req, which must then be non-empty.
func appendReady(out, list []*Entry, req expr.Box, covered bool) []*Entry {
	for _, e := range list {
		if !e.ready {
			continue
		}
		if req != nil {
			f := e.cur.Load().Filter
			if covered && !req.Covers(f) || !covered && expr.DisjointNonEmpty(f, req) {
				continue
			}
		}
		out = append(out, e)
	}
	return out
}

// nonFullIn reports whether every column box constrains with a non-full
// constraint is in cols.
func nonFullIn(box expr.Box, cols []storage.ColRef) bool {
	for i := range box {
		if !box[i].Con.IsFull() && !slices.Contains(cols, box[i].Col) {
			return false
		}
	}
	return true
}

// sortMRU orders entries most recently used first (LastUsed values are
// distinct clock ticks, so the order is total).
func sortMRU(es []*Entry) {
	slices.SortFunc(es, func(a, b *Entry) int { return cmp.Compare(b.LastUsed, a.LastUsed) })
}

// indexLocked lists a hot entry in its bucket.
func (c *Cache) indexLocked(e *Entry) {
	b := c.byStruct[e.key]
	if b == nil {
		b = &bucket{groupBy: e.Lineage.GroupBy}
		c.byStruct[e.key] = b
		ks := kindSig{e.Lineage.Kind, e.Lineage.JoinSig}
		c.byKind[ks] = append(c.byKind[ks], b)
	}
	b.add(e)
}

// unindexLocked removes a hot entry from its bucket, dropping the
// bucket once empty.
func (c *Cache) unindexLocked(e *Entry) {
	b := c.byStruct[e.key]
	b.remove(e)
	if len(b.groups) > 0 {
		return
	}
	delete(c.byStruct, e.key)
	ks := kindSig{e.Lineage.Kind, e.Lineage.JoinSig}
	list := c.byKind[ks]
	i := slices.Index(list, b)
	list[i] = list[len(list)-1]
	list[len(list)-1] = nil
	if list = list[:len(list)-1]; len(list) > 0 {
		c.byKind[ks] = list
	} else {
		delete(c.byKind, ks)
	}
}

// Candidates returns the published entries whose structure matches the
// lineage probe (kind, join signature, key columns, group-by) and whose
// shape some reuse case can accept, most recently used first. stored
// lists the columns the requesting operator needs the cached table to
// store; probe.Filter is the request box. An entry is dropped when its
// table lacks a stored column, when Classify would call it disjoint from
// the request, or when the request constrains a column that neither its
// layout stores (so no post-filter is possible) nor its filter
// constrains (so the request cannot cover it). A nil request box with
// no stored columns returns the whole bucket. Classification into the
// reuse cases stays the caller's job — against a snapshot resolved once
// via Current.
func (c *Cache) Candidates(probe Lineage, stored []storage.ColRef) []*Entry {
	key := probe.StructKey()
	r := request{box: probe.Filter, empty: probe.Filter.Empty(), stored: stored}
	c.mu.RLock()
	defer c.mu.RUnlock()
	b := c.byStruct[key]
	if b == nil {
		return nil
	}
	out := b.appendCandidates(nil, &r)
	sortMRU(out)
	return out
}

// RollupCandidates returns the published entries of probe's kind and
// join signature whose GroupBy strictly contains probe.GroupBy — the
// aggregate roll-up extension, where a cached table grouped by more
// columns folds down to the request — and whose shape some reuse case
// can accept (as in Candidates), most recently used first. Only buckets
// with such a GroupBy are visited.
func (c *Cache) RollupCandidates(probe Lineage, stored []storage.ColRef) []*Entry {
	r := request{box: probe.Filter, empty: probe.Filter.Empty(), stored: stored}
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Entry
	for _, b := range c.byKind[kindSig{probe.Kind, probe.JoinSig}] {
		if len(b.groupBy) > len(probe.GroupBy) && refsSubset(probe.GroupBy, b.groupBy) {
			out = b.appendCandidates(out, &r)
		}
	}
	sortMRU(out)
	return out
}

// refsSubset reports a ⊆ b.
func refsSubset(a, b []storage.ColRef) bool {
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	return true
}
